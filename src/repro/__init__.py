"""Reproduction of "WOW: Self-Organizing Wide Area Overlay Networks of
Virtual Workstations" (Ganguly, Agrawal, Boykin, Figueiredo — HPDC 2006).

Layer map (bottom-up):

* :mod:`repro.sim` — deterministic discrete-event kernel;
* :mod:`repro.phys` — hosts, sites, NAT/firewall middleboxes, WAN model,
  max-min fair bulk flows;
* :mod:`repro.brunet` — the structured P2P overlay: ring, greedy routing,
  CTM + linking (decentralized NAT hole punching), connection overlords,
  shortcut score queue;
* :mod:`repro.ipop` — IP-over-P2P virtual networking: tap, ICMP, virtual
  TCP, overlay-route-aware transfers;
* :mod:`repro.vm` — VM appliances, guest CPU, WAN live migration;
* :mod:`repro.middleware` — PBS, NFS, SSH/SCP, PVM, ttcp, RPC substrate;
* :mod:`repro.apps` — MEME and fastDNAml (real kernels + cost models);
* :mod:`repro.core` — deployment orchestration and the paper testbed;
* :mod:`repro.experiments` — one module per table/figure + run_all CLI.

Quick start::

    from repro.sim import Simulator
    from repro.core import build_paper_testbed

    sim = Simulator(seed=1)
    testbed = build_paper_testbed(sim)
    testbed.run_warmup()        # 118 PlanetLab routers + 33 VMs join
    assert testbed.deployment.ring_consistent()
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
