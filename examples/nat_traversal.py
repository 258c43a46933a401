#!/usr/bin/env python
"""Decentralized NAT traversal, connection by connection (paper §IV).

Shows the raw protocol behaviour behind Fig. 4: the same shortcut request
takes milliseconds, seconds, or minutes depending only on the NAT semantics
between the two nodes — cone NATs hole-punch; a hairpin-incapable NAT burns
the full URI-retry ladder before the private-address fallback works.

Run:  python examples/nat_traversal.py
"""

from repro.brunet.connection import ConnectionType
from repro.core import Deployment
from repro.core.config import SiteSpec
from repro.sim import Simulator


def measure_shortcut(wow, sim, a, b) -> float:
    """Drive traffic a→b until a direct connection exists; return how long
    the self-configured link took."""
    t0 = sim.now
    formed = {}

    def watch(conn) -> None:
        if conn.peer_addr == b.addr:
            formed.setdefault("t", sim.now - t0)
    a.node.on_connection.append(watch)

    def drive() -> None:
        if "t" not in formed and sim.now - t0 < 600.0:
            a.router.send_ip(b.virtual_ip, "udp", 7, b"probe", 64)
            a.node.shortcut_overlord.observe(b.addr)  # …and score it
            sim.schedule(1.0, drive)
    drive()
    sim.run(until=sim.now + 650.0)
    return formed.get("t", float("inf"))


def main() -> None:
    sim = Simulator(seed=13)
    wow = Deployment(sim)
    wow.add_planetlab(n_hosts=4, n_routers=12)

    hairpinless = wow.add_site(SiteSpec("ufl-like", "10.70.",
                                        nat_hairpin=False))
    cone_a = wow.add_site(SiteSpec("campus-a", "10.80.", nat_hairpin=True))
    cone_b = wow.add_site(SiteSpec("campus-b", "10.90.", nat_hairpin=True))

    sim.run(until=30)

    cases = [
        ("cross-NAT hole punch (cone ↔ cone)", cone_a, cone_b),
        ("same cone NAT (hairpin works)", cone_b, cone_b),
        ("same NAT, hairpin unsupported → URI-ladder fallback",
         hairpinless, hairpinless),
    ]
    print("how long until a direct (single-hop) connection forms:\n")
    ip_counter = iter(range(2, 200))
    for index, (label, site_x, site_y) in enumerate(cases):
        # fresh VM pair per case so no prior connection state exists;
        # re-roll ring positions that happen to be adjacent (adjacent nodes
        # link as ring neighbours regardless of traffic)
        while True:
            x = wow.create_vm(f"x{index}.{next(ip_counter)}",
                              f"172.16.9.{next(ip_counter)}", site_x)
            y = wow.create_vm(f"y{index}.{next(ip_counter)}",
                              f"172.16.9.{next(ip_counter)}", site_y)
            x.start()
            y.start()
            sim.run(until=sim.now + 30)
            if x.node.table.get(y.addr) is None:
                break
            x.stop()
            y.stop()
            sim.run(until=sim.now + 60)
        took = measure_shortcut(wow, sim, x, y)
        conn = x.node.table.get(y.addr)
        via = conn.remote_endpoint if conn else "—"
        print(f"  {label}\n    {x.name}→{y.name}: {took:6.1f}s  "
              f"(linked via {via})\n")
    print("the ~155 s case is the paper's Fig. 4 UFL-UFL curve: the linking")
    print("protocol retries the NAT-assigned public URI with exponential")
    print("back-off before falling back to the private address (§V-B)")


if __name__ == "__main__":
    main()
