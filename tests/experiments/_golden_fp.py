"""Trajectory fingerprints for the pre/post-refactor golden tests.

A fingerprint is a sha256 over the *complete* tracer record stream of a
run (every category, every record, exact float reprs), so any change in
event order, timing, RNG draw sequence, or payload shows up.  The runs
used here are small (seconds each) but exercise joins, CTM handshakes,
linking, greedy routing, shortcut formation, crash-detection and repair —
the full overlay stack.

``capture_flows`` covers what neither of those creates: bulk fluid flows
(``repro.phys.flows``), hashed by their result payloads and every
flow's progress log.

All three are also import-run as a script by the maintenance workflow
to (re)print the expected digests::

    PYTHONPATH=src python -m tests.experiments._golden_fp
"""

from __future__ import annotations

import hashlib


def _digest_records(tracer) -> str:
    h = hashlib.sha256()
    for cat in sorted(tracer.records):
        h.update(cat.encode())
        for t, data in tracer.records[cat]:
            h.update(repr((t, sorted(data.items()))).encode())
    return h.hexdigest()


def capture_churn(seed: int = 0) -> str:
    """Small churn_recovery run with tracing forced on (read-only)."""
    import repro.experiments.churn_recovery as churn
    from repro.sim.engine import Simulator

    created: list[Simulator] = []

    class _TracingSim(Simulator):
        def __init__(self, *args, **kwargs):
            kwargs["trace"] = True
            super().__init__(*args, **kwargs)
            created.append(self)

    orig = churn.Simulator
    churn.Simulator = _TracingSim
    try:
        res = churn.run(seed=seed, n_nodes=10, kill_fraction=0.3,
                        settle=200.0, horizon=260.0, sample_every=20.0)
    finally:
        churn.Simulator = orig
    sim = created[0]
    h = hashlib.sha256()
    h.update(_digest_records(sim.tracer).encode())
    h.update(repr((res.recovery_ring, res.recovery_routes,
                   res.n_killed, res.series)).encode())
    return h.hexdigest()


def capture_fig4(seed: int = 0) -> str:
    """One-trial fig4 join profile over a traced testbed."""
    from repro.experiments import fig4_join_profile
    from repro.experiments.common import make_testbed

    setup = make_testbed(seed=seed, scale=0.5, trace=True, settle=90.0)
    profiles = fig4_join_profile.run(seed=seed, trials_per_case=1,
                                     count=40, setup=setup)
    h = hashlib.sha256()
    h.update(_digest_records(setup.sim.tracer).encode())
    for case in sorted(profiles):
        p = profiles[case]
        h.update(repr((case, p.rtt_sum.tobytes(), p.rtt_n.tobytes(),
                       p.lost.tobytes(), p.shortcut_seqs)).encode())
    return h.hexdigest()


def capture_flows(seed: int = 0) -> str:
    """Results and per-flow progress logs of three small bulk-flow runs.

    * fig6: one SCP stream paused, resumed and re-pathed across a VM
      migration;
    * fig8 without shortcuts, 200 jobs: PBS/NFS staging churn, up to 8
      live flows;
    * table3's 30-worker configuration with shortcuts, 24 taxa: NFS
      flows under per-flow rate caps, up to 11 live flows.
    """
    from repro.experiments import fig6_scp_migration, fig8_meme_histogram
    from repro.experiments import table3_fastdnaml
    from repro.experiments.common import make_testbed
    from repro.phys.flows import FlowManager

    created = []
    orig_add = FlowManager.add

    def add(self, flow):
        created.append(flow)
        orig_add(self, flow)

    def table3():
        setup = make_testbed(seed=seed, scale=0.5, shortcuts=True)
        setup.calib.fastdnaml_taxa = 24
        workload = table3_fastdnaml.FastDnamlWorkload(
            setup.calib, setup.sim.rng.stream("t3"))
        return table3_fastdnaml.parallel_time(setup, 30, workload)

    runs = (lambda: fig6_scp_migration.run(seed=seed, scale=0.5),
            lambda: fig8_meme_histogram.run_one(False, seed=seed, scale=0.5,
                                                n_jobs=200),
            table3)
    h = hashlib.sha256()
    FlowManager.add = add
    try:
        for run in runs:
            created.clear()
            h.update(repr(run()).encode())
            # names are left out: PVM numbers its tasks from a
            # process-global counter, so they depend on what ran before
            for f in created:
                h.update(repr((f.size, f.start_time, f.finish_time,
                               f.completed, f.progress_log)).encode())
    finally:
        FlowManager.add = orig_add
    return h.hexdigest()


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import time
    t0 = time.time()
    c = capture_churn()
    t1 = time.time()
    f = capture_fig4()
    t2 = time.time()
    fl = capture_flows()
    t3 = time.time()
    print(f"CHURN_FP = \"{c}\"  # {t1 - t0:.1f}s")
    print(f"FIG4_FP = \"{f}\"  # {t2 - t1:.1f}s")
    print(f"FLOWS_FP = \"{fl}\"  # {t3 - t2:.1f}s")
