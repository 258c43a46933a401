"""CLI driver: regenerate every table and figure.

Usage::

    wow-experiments --list
    wow-experiments fig4 table2 --scale 0.5 --seed 1
    wow-experiments all --full        # paper-scale (slow)

``--full`` runs paper-scale parameters; the default is a reduced but
shape-preserving configuration suitable for a laptop.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    churn_recovery,
    fig4_join_profile,
    fig5_regimes,
    fig6_scp_migration,
    fig7_pbs_migration,
    fig8_meme_histogram,
    join_latency_cdf,
    scaling_10k,
    table2_bandwidth,
    table3_fastdnaml,
)
from repro.sim.units import MB

EXPERIMENTS = {
    "fig4": "ICMP RTT/loss profiles during node join (3 site pairs)",
    "fig5": "dropped-packet regimes during join",
    "table2": "ttcp bandwidth, shortcuts on/off",
    "fig6": "SCP transfer across server VM migration",
    "fig7": "PBS/MEME jobs across worker VM migration",
    "fig8": "PBS/MEME histograms + throughput, shortcuts on/off",
    "table3": "fastDNAml-PVM times and speedups",
    "joincdf": "join latency CDF (300-trial claim)",
    "churn": "self-repair time after killing 25% of the overlay (§V-E)",
    "scaling10k": "hop count vs c·log²n up to 10k nodes (+churn slice)",
}


def _audit_verdict(name: str, violations: list) -> list:
    if violations:
        print(f"[audit] {name}: {len(violations)} invariant "
              f"violation(s)")
        for v in violations:
            print(f"[audit]   t={v.t:10.3f}  {v.kind:28s} "
                  f"{v.node:16s} {v.detail}")
    else:
        print(f"[audit] {name}: clean")
    return violations


def _run_one(name: str, full: bool, seed: int, scale: float,
             csv_dir: str | None = None,
             metrics_out: str | None = None,
             audit: bool = False,
             profile_kernel: bool = False) -> list:
    """Run one experiment; returns invariant violations (``--audit``)."""
    t0 = time.time()
    violations: list = []
    if name == "fig4":
        from repro.experiments.common import make_testbed
        setup = (make_testbed(seed=seed, scale=scale, audit=True)
                 if audit else None)
        profiles = fig4_join_profile.run(
            seed=seed, scale=scale, trials_per_case=10 if full else 3,
            count=400 if full else 300, setup=setup)
        fig4_join_profile.report(profiles, csv_dir=csv_dir)
        fig5_regimes.report(fig5_regimes.summarize(profiles))
        if setup is not None:
            violations = _audit_verdict(name, setup.finish_audit())
    elif name == "fig5":
        fig5_regimes.main(seed=seed, scale=scale,
                          trials=10 if full else 3)
    elif name == "table2":
        if full:
            rows = table2_bandwidth.run(seed=seed, scale=scale)
        else:
            rows = table2_bandwidth.run(seed=seed, scale=scale,
                                        repetitions=2,
                                        sizes=(MB(50.0), MB(8.0)))
        table2_bandwidth.report(rows)
    elif name == "fig6":
        if full:
            result = fig6_scp_migration.run(seed=seed, scale=scale)
        else:
            result = fig6_scp_migration.run(seed=seed, scale=scale,
                                            file_size=MB(180.0),
                                            transfer_size=MB(150.0),
                                            migrate_at=60.0)
        fig6_scp_migration.report(result, csv_dir=csv_dir)
    elif name == "fig7":
        result = fig7_pbs_migration.run(
            seed=seed, scale=scale,
            jobs_before=30 if full else 10,
            jobs_after=25 if full else 8,
            transfer_size=None if full else MB(80.0))
        fig7_pbs_migration.report(result)
    elif name == "fig8":
        results = fig8_meme_histogram.run(seed=seed, scale=scale,
                                          n_jobs=4000 if full else 600)
        fig8_meme_histogram.report(results, csv_dir=csv_dir)
    elif name == "table3":
        rows = table3_fastdnaml.run(seed=seed, scale=scale,
                                    taxa=None if full else 24)
        table3_fastdnaml.report(rows)
    elif name == "joincdf":
        result = join_latency_cdf.run(seed=seed, scale=scale,
                                      trials=300 if full else 30)
        join_latency_cdf.report(result)
    elif name == "churn":
        result = churn_recovery.run(seed=seed,
                                    n_nodes=40 if full else 20,
                                    kill_fraction=0.25,
                                    obs_dir=metrics_out,
                                    audit=audit,
                                    profile_kernel=profile_kernel)
        churn_recovery.report(result, csv_dir=csv_dir)
        if metrics_out:
            print(f"[obs] export bundle in {metrics_out}/")
        if result.profile:
            cats = sorted(result.profile["categories"].items(),
                          key=lambda kv: -kv[1]["time_s"])
            print("[profile] " + "  ".join(
                f"{cat}={agg['share'] * 100:.0f}%"
                for cat, agg in cats[:6]))
            if metrics_out:
                print(f"[profile] profile.json + profile.folded in "
                      f"{metrics_out}/ (flamegraph-ready)")
        if audit:
            violations = _audit_verdict(name, result.violations or [])
    elif name == "scaling10k":
        points = scaling_10k.run(
            sizes=(1000, 2000, 5000, 10000) if full else (1000, 2000),
            seed=seed, settle=45.0 if full else 30.0,
            sample_pairs=600 if full else 300,
            churn_fraction=0.01 if full else 0.0)
        scaling_10k.report(points)
        flat = [v for p in points for v in p.violations]
        violations = _audit_verdict(name, flat)
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    print(f"[{name} finished in {time.time() - t0:.0f}s wall]")
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wow-experiments",
        description="Regenerate the WOW paper's tables and figures.")
    parser.add_argument("names", nargs="*", default=["all"],
                        help="experiment ids (or 'all')")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="overlay scale (default 0.5, 1.0 with --full)")
    parser.add_argument("--csv-dir", default=None,
                        help="export raw series as CSV into this directory")
    parser.add_argument("--metrics-out", default=None, metavar="DIR",
                        help="export the observability bundle (metrics, "
                             "spans, flight-recorder events) into DIR; "
                             "currently wired into the churn experiment")
    parser.add_argument("--audit", action="store_true",
                        help="run the invariant auditor inline (fig4 and "
                             "churn); exit 1 if any violation is found")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-20 "
                             "functions by cumulative time")
    parser.add_argument("--profile-kernel", action="store_true",
                        help="attach the in-kernel self-profiler "
                             "(read-only; currently wired into churn). "
                             "With --metrics-out, profile.json and "
                             "profile.folded land beside the bundle")
    args = parser.parse_args(argv)

    if args.list:
        for name, desc in EXPERIMENTS.items():
            print(f"{name:8s} {desc}")
        return 0
    names = list(EXPERIMENTS) if args.names in ([], ["all"]) else args.names
    scale = args.scale if args.scale is not None else \
        (1.0 if args.full else 0.5)

    all_violations: list = []

    def run_selected() -> None:
        for name in names:
            all_violations.extend(
                _run_one(name, args.full, args.seed, scale,
                         csv_dir=args.csv_dir,
                         metrics_out=args.metrics_out, audit=args.audit,
                         profile_kernel=args.profile_kernel))

    if args.profile:
        import cProfile
        import pstats
        profiler = cProfile.Profile()
        profiler.runcall(run_selected)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(20)
    else:
        run_selected()
    if all_violations:
        print(f"[audit] FAILED: {len(all_violations)} invariant "
              f"violation(s) across the selected experiments")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
