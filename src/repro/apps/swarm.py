"""``python -m repro.apps.swarm`` — launch a real multi-process WOW swarm.

The deployment rehearsal for the paper's testbed: spawn N (default 50)
:mod:`repro.apps.daemon` processes on localhost, each with its own real
UDP socket, control socket, and cached-peer store, then drive the same
drills the simulator chapters verify analytically:

1. **form** — all nodes join off a handful of seed nodes and the swarm-
   wide ring audit (every node's right neighbor == its live successor)
   comes back consistent;
2. **traffic** — virtual-IP ICMP pings tunnel between random node pairs;
3. **churn** — SIGKILL a fraction of the swarm (default 20%); survivors
   re-converge and pings still deliver;
4. **seed death** — gracefully stop one node (persisting its peer
   cache), SIGKILL *every* seed, restart the node with only dead seed
   URIs on its command line — it must rejoin through the cached peers
   (the decentralized-bootstrap tentpole);
5. **drain** — SIGTERM everything, require clean exits, and (with
   ``--bundle-dir``) audit every exported observability bundle with
   :mod:`repro.check.posthoc`.

Exit status 0 means every drill passed — CI runs this with
``--nodes 10`` as the swarm smoke job.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Optional

import repro
from repro.apps.wowctl import (ControlError, collect_census, control_call,
                               render_census)
from repro.check.invariants import ring_verdict

#: localhost virtual subnet: node i owns 10.128.(2+i//250).(2+i%250)
def vip_for(index: int) -> str:
    return f"10.128.{2 + index // 250}.{2 + index % 250}"


class SwarmNode:
    """One spawned daemon process and the paths to talk to it."""

    def __init__(self, index: int, run_dir: str, base_port: int,
                 is_seed: bool):
        self.index = index
        self.name = f"n{index:03d}"
        self.vip = vip_for(index)
        self.port = base_port + index
        self.is_seed = is_seed
        self.sock = os.path.join(run_dir, f"{self.name}.sock")
        self.cache = os.path.join(run_dir, f"{self.name}.peers.json")
        self.log = os.path.join(run_dir, f"{self.name}.log")
        self.proc: Optional[subprocess.Popen] = None

    @property
    def uri(self) -> str:
        return f"brunet.udp:127.0.0.1:{self.port}"

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class Swarm:
    def __init__(self, nodes: int, base_port: int, run_dir: str,
                 seeds: int = 3, bundle_dir: Optional[str] = None,
                 rng_seed: int = 0):
        self.run_dir = run_dir
        self.bundle_dir = bundle_dir
        self.rng = random.Random(rng_seed)
        seeds = min(seeds, nodes)
        self.nodes = [SwarmNode(i, run_dir, base_port, is_seed=i < seeds)
                      for i in range(nodes)]
        self.seed_uris = [n.uri for n in self.nodes if n.is_seed]
        # the daemon subprocess must import repro from the same tree
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src_dir + os.pathsep + \
            self.env.get("PYTHONPATH", "")

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, node: SwarmNode) -> None:
        cmd = [sys.executable, "-m", "repro.apps.daemon",
               "--vip", node.vip,
               "--listen", f"127.0.0.1:{node.port}",
               "--control", node.sock,
               "--peer-cache", node.cache,
               "--cache-interval", "2.0",
               "--name", node.name]
        for uri in self.seed_uris:
            if uri != node.uri:  # a seed does not bootstrap off itself
                cmd += ["--seed-uri", uri]
        if self.bundle_dir:
            cmd += ["--bundle-out",
                    os.path.join(self.bundle_dir, node.name)]
        logfh = open(node.log, "ab")
        node.proc = subprocess.Popen(cmd, stdout=logfh, stderr=logfh,
                                     env=self.env)
        logfh.close()

    def spawn_all(self) -> None:
        # seeds first so the very first joiners have someone to talk to
        for node in sorted(self.nodes, key=lambda n: not n.is_seed):
            self.spawn(node)

    def kill(self, node: SwarmNode, graceful: bool = False,
             timeout: float = 15.0) -> int:
        """Stop one daemon; returns its exit code."""
        if node.proc is None:
            return 0
        if node.proc.poll() is None:
            node.proc.send_signal(
                signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            return node.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            node.proc.kill()
            return node.proc.wait(timeout=5.0)

    def teardown(self, graceful: bool = True) -> list[str]:
        """Stop every live daemon; returns names that exited non-zero."""
        dirty = []
        live = [n for n in self.nodes if n.alive()]
        for node in live:
            if node.proc.poll() is None:
                node.proc.send_signal(
                    signal.SIGTERM if graceful else signal.SIGKILL)
        for node in live:
            try:
                code = node.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                node.proc.kill()
                node.proc.wait(timeout=5.0)
                code = -9
            if graceful and code != 0:
                dirty.append(f"{node.name} exit={code}")
        return dirty

    # ------------------------------------------------------------------
    # swarm-wide checks
    # ------------------------------------------------------------------
    def live_sockets(self) -> list[str]:
        return [n.sock for n in self.nodes
                if n.alive() and os.path.exists(n.sock)]

    def wait_for_ring(self, expect: int, timeout: float,
                      label: str) -> list[dict]:
        """Poll the census until ``expect`` nodes are in a consistent
        ring; raises RuntimeError with the last census on timeout."""
        deadline = time.monotonic() + timeout
        statuses, errors, findings = [], ["not yet polled"], []
        while time.monotonic() < deadline:
            statuses, errors = collect_census(self.live_sockets(),
                                              timeout=5.0)
            findings = ring_verdict(statuses)
            if len(statuses) >= expect and not findings:
                return statuses
            time.sleep(1.0)
        raise RuntimeError(
            f"{label}: ring not consistent after {timeout:.0f}s\n"
            + render_census(statuses, errors, findings))

    def ping_pairs(self, count: int, timeout: float = 10.0) -> int:
        """Random-pair virtual-IP pings; returns the number that failed."""
        live = [n for n in self.nodes if n.alive()]
        failed = 0
        for _ in range(count):
            src, dst = self.rng.sample(live, 2)
            try:
                reply = control_call(src.sock, "ping", vip=dst.vip,
                                     timeout=timeout + 5.0)
            except ControlError:
                reply = {"replied": False}
            if not reply.get("replied"):
                failed += 1
                print(f"  PING FAIL {src.name}({src.vip}) -> "
                      f"{dst.name}({dst.vip})")
        return failed


# ---------------------------------------------------------------------------
# drills
# ---------------------------------------------------------------------------

def drill_churn(swarm: Swarm, frac: float, pings: int,
                settle: float) -> None:
    victims = [n for n in swarm.nodes if not n.is_seed and n.alive()]
    swarm.rng.shuffle(victims)
    victims = victims[:max(1, int(len(swarm.nodes) * frac))]
    print(f"churn: SIGKILL {len(victims)} nodes "
          f"({', '.join(v.name for v in victims)})")
    for v in victims:
        swarm.kill(v, graceful=False)
        if os.path.exists(v.sock):
            os.unlink(v.sock)
    survivors = sum(1 for n in swarm.nodes if n.alive())
    swarm.wait_for_ring(survivors, settle, "churn")
    failed = swarm.ping_pairs(pings)
    if failed:
        raise RuntimeError(f"churn: {failed}/{pings} pings lost after "
                           "re-convergence")
    print(f"churn: ring re-converged with {survivors} nodes, "
          f"{pings} pings delivered")


def drill_seed_death(swarm: Swarm, settle: float) -> None:
    victim = next(n for n in reversed(swarm.nodes)
                  if not n.is_seed and n.alive())
    print(f"seed-death: graceful stop of {victim.name} "
          f"(persists peer cache)")
    code = swarm.kill(victim, graceful=True)
    if code != 0:
        raise RuntimeError(f"seed-death: {victim.name} exited {code} "
                           "on SIGTERM")
    if not os.path.exists(victim.cache):
        raise RuntimeError(f"seed-death: {victim.name} saved no peer "
                           f"cache at {victim.cache}")
    cached = json.load(open(victim.cache))["peers"]
    seeds = [n for n in swarm.nodes if n.is_seed and n.alive()]
    print(f"seed-death: SIGKILL all {len(seeds)} seeds "
          f"({', '.join(s.name for s in seeds)}); victim cache holds "
          f"{len(cached)} peers")
    for s in seeds:
        swarm.kill(s, graceful=False)
        if os.path.exists(s.sock):
            os.unlink(s.sock)
    # restart the victim: its --seed-uri list now points only at corpses,
    # so rejoining is possible only through the cached peers
    swarm.spawn(victim)
    deadline = time.monotonic() + settle
    while time.monotonic() < deadline:
        try:
            st = control_call(victim.sock, "status", timeout=5.0)
            if st.get("in_ring"):
                print(f"seed-death: {victim.name} rejoined via cached "
                      f"peers ({st['connections']} connections)")
                return
        except (ControlError, ValueError):
            pass
        time.sleep(1.0)
    raise RuntimeError(
        f"seed-death: {victim.name} failed to rejoin within "
        f"{settle:.0f}s of restart with all seeds dead")


def audit_bundles(bundle_dir: str) -> int:
    """Posthoc-audit every exported bundle; returns failure count."""
    from repro.check.posthoc import audit_bundle
    failures = 0
    bundles = sorted(d for d in os.listdir(bundle_dir)
                     if os.path.isdir(os.path.join(bundle_dir, d)))
    for name in bundles:
        violations = audit_bundle(os.path.join(bundle_dir, name))
        print(f"bundle {name}: {'FAIL' if violations else 'ok'}")
        for v in violations:
            print(f"    {v.kind} {v.node}: {v.detail}")
        failures += len(violations)
    if not bundles:
        print(f"bundle audit: nothing exported under {bundle_dir}")
    return failures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.swarm",
        description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--base-port", type=int, default=15600)
    parser.add_argument("--run-dir", default=None,
                        help="sockets/caches/logs live here "
                             "(default: a fresh temp dir, removed after a "
                             "passing run)")
    parser.add_argument("--bundle-dir", default=None,
                        help="daemons export obs bundles here on drain; "
                             "audited with repro.check.posthoc")
    parser.add_argument("--settle", type=float, default=90.0,
                        help="seconds to wait for ring convergence")
    parser.add_argument("--pings", type=int, default=10,
                        help="random ping pairs per traffic check")
    parser.add_argument("--churn-frac", type=float, default=0.2)
    parser.add_argument("--skip-churn", action="store_true")
    parser.add_argument("--skip-seed-death", action="store_true")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for victim/pair selection")
    parser.add_argument("--hold", action="store_true",
                        help="after the drills, leave the swarm running "
                             "until Ctrl-C (attach wowctl / obs.top)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    passed = False
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="wow-swarm-")
    os.makedirs(run_dir, exist_ok=True)
    if args.bundle_dir:
        os.makedirs(args.bundle_dir, exist_ok=True)
    swarm = Swarm(args.nodes, args.base_port, run_dir, seeds=args.seeds,
                  bundle_dir=args.bundle_dir, rng_seed=args.seed)
    print(f"swarm: {args.nodes} daemons, {len(swarm.seed_uris)} seeds, "
          f"ports {args.base_port}..{args.base_port + args.nodes - 1}, "
          f"run dir {run_dir}")
    try:
        swarm.spawn_all()
        statuses = swarm.wait_for_ring(args.nodes, args.settle, "form")
        print(f"form: ring consistent with {len(statuses)} nodes")
        failed = swarm.ping_pairs(args.pings)
        if failed:
            raise RuntimeError(f"traffic: {failed}/{args.pings} pings "
                               "lost on the formed ring")
        print(f"traffic: {args.pings} pings delivered")
        if not args.skip_churn:
            drill_churn(swarm, args.churn_frac, args.pings, args.settle)
        if not args.skip_seed_death:
            drill_seed_death(swarm, args.settle)
        if args.hold:
            print(f"hold: swarm up — wowctl --dir {run_dir} census; "
                  "Ctrl-C to drain")
            try:
                while True:
                    time.sleep(60.0)
            except KeyboardInterrupt:
                pass
        dirty = swarm.teardown(graceful=True)
        if dirty:
            raise RuntimeError("drain: unclean exits: " + ", ".join(dirty))
        print("drain: all daemons exited cleanly")
        if args.bundle_dir:
            bad = audit_bundles(args.bundle_dir)
            if bad:
                raise RuntimeError(f"bundle audit: {bad} failed checks")
        print("swarm: ALL DRILLS PASSED")
        passed = True
        return 0
    except (RuntimeError, ControlError) as exc:
        # the run dir holds the daemons' logs: the evidence, so it stays
        print(f"swarm: FAILED — {exc} (logs in {run_dir})", file=sys.stderr)
        return 1
    finally:
        swarm.teardown(graceful=False)
        if passed and not args.run_dir:
            shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
