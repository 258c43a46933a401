"""``python -m repro.apps.wowctl`` — control CLI for running WOW daemons.

The operator-side half of :mod:`repro.apps.daemon`, modeled on IPOP's
``gvpn_controller``: it attaches to one or more daemon control sockets
(newline-delimited JSON over a unix socket) and exposes

* ``status`` / ``peers`` / ``links`` / ``cache`` — inspection;
* ``census`` — sweep every daemon under a socket directory and render a
  one-line-per-node ring overview plus the ring verdict over the statuses
  (:func:`repro.check.invariants.ring_verdict`, the one the simulator's
  auditor uses);
* ``trim`` — drop idle shortcut links past a TTL (the IPOP
  ``BaseTopologyManager`` link-expiry policy, applied on demand);
* ``connect`` — request an on-demand shortcut to a virtual IP;
* ``ping`` — tunnel an ICMP echo through the overlay;
* ``shutdown`` — ask for a graceful drain.

Examples::

    wowctl --sock /tmp/wow/n0.sock status
    wowctl --dir /tmp/wow census
    wowctl --dir /tmp/wow trim --ttl 30
    wowctl --sock /tmp/wow/n3.sock ping 10.128.0.7
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import socket
import sys
from typing import Any, Optional

from repro.check.invariants import Violation, ring_verdict

#: client-side receive cap per reply line
MAX_REPLY = 1 << 22


class ControlError(RuntimeError):
    """A daemon answered ``ok: false`` or the socket was unusable."""


def control_call(path: str, cmd: str, timeout: float = 10.0,
                 **params: Any) -> dict:
    """One synchronous request/reply against a daemon control socket."""
    request = json.dumps({"cmd": cmd, **params}).encode() + b"\n"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        try:
            sock.connect(path)
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n") or sum(map(len, chunks)) > MAX_REPLY:
                    break
        except OSError as exc:
            raise ControlError(f"{path}: {exc}") from exc
    raw = b"".join(chunks)
    if not raw:
        raise ControlError(f"{path}: connection closed without a reply")
    reply = json.loads(raw)
    if not reply.get("ok"):
        raise ControlError(f"{path}: {reply.get('error', 'unknown error')}")
    return reply


def discover_sockets(directory: str) -> list[str]:
    """All daemon control sockets under ``directory`` (``*.sock``)."""
    return sorted(glob.glob(os.path.join(directory, "*.sock")))


# ---------------------------------------------------------------------------
# census: the swarm-wide ring view
# ---------------------------------------------------------------------------

def collect_census(sockets: list[str],
                   timeout: float = 10.0) -> tuple[list[dict], list[str]]:
    """Query ``status`` on every socket; returns (alive statuses, errors)."""
    statuses, errors = [], []
    for path in sockets:
        try:
            st = control_call(path, "status", timeout=timeout)
            st["_sock"] = path
            statuses.append(st)
        except (ControlError, ValueError) as exc:
            errors.append(str(exc))
    statuses.sort(key=lambda s: s["addr"])
    return statuses, errors


def render_census(statuses: list[dict], errors: list[str],
                  findings: list[Violation]) -> str:
    lines = [f"{'vip':<14} {'addr':<14} {'ring':<5} {'conns':>5} "
             f"{'sent':>7} {'delivered':>9}  endpoint"]
    for st in statuses:
        stats = st.get("stats", {})
        lines.append(
            f"{st['vip']:<14} {st['addr'][:12] + '…':<14} "
            f"{'yes' if st.get('in_ring') else 'NO':<5} "
            f"{st.get('connections', 0):>5} "
            f"{stats.get('sent', 0):>7} {stats.get('delivered', 0):>9}  "
            f"{st.get('endpoint', '?')}")
    lines.append(f"{len(statuses)} alive, {len(errors)} unreachable")
    for err in errors:
        lines.append(f"  unreachable: {err}")
    if findings:
        lines.append("RING AUDIT: INCONSISTENT")
        lines.extend(f"  {v.detail}" for v in findings)
    else:
        lines.append("RING AUDIT: consistent")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.wowctl",
        description=__doc__.split("\n")[0])
    parser.add_argument("--sock", metavar="PATH",
                        help="one daemon control socket")
    parser.add_argument("--dir", metavar="DIR",
                        help="directory of *.sock control sockets "
                             "(fan out to every daemon)")
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--json", action="store_true",
                        help="raw JSON output instead of rendered text")
    sub = parser.add_subparsers(dest="command", required=True)
    for simple in ("status", "peers", "links", "cache", "stats",
                   "save-cache", "shutdown"):
        sub.add_parser(simple)
    sub.add_parser("census")
    p_trim = sub.add_parser("trim")
    p_trim.add_argument("--ttl", type=float, default=30.0,
                        help="drop shortcut links idle >= TTL seconds")
    p_conn = sub.add_parser("connect")
    p_conn.add_argument("vip")
    p_ping = sub.add_parser("ping")
    p_ping.add_argument("vip")
    p_ping.add_argument("--ping-timeout", type=float, default=5.0)
    return parser


def _targets(args: argparse.Namespace) -> list[str]:
    if args.sock:
        return [args.sock]
    if args.dir:
        sockets = discover_sockets(args.dir)
        if not sockets:
            raise ControlError(f"no *.sock under {args.dir}")
        return sockets
    raise ControlError("need --sock PATH or --dir DIR")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "census":
            statuses, errors = collect_census(_targets(args),
                                              timeout=args.timeout)
            findings = ring_verdict(statuses)
            if args.json:
                print(json.dumps(
                    {"nodes": statuses, "errors": errors,
                     "violations": [v.to_row() for v in findings]},
                    indent=1))
            else:
                print(render_census(statuses, errors, findings))
            return 1 if (findings or errors) else 0

        params: dict[str, Any] = {}
        if args.command == "trim":
            params["ttl"] = args.ttl
        elif args.command in ("connect", "ping"):
            params["vip"] = args.vip
        if args.command == "ping":
            params["timeout"] = args.ping_timeout

        failures = 0
        for path in _targets(args):
            try:
                reply = control_call(path, args.command,
                                     timeout=args.timeout, **params)
            except ControlError as exc:
                print(f"{path}: ERROR {exc}", file=sys.stderr)
                failures += 1
                continue
            reply.pop("ok", None)
            if args.json:
                print(json.dumps({"sock": path, **reply}, indent=1))
            else:
                print(f"{path}: {json.dumps(reply)}")
            if args.command == "ping" and not reply.get("replied"):
                failures += 1
        return 1 if failures else 0
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
