"""Swarm tooling: census audit logic and a small real-process smoke.

The audit tests run on fabricated statuses (pure logic); the smoke test
actually spawns daemon subprocesses through the same launcher CI uses —
kept small (4 nodes, seed-death drill only) so tier-1 stays fast.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import pytest

from repro.apps.swarm import Swarm, vip_for
from repro.apps.swarm import main as swarm_main
from repro.apps import wowctl
from repro.apps.wowctl import render_census
from repro.check.invariants import ring_verdict


def _status(vip: str, addr: str, left: str, right: str,
            in_ring: bool = True) -> dict:
    return {"name": f"n{vip.rsplit('.', 1)[1]}", "vip": vip, "addr": addr,
            "left": left, "right": right, "in_ring": in_ring,
            "connections": 2, "endpoint": "127.0.0.1:1", "stats": {}}


def test_ring_verdict_accepts_consistent_successors():
    # addresses sorted; each right neighbor is the next live address
    statuses = [_status("10.128.2.2", "aa", "cc", "bb"),
                _status("10.128.2.3", "bb", "aa", "cc"),
                _status("10.128.2.4", "cc", "bb", "aa")]
    assert ring_verdict(statuses) == []


def test_ring_verdict_flags_stale_successor():
    # "aa" still points at a departed node "zz" instead of "bb"
    statuses = [_status("10.128.2.2", "aa", "cc", "zz"),
                _status("10.128.2.3", "bb", "aa", "cc"),
                _status("10.128.2.4", "cc", "bb", "aa")]
    problems = ring_verdict(statuses)
    assert [v.key for v in problems] == ["ring.neighbor-missing:n2:right"]


def test_ring_verdict_flags_node_out_of_ring():
    statuses = [_status("10.128.2.2", "aa", "bb", "bb"),
                _status("10.128.2.3", "bb", "aa", "aa"),
                _status("10.128.2.4", "cc", None, None, in_ring=False)]
    problems = ring_verdict(statuses)
    assert "ring.not-in-ring:n4" in {v.key for v in problems}


def test_render_census_reports_verdict():
    statuses = [_status("10.128.2.2", "aabbccddeeff", "aabbccddeeff",
                        "aabbccddeeff")]
    text = render_census(statuses, errors=[], findings=[])
    assert "RING AUDIT: consistent" in text
    bad = ring_verdict(statuses + [_status("10.128.2.3", "bb", None, None,
                                           in_ring=False)])
    text = render_census(statuses, errors=["n1: dead"], findings=bad)
    assert "RING AUDIT: INCONSISTENT" in text and "n1: dead" in text
    assert "n3 is not in the ring" in text


def test_census_json_lists_findings_as_violation_rows(monkeypatch, capsys):
    statuses = [_status("10.128.2.2", "aa", "cc", "zz"),
                _status("10.128.2.3", "bb", "aa", "cc"),
                _status("10.128.2.4", "cc", "bb", "aa")]
    monkeypatch.setattr(wowctl, "collect_census",
                        lambda sockets, timeout: (statuses, []))
    assert wowctl.main(["--json", "--sock", "unused.sock", "census"]) == 1
    rows = json.loads(capsys.readouterr().out)["violations"]
    # the schema of violations.jsonl, which repro.obs.inspect reads
    assert rows == [v.to_row() for v in ring_verdict(statuses)]
    assert [r["key"] for r in rows] == ["ring.neighbor-missing:n2:right"]


@pytest.mark.parametrize("argv", [
    ["--json", "--dir", "D", "census"],
    ["--dir", "D", "census", "--json"],
    ["--sock", "S", "ping", "10.128.0.3", "--json"],
])
def test_json_flag_parses_before_and_after_the_subcommand(argv):
    assert wowctl.build_parser().parse_args(argv).json is True


@pytest.mark.parametrize("argv", [["--dir", "D", "census"],
                                  ["--sock", "S", "status"]])
def test_json_flag_defaults_to_text(argv):
    assert wowctl.build_parser().parse_args(argv).json is False


def _stub_swarm(monkeypatch, tmp_path, lost_pings: int) -> None:
    """A swarm that starts no daemon: every drill passes at once, except
    that ``lost_pings`` of the pings are lost."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(Swarm, "spawn_all", lambda self: None)
    monkeypatch.setattr(Swarm, "wait_for_ring",
                        lambda self, expect, timeout, label: [{}] * expect)
    monkeypatch.setattr(Swarm, "ping_pairs",
                        lambda self, count, timeout=10.0: lost_pings)
    monkeypatch.setattr(Swarm, "teardown", lambda self, graceful=True: [])


ARGV = ["--nodes", "2", "--seeds", "1", "--skip-churn", "--skip-seed-death"]


def test_passing_run_removes_the_run_dir_it_created(monkeypatch, tmp_path):
    _stub_swarm(monkeypatch, tmp_path, lost_pings=0)
    assert swarm_main(ARGV) == 0
    assert list(tmp_path.iterdir()) == []


def test_failing_run_keeps_the_run_dir_and_names_it(monkeypatch, tmp_path,
                                                    capsys):
    _stub_swarm(monkeypatch, tmp_path, lost_pings=1)
    assert swarm_main(ARGV) == 1
    [run_dir] = tmp_path.iterdir()
    assert run_dir.name.startswith("wow-swarm-")
    assert str(run_dir) in capsys.readouterr().err


def test_passing_run_keeps_a_given_run_dir(monkeypatch, tmp_path):
    _stub_swarm(monkeypatch, tmp_path, lost_pings=0)
    run_dir = tmp_path / "run"
    assert swarm_main(ARGV + ["--run-dir", str(run_dir)]) == 0
    assert list(tmp_path.iterdir()) == [run_dir]


def test_vip_allocation_is_unique_and_valid():
    vips = [vip_for(i) for i in range(600)]
    assert len(set(vips)) == 600
    assert all(0 <= int(v.split(".")[-1]) <= 255 for v in vips)


@pytest.mark.slow
def test_small_swarm_end_to_end(tmp_path):
    """4 real daemon processes: form, ping, seed-death rejoin, drain."""
    if not os.path.exists("/proc/self/fd"):  # pragma: no cover
        pytest.skip("needs a POSIX host")
    rc = swarm_main([
        "--nodes", "4", "--seeds", "1",
        "--base-port", "17350",
        "--run-dir", str(tmp_path / "run"),
        "--settle", "60", "--pings", "3",
        "--skip-churn",  # 4 nodes is too small for a churn drill
    ])
    assert rc == 0


def test_swarm_subprocesses_import_from_this_tree():
    """The launcher must pin PYTHONPATH so spawned daemons import the
    same repro tree, wherever pytest was started from."""
    from repro.apps.swarm import Swarm
    swarm = Swarm(1, 18000, "/tmp", seeds=1)
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    assert swarm.env["PYTHONPATH"].split(os.pathsep)[0] == src
    assert swarm.env.get("PATH")  # the rest of the environment survives
    assert sys.executable  # sanity: the interpreter the launcher re-execs
