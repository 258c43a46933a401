"""End-to-end read of a daemon's stats channel, its unix control socket,
from a separate process: the daemon runs as ``python -m
repro.apps.daemon`` and a local client asks it for ``stats``."""

import os
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.apps.wowctl import control_call


def test_serve_stats_end_to_end_still_answers_loopback(tmp_path):
    sock = tmp_path / "d.sock"
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.apps.daemon", "--vip", "10.128.0.2",
         "--control", str(sock)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 20.0
        while not sock.exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "control socket never appeared"
            time.sleep(0.05)
        snap = control_call(str(sock), "stats", timeout=5.0)
        assert "t" in snap and "events" in snap
        control_call(str(sock), "shutdown", timeout=5.0)
        assert proc.wait(timeout=20.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
