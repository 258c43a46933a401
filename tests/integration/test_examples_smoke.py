"""Every example script must run end to end (reduced arguments), and
``examples/README.md`` lists exactly the scripts there are."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: float = 420.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_readme_table_and_smoke_tests_cover_exactly_the_scripts():
    readme = (EXAMPLES / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+\.py)", readme, re.M)
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert sorted(listed) == scripts
    smoked = re.findall(r'run_example\("(\w+\.py)"',
                        Path(__file__).read_text())
    assert sorted(set(smoked)) == scripts


def test_quickstart():
    out = run_example("quickstart.py")
    assert "joined the P2P ring" in out
    assert "direct shortcut" in out


def test_batch_cluster_small():
    out = run_example("batch_cluster.py", "40")
    assert "EM recovered" in out
    assert "jobs completed" in out


def test_parallel_phylogenetics_small():
    out = run_example("parallel_phylogenetics.py", "12")
    assert "best tree logL" in out
    assert "speedup" in out


def test_live_migration():
    out = run_example("live_migration.py")
    assert "zero application" in out
    assert "rate after migration" in out


@pytest.mark.slow
def test_nat_traversal():
    out = run_example("nat_traversal.py", timeout=500.0)
    assert "hole punch" in out
    assert "URI-ladder fallback" in out
