"""Every command line README.md and docs/TUTORIAL.md show still runs.

A line counts when it mentions ``python -m X`` or the ``wow-experiments``
console script, in a code block or in prose; a line ending in ``\\`` is
joined with the next one first.  For each command on such a line:

* ``importlib.util.find_spec`` finds the module ``X``;
* every ``--flag`` after the command, up to the next command on the line,
  appears in ``python -m X --help`` — or, for a subcommand parser, in
  ``python -m X <subcommand> --help``.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/TUTORIAL.md")
#: console scripts ``pyproject.toml`` installs -> the module they run
SCRIPTS = {"wow-experiments": "repro.experiments.run_all"}
COMMAND = re.compile(r"python3? -m ([\w.]+)|(wow-experiments)")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def command_lines() -> list[tuple[str, str]]:
    """``(doc:line, logical line)`` for every line that shows a command."""
    found = []
    for doc in DOCS:
        lines = (ROOT / doc).read_text().splitlines()
        i = 0
        while i < len(lines):
            start, line = i, lines[i]
            while line.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                line = line.rstrip()[:-1] + " " + lines[i].strip()
            if COMMAND.search(line):
                found.append((f"{doc}:{start + 1}", line))
            i += 1
    return found


def commands(line: str):
    """``(module, text up to the next command)`` per command on ``line``."""
    matches = list(COMMAND.finditer(line))
    for m, following in zip(matches, matches[1:] + [None]):
        module = m.group(1) or SCRIPTS[m.group(2)]
        end = following.start() if following else len(line)
        yield module, line[m.end():end]


@functools.lru_cache(maxsize=None)
def help_text(module: str, *subcommand: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *subcommand, "--help"], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _mentions(text: str, flag: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text) is not None


LINES = command_lines()


def test_both_documents_show_commands_and_continuations_are_joined():
    docs = {where.split(":")[0] for where, _ in LINES}
    assert docs == set(DOCS)
    assert len(LINES) >= 24
    # a flag that sits on a continuation line reaches its command
    assert any("--metrics-out churn-obs" in line and "--audit" in line
               for _, line in LINES)


@pytest.mark.parametrize("where,line", LINES, ids=[w for w, _ in LINES])
def test_command_names_a_real_module_and_real_flags(where, line):
    for module, rest in commands(line):
        assert importlib.util.find_spec(module) is not None, (where, module)
        top = help_text(module)
        subcommands = set()
        for choices in re.findall(r"\{([\w,-]+)\}", top):
            subcommands.update(choices.split(","))
        words = [w for w in rest.split() if w in subcommands]
        for flag in FLAG.findall(rest):
            if _mentions(top, flag):
                continue
            assert words and _mentions(help_text(module, words[0]), flag), (
                f"{where}: {flag} is not an option of python -m {module}")
