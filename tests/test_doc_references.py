"""Every file, module and section the documents in ``DOCS`` name exists.

``test_doc_commands.py`` checks the command lines; this file checks the
other references a reader follows:

* every backticked ``….py`` path (``:line`` or ``::test`` allowed after
  it) is a file, from the repo root or from ``src/repro/``; a bare
  basename may be any file of that name under ``src/``, ``tests/``,
  ``benchmarks/`` or ``examples/``;
* every backticked ``repro.x[.y]`` imports, and the rest of the dotted
  name resolves as attributes;
* every backticked call of a codec function, ``wire.<name>(`` or
  ``codec.<name>(``, names an attribute of ``repro.wire`` or
  ``repro.wire.codec`` (a metric such as ``wire.decode_error`` is no
  call, so it is not read as one);
* every backticked UPPER_SNAKE name (``READ_BATCH``, ``_RHDR``,
  ``NearConnectionOverlord.REANNOUNCE_MAX``) is assigned or imported
  somewhere under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``;
* every backticked ``Class.member`` whose class is defined under
  ``src/`` names a member that class or one of its bases defines or
  assigns (``UdpTransport._read_ready``, ``IpopRouter.virtual_ip``), and
  no span names a member in ``RETIRED`` bare;
* every ``DESIGN.md §N[.M]`` citation in ``src/``, ``tests/`` and
  ``DOCS``, and every bare ``§N[.M]`` inside DESIGN.md, names a heading
  of DESIGN.md.

``results/ledger/*.md``, CHANGES.md and ROADMAP.md are dated records of
what was true when they were written, so none of them is in ``DOCS``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from tests.test_doc_commands import DOCS

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "examples")

SPAN = re.compile(r"`([^`\n]+)`")
PY_PATH = re.compile(r"([\w./-]+\.py)(?::\d+(?:[–-]\d+)?|::(\w+))?")
MODULE = re.compile(r"repro(?:\.\w+)+")
#: a call of a codec function by its short module name
CALL = re.compile(r"(?<![\w.])(wire|codec)\.(\w+)\(")
CALLED = {"wire": "repro.wire", "codec": "repro.wire.codec"}
#: a constant's name: capitals and digits with an underscore inside or in
#: front (not after ``/``, which abbreviates a pair: ``_ADDR_ENC/_DEC``)
CONSTANT = re.compile(
    r"(?<![\w/])(_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+|_[A-Z][A-Z0-9]+)(?!\w)")
CITATION = re.compile(r"DESIGN\.md\s+(§[\d.]+(?:(?:,\s*|\s+and\s+)§[\d.]+)*)")
SECTION = re.compile(r"§(\d+(?:\.\d+)*)")
#: a bare ``§N`` in DESIGN.md that is not one of its own sections
FOREIGN = re.compile(r"RFC \d+\s$")
HEADING = re.compile(r"#{2,4} (\d+(?:\.\d+)*)\.? ")
#: ``Class.member``: a capitalised name, a dot, a name
MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")
#: members folded away whose bare name still reads as theirs (other
#: classes keep a ``_transmit``: name those with their class)
RETIRED = ("_transmit", "inspect_traffic", "_on_icmp")


def backticked(doc: str) -> list[tuple[str, str]]:
    """``(doc:line, span text)`` for every backticked span of ``doc``."""
    spans = []
    for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        spans += [(f"{doc}:{number}", m.group(1)) for m in SPAN.finditer(line)]
    return spans


@functools.lru_cache(maxsize=None)
def basenames() -> frozenset[str]:
    return frozenset(p.name for top in SEARCHED
                     for p in (ROOT / top).rglob("*.py"))


def missing_path(token: str) -> str | None:
    """Why ``token`` (a ``….py`` path, maybe with a suffix) does not
    resolve, or None."""
    m = PY_PATH.fullmatch(token)
    if m is None:
        return None
    path, test = m.group(1), m.group(2)
    if "/" in path:
        found = [ROOT / path, ROOT / "src" / "repro" / path]
        found = [p for p in found if p.is_file()]
        if not found:
            return f"no file {path}"
        if test and not re.search(rf"^\s*(?:def|class) {test}\b",
                                  found[0].read_text(), re.M):
            return f"{path} has no {test}"
    elif path not in basenames():
        return f"no file named {path} under {', '.join(SEARCHED)}"
    return None


def missing_name(dotted: str) -> str | None:
    """Why ``repro.x.y`` does not import or resolve, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for depth, attr in enumerate(parts[cut:], cut):
            if not hasattr(obj, attr):
                return f"{'.'.join(parts[:depth])} has no {attr}"
            obj = getattr(obj, attr)
        return None
    return f"no module {parts[0]}"


def missing_call(span: str) -> str | None:
    """Why a ``wire.<name>(`` / ``codec.<name>(`` call in ``span`` does
    not resolve, or None."""
    for m in CALL.finditer(span):
        if why := missing_name(f"{CALLED[m.group(1)]}.{m.group(2)}"):
            return why
    return None


@functools.lru_cache(maxsize=None)
def bound_names() -> frozenset[str]:
    """Every name a module under ``SEARCHED`` assigns (to a variable or
    an attribute) or imports."""
    names = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update((a.asname or a.name).rpartition(".")[2]
                                 for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Store):
                    names.add(node.attr)
    return frozenset(names)


def missing_constants(span: str) -> list[str]:
    """The UPPER_SNAKE names in ``span`` that nothing assigns or imports."""
    return [name for name in CONSTANT.findall(span)
            if name not in bound_names()]


def path_problems(doc: str) -> list[str]:
    return [f"{where}: {why}" for where, span in backticked(doc)
            for token in span.split()
            if (why := missing_path(token))]


def name_problems(doc: str) -> list[str]:
    return [f"{where}: {why}" for where, span in backticked(doc)
            if (m := MODULE.match(span)) and (why := missing_name(m.group()))]


def call_problems(doc: str) -> list[str]:
    return [f"{where}: {why}" for where, span in backticked(doc)
            if (why := missing_call(span))]


@functools.lru_cache(maxsize=None)
def src_classes() -> dict[str, list[tuple[frozenset, list[str]]]]:
    """Class name -> ``(members, base names)`` for every class defined
    under ``src/``: what its body defines or assigns, ``self.<name>``
    stores and ``__slots__`` strings."""
    classes: dict[str, list] = {}
    for path in (ROOT / "src").rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            members = set()
            for node in ast.walk(cls):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    members.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                        node.ctx, ast.Store):
                    members.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    members.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    members.add(node.value)
            bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            classes.setdefault(cls.name, []).append((frozenset(members),
                                                     bases))
    return classes


def has_member(cls: str, member: str) -> bool:
    return any(member in members or any(has_member(b, member)
                                        for b in bases if b != cls)
               for members, bases in src_classes().get(cls, ()))


def missing_members(span: str) -> list[str]:
    """The ``Class.member`` names in ``span`` whose class (defined under
    ``src/``) has no such member, and the ``RETIRED`` names it uses bare
    or on an instance (``node.inspect_traffic``)."""
    missing = [m.group() for m in MEMBER.finditer(span)
               if m.group(1) in src_classes()
               and not has_member(m.group(1), m.group(2))]
    for token in re.findall(r"[\w.]+", span):
        *owner, name = token.split(".")
        if name in RETIRED and not (owner and owner[-1][:1].isupper()):
            missing.append(name)
    return missing


def member_problems(doc: str) -> list[str]:
    return [f"{where}: {name} names no member of today's code"
            for where, span in backticked(doc)
            for name in missing_members(span)]


def constant_problems(doc: str) -> list[str]:
    return [f"{where}: nothing assigns or imports {name}"
            for where, span in backticked(doc)
            for name in missing_constants(span)]


@functools.lru_cache(maxsize=None)
def design_sections() -> frozenset[str]:
    return frozenset(m.group(1) for line in
                     (ROOT / "DESIGN.md").read_text().splitlines()
                     if (m := HEADING.match(line)))


def cited_sections(text: str, bare: bool = False) -> list[str]:
    """The section numbers ``text`` cites as ``DESIGN.md §N``; with
    ``bare``, also every ``§N`` not preceded by an RFC number."""
    cited = [n for m in CITATION.finditer(text)
             for n in SECTION.findall(m.group(1))]
    if bare:
        cited += [m.group(1) for m in SECTION.finditer(text)
                  if not FOREIGN.search(text[max(0, m.start() - 12):m.start()])]
    return cited


def citing_files() -> list[Path]:
    """DOCS, ``src/`` and ``tests/``, but not this file's own examples."""
    files = [ROOT / doc for doc in DOCS]
    for top in ("src", "tests"):
        files += sorted((ROOT / top).rglob("*.py"))
    return [f for f in files if f != Path(__file__).resolve()]


def test_the_collectors_find_references():
    spans = [span for doc in DOCS for _, span in backticked(doc)]
    assert sum(bool(PY_PATH.fullmatch(t)) for s in spans for t in s.split()) >= 30
    assert sum(bool(MODULE.match(s)) for s in spans) >= 10
    assert sum(bool(CALL.search(s)) for s in spans) >= 5
    assert len({n for s in spans for n in CONSTANT.findall(s)}) >= 10
    cited = [n for f in citing_files() for n in cited_sections(f.read_text())]
    assert len(cited) >= 10
    assert len(design_sections()) >= 10


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_resolve(doc):
    assert path_problems(doc) == []


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_import(doc):
    assert name_problems(doc) == []


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_codec_calls_resolve(doc):
    assert call_problems(doc) == []


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_constants_are_defined(doc):
    assert constant_problems(doc) == []


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_members_exist(doc):
    assert member_problems(doc) == []


def test_design_section_citations_name_existing_headings():
    sections = design_sections()
    problems = [f"{f.relative_to(ROOT)}: §{n}" for f in citing_files()
                for n in cited_sections(f.read_text(),
                                        bare=f.name == "DESIGN.md")
                if n not in sections]
    assert problems == []


@pytest.mark.parametrize("token,resolves", [
    ("tests/sim/test_shards.py", False),
    ("test_sweep_wheel.py", False),
    ("tests/test_doc_references.py::test_backticked_paths_resolve", True),
    ("tests/test_doc_references.py::test_no_such_test", False),
    ("brunet/node.py:17", True),
    ("node.py", True),
])
def test_path_check_catches_a_missing_file(token, resolves):
    assert (missing_path(token) is None) is resolves


@pytest.mark.parametrize("dotted,resolves", [
    ("repro.brunet.node.BrunetNode", True),
    ("repro.wire", True),
    ("repro.sim.shards", False),
    ("repro.brunet.messages.next_token", False),
])
def test_name_check_catches_a_missing_name(dotted, resolves):
    assert (missing_name(dotted) is None) is resolves


@pytest.mark.parametrize("span,resolves", [
    ("wire.frame_view(buf, mine)", True),
    ("codec.patch_forward(buf, view, mine)", True),
    ("wire.transit_view(buf, mine)", False),
    ("codec.ping_view(buf)", False),
    ("wire.decode_error", True),
])
def test_call_check_catches_a_removed_function(span, resolves):
    assert (missing_call(span) is None) is resolves


@pytest.mark.parametrize("span,missing", [
    ("READ_BATCH = 64", []),
    ("NearConnectionOverlord.REANNOUNCE_MAX", []),
    ("_ADDR_ENC/_DEC", []),
    ("_RHDR", []),
    ("codec.BYTE_PATH_TAGS", ["BYTE_PATH_TAGS"]),
    ("(`_NO_SUCH_CACHE`, MTU)", ["_NO_SUCH_CACHE"]),
    ("wire.decode_error", []),
])
def test_constant_check_catches_a_removed_name(span, missing):
    assert missing_constants(span) == missing


@pytest.mark.parametrize("span,missing", [
    ("UdpTransport._read_ready", []),
    ("UdpTransport._on_datagram", ["UdpTransport._on_datagram"]),
    ("IpopRouter._transmit / _on_encap", ["IpopRouter._transmit"]),
    ("`_transmit`", ["_transmit"]),
    ("VtcpSocket._transmit", []),
    ("ShortcutConnectionOverlord.kick", []),         # from its base
    ("RealtimeKernel.now", []),
    ("node.inspect_traffic(dest)", ["inspect_traffic"]),
    ("IpEncap.payload", []),
    ("IpEncap.inner", ["IpEncap.inner"]),
    ("BrunetConfig.wire_mode", []),
    ("Simulator.run(until=t)", []),
])
def test_member_check_catches_a_folded_member(span, missing):
    assert missing_members(span) == missing


def test_citation_check_reads_lists_and_skips_rfc_sections():
    assert cited_sections("(DESIGN.md §9.1, §16.2) and DESIGN.md §12.") == [
        "9.1", "16.2", "12"]
    assert cited_sections("RFC 5681 §4.2; see §3.1", bare=True) == ["3.1"]
    assert cited_sections("(RFC 5681\n§4.2)", bare=True) == []
