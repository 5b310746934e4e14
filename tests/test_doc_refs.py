"""Every section a document cites exists, and every repository path a
document names in backticks exists.

Two checks:

- a ``DESIGN §N`` / ``DESIGN.md §N`` / ``INTERNALS §N`` /
  ``INTERNALS.md §N`` citation, in the code, the tests, the benchmarks,
  the examples and the prose documents, names a ``## N.`` heading of
  that file;
- an inline code span in the prose documents that names a path under
  ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or ``tools/``
  (or ``repro/``, which lives under ``src/``) names a file or directory
  that exists.

A bare ``§N`` is not checked: the paper's section numbers use the same
sign, so it is ambiguous.
"""

import glob
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the two numbered documents a citation can name
DOCS = {"DESIGN": ROOT / "DESIGN.md", "INTERNALS": ROOT / "docs" / "INTERNALS.md"}

#: prose documents: their citations and their backticked paths are
#: checked (the build-and-verify skill notes in the repository included)
PROSE = [
    "README.md",
    "DESIGN.md",
    "docs/INTERNALS.md",
    "docs/PORTING.md",
    "EXPERIMENTS.md",
] + [str(p.relative_to(ROOT)) for p in sorted(ROOT.glob(".*/skills/*/SKILL.md"))]

#: documents whose citations are checked, but not their paths (ROADMAP
#: names paths of planned work)
CITING_ONLY = ["ROADMAP.md"]

#: trees whose every text file's citations are checked
TREES = ["src", "tests", "benchmarks", "examples"]
TEXT_SUFFIXES = {".py", ".c", ".md", ".txt"}

#: ``DESIGN §7``, ``DESIGN.md §2``, ```docs/INTERNALS.md` §2 / §8``,
#: ``DESIGN §7–§14``, a line break before the sign: every number of a
#: run names a section
CITATION = re.compile(
    r"\b(DESIGN|INTERNALS)(?:\.md)?`?\s+§\s?\d+(?:\s*(?:–|-|/|,|and)\s*§\s?\d+)*"
)
HEADING = re.compile(r"^## (\d+)\.", re.MULTILINE)
FENCE = re.compile(r"^\s*```.*?^\s*```", re.MULTILINE | re.DOTALL)
CODE_SPAN = re.compile(r"`([^`]+)`")
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "examples/", "tools/", "repro/")


def _sections(doc: Path) -> set:
    return {int(n) for n in HEADING.findall(doc.read_text(encoding="utf-8"))}


def _citing_files():
    files = [ROOT / name for name in PROSE + CITING_ONLY]
    for tree in TREES:
        files += sorted(
            p
            for p in (ROOT / tree).rglob("*")
            if p.is_file()
            and p.suffix in TEXT_SUFFIXES
            and "__pycache__" not in p.parts
        )
    return files


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def dangling_citations():
    sections = {name: _sections(doc) for name, doc in DOCS.items()}
    bad = []
    for path in _citing_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in CITATION.finditer(text):
            cited = {int(n) for n in re.findall(r"§\s?(\d+)", m.group(0))}
            if not cited <= sections[m.group(1)]:
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{_rel(path)}:{line}: {m.group(0)}")
    return bad


def _expand_braces(token: str):
    m = re.search(r"\{([^{}]*)\}", token)
    if not m:
        return [token]
    out = []
    for alt in m.group(1).split(","):
        out += _expand_braces(token[: m.start()] + alt + token[m.end():])
    return out


def _exists(candidate: str) -> bool:
    if candidate.startswith("repro/"):
        candidate = "src/" + candidate
    if any(ch in candidate for ch in "*?["):
        return bool(glob.glob(str(ROOT / candidate)))
    if (ROOT / candidate).exists():
        return True
    # `tests/conftest.block_header`: an attribute of a module
    module, dot, _attr = candidate.rpartition(".")
    return bool(dot) and (ROOT / (module + ".py")).is_file()


def paths_in(text: str):
    """The repository paths the inline code spans of *text* name."""
    text = FENCE.sub("", text)
    for span in CODE_SPAN.findall(text):
        for token in span.split():
            token = token.strip("()[],;:'\"")
            if not token.startswith(PATH_ROOTS):
                continue
            yield token.split("::")[0].rstrip(".,;:)")


def missing_paths():
    bad = []
    for name in PROSE:
        text = (ROOT / name).read_text(encoding="utf-8")
        for token in paths_in(text):
            if not all(_exists(c) for c in _expand_braces(token)):
                bad.append(f"{name}: `{token}`")
    return bad


def test_the_numbered_documents_have_sections():
    for doc in DOCS.values():
        assert _sections(doc), f"{_rel(doc)} has no '## N.' headings"


def test_every_section_citation_resolves():
    assert dangling_citations() == []


def test_every_backticked_repo_path_exists():
    assert missing_paths() == []


@pytest.mark.parametrize(
    "text, found",
    [
        ("`tests/test_x.py::TestA::test_b[1]`", ["tests/test_x.py"]),
        ("see `repro/msr/wire.py`, and `src/repro/`.", ["repro/msr/wire.py", "src/repro/"]),
        ("`python3 tools/run_ci.py` (`--workload x`)", ["tools/run_ci.py"]),
        ("```\ntests/not_a_span.py\n```", []),
        ("`PYTHONPATH=src python -m pytest`", []),
    ],
)
def test_paths_in_reads_code_spans(text, found):
    assert list(paths_in(text)) == found


def test_the_checks_catch_what_they_exist_for():
    assert not _exists("tests/no_such_file.py")
    assert _exists("tests/conftest.block_header")
    assert _exists("repro/msr/wire.py")
    assert all(map(_exists, _expand_braces("tests/test_{doc_refs,no_abut}.py")))
    assert not all(map(_exists, _expand_braces("tests/test_{doc_refs,nope}.py")))
    cited = [m.group(0) for m in CITATION.finditer(
        "DESIGN.md §12 and INTERNALS §3; `docs/INTERNALS.md` §2 / §8, DESIGN §7–§14"
    )]
    assert cited == [
        "DESIGN.md §12",
        "INTERNALS §3",
        "INTERNALS.md` §2 / §8",
        "DESIGN §7–§14",
    ]
