"""Every example script must run clean (deliverable b stays green)."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))

# fast arguments where a script accepts a size
_ARGS = {
    "linpack_migration.py": ["40"],
    "bitonic_treesort.py": ["500"],
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script), *_ARGS.get(script.name, [])],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"
    if script.name == "linpack_migration.py":
        # the matrix and vectors go out through the cast plan, and every
        # block is booked on the plan that ran it
        booked = re.search(
            r"of (\d+) blocks, (\d+) pointer-free .* and (\d+) walked", result.stdout
        )
        assert booked, result.stdout
        total, cast, walked = map(int, booked.groups())
        assert 0 < cast and cast + walked == total, result.stdout


def test_examples_exist():
    assert len(EXAMPLES) >= 5
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert "paper_figure1.py" in names
