#!/usr/bin/env python3
"""Run the CI workflow's own steps locally, in order, and report each.

    python3 tools/run_ci.py [WORKFLOW]     # default .github/workflows/ci.yml

The workflow file is the script: every step's ``run:`` text is executed
as written, with ``bash -eo pipefail`` (what GitHub Actions uses), in
file order, so the local run and CI cannot drift apart.  The steps run
inside a throwaway copy of the working tree's tracked (and unignored
new) files, so the checkout stays clean.  ``uses:`` steps (checkout,
setup-python) are reported as skipped: the copy is the checkout and the
interpreter is the one on ``PATH``, whatever the workflow's matrix says.

Nothing is downloaded: pip runs with ``PIP_NO_INDEX`` set, so an install
step that the installed packages cannot satisfy fails (and is reported
as failed) instead of fetching anything.  Every step runs, a failed one
included; the exit status is 1 if any step failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

#: what every step's environment adds: pip may not reach an index
OFFLINE = {
    "PIP_NO_INDEX": "1",
    "PIP_DISABLE_PIP_VERSION_CHECK": "1",
    "PIP_NO_INPUT": "1",
}


def tree_copy(dest: Path) -> None:
    """Copy the files git tracks, or would track, into *dest*."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is not
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_steps(workflow: Path, workdir: Path) -> bool:
    """Run every job's steps of *workflow* in *workdir*; True if all passed."""
    spec = yaml.safe_load(workflow.read_text())
    env = {**os.environ, **OFFLINE}
    ok = True
    for job_name, job in spec["jobs"].items():
        for number, step in enumerate(job["steps"], start=1):
            name = step.get("name") or step.get("uses") or f"step {number}"
            if "run" not in step:
                print(f"SKIP        {job_name} / {name} (uses: {step.get('uses')})")
                continue
            print(f"...         {job_name} / {name}", flush=True)
            t0 = time.perf_counter()
            done = subprocess.run(
                ["bash", "-eo", "pipefail", "-c", step["run"]],
                cwd=workdir, env=env,
            )
            seconds = time.perf_counter() - t0
            verdict = "PASS" if done.returncode == 0 else f"FAIL({done.returncode})"
            print(f"{verdict:8s}{seconds:6.1f}s {job_name} / {name}", flush=True)
            ok = ok and done.returncode == 0
    return ok


def main(argv: list[str]) -> int:
    workflow = Path(argv[0]) if argv else ROOT / ".github" / "workflows" / "ci.yml"
    workdir = Path(tempfile.mkdtemp(prefix="run_ci-"))
    try:
        tree_copy(workdir)
        ok = run_steps(workflow.resolve(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all steps passed" if ok else "some steps FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
