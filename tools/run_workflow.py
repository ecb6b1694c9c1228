"""Run the `run:` steps of .github/workflows/tier1.yml locally.

Every step that has a `run:` block, except `Install`, runs as written in one
temporary copy of the checkout (the working tree without .git and caches),
in order, under GitHub's default shell `bash --noprofile --norc -eo pipefail`.
Each step's output streams through; a summary of each step's name, exit code
and seconds follows. Unlike GitHub, a failing step does not stop the later
ones. The script exits 1 if any step failed.

    python tools/run_workflow.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SKIPPED = {"Install"}
SHELL = ["bash", "--noprofile", "--norc", "-eo", "pipefail"]
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def run_steps(workflow: dict, workdir: Path) -> list:
    results = []
    for job in workflow["jobs"].values():
        for i, step in enumerate(job["steps"]):
            if "run" not in step or step.get("name") in SKIPPED:
                continue
            name = step.get("name", f"step {i}")
            script = workdir.parent / f"step{i}.sh"
            script.write_text(step["run"])
            print(f"::: {name}", flush=True)
            start = time.perf_counter()
            code = subprocess.run(SHELL + [str(script)], cwd=workdir).returncode
            results.append((name, code, time.perf_counter() - start))
    return results


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    with tempfile.TemporaryDirectory(prefix="tier1-") as tmp:
        workdir = Path(tmp) / "checkout"
        shutil.copytree(ROOT, workdir, ignore=NOT_COPIED)
        results = run_steps(workflow, workdir)
    width = max(len(name) for name, _, _ in results)
    print(f"\n{'step':<{width}}  exit  seconds")
    for name, code, seconds in results:
        print(f"{name:<{width}}  {code:>4}  {seconds:7.1f}")
    return 1 if any(code for _, code, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
