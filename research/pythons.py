"""Run the output corpus check and tier-1 under every Python from 3.11 on.

From the repository root, with a Python 3.11 or later that has pytest and
hypothesis::

    python research/pythons.py

The interpreters are those under ``~/.pyenv/versions`` whose names read 3.11
or later, the oldest that ``requires-python`` admits. None of them needs
pytest: each runs with the site-packages of the interpreter running this
script on ``PYTHONPATH``, so nothing is installed.

Each interpreter runs ``tests/corpus.py --check`` and then tier-1 with
criterion 4 deselected (it fails by design: see ``tests/test_acceptance.py``).
One line per interpreter gives the corpus check's verdict and tier-1's
passed and failed counts. The exit status is 0 only if every run passed.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = Path.home() / ".pyenv" / "versions"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_04_dominance_grids"


def interpreters(versions: Path) -> list[tuple[tuple[int, ...], Path]]:
    """(version, python) for each interpreter under ``versions`` from 3.11 on, oldest first."""
    found = []
    for entry in versions.iterdir():
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", entry.name)
        python = entry / "bin" / "python"
        if match and python.exists():
            version = tuple(map(int, match.groups()))
            if version >= (3, 11):
                found.append((version, python))
    return sorted(found)


def counts(output: str) -> dict[str, int]:
    """The counts of pytest's last summary line, by outcome."""
    summary = output.strip().splitlines()[-1] if output.strip() else ""
    return {word: int(number) for number, word in re.findall(r"(\d+) (\w+)", summary)}


def run(python: Path, version: tuple[int, ...], lent: str) -> bool:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), lent])}
    corpus = subprocess.run(
        [str(python), "tests/corpus.py", "--check"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    verdict = (corpus.stdout.strip().splitlines() or [corpus.stderr.strip()])[-1]
    tier1 = subprocess.run(
        [str(python), "-m", "pytest", "-q", "-p", "no:cacheprovider", "--deselect", CRITERION_4],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    found = counts(tier1.stdout)
    failed = found.get("failed", 0) + found.get("error", 0) + found.get("errors", 0)
    name = ".".join(map(str, version))
    print(
        f"{name}: corpus check exit {corpus.returncode} ({verdict}); "
        f"tier-1 exit {tier1.returncode}, {found.get('passed', 0)} passed, {failed} failed",
        flush=True,
    )
    if tier1.returncode:
        failures = [line for line in tier1.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
        print("\n".join(f"  {line}" for line in failures) or tier1.stderr[-2000:], flush=True)
    return corpus.returncode == 0 and tier1.returncode == 0


def main() -> int:
    lent = sysconfig.get_paths()["purelib"]
    found = interpreters(VERSIONS)
    if not found:
        print(f"no Python 3.11 or later under {VERSIONS}", file=sys.stderr)
        return 1
    results = [run(python, version, lent) for version, python in found]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
