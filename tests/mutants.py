"""Run the suite against mutants of the source (the mutation matrix of ROADMAP item 12).

    python tests/mutants.py                           # every entry of MUTANTS
    python tests/mutants.py FILE OLD NEW [PYTEST_ARG ...]

For each mutant, copies the checkout's tracked files, as they are in the
working tree, into a temporary directory, replaces the one occurrence of OLD
in FILE (a path relative to the root) by NEW, and runs pytest there under the
Hypothesis profile `mutants` of tests/conftest.py, so a failing property
stops at its first counterexample instead of shrinking it. Each run gets a
3 GB address-space limit and a 20-minute timeout, so a mutant that
enumerates without bound ends in a MemoryError. Prints the tests that fail,
which kill the mutant, and the seconds the run took; the exit status is 1
when a mutant survives. Extra arguments go to pytest, for example a test
path to run a part of the suite only.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 3 << 30
TIMEOUT_S = 20 * 60
GROEBNER = "src/spechtgb/groebner.py"

# (name, file, old text, new text)
MUTANTS = (
    ("remainder not rescaled", GROEBNER,
     "for part in terms, remainder:", "for part in (terms,):"),
    ("no content division in row", GROEBNER,
     "elif lc * lc != 1 and (g := gcd(*terms.values())) != 1:", "elif False:"),
    ("c // lc without the divisibility test", GROEBNER,
     "                if c % lc:\n", "                if False:\n"),
    ("lc -1 tails not made monic first", GROEBNER,
     "            unit = lc * lc == 1\n", "            unit = lc == 1\n"),
)


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def killing_tests(file: str, old: str, new: str, pytest_args=()) -> list[str]:
    """The ids of the tests that fail on the mutant."""
    tracked = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                             check=True, text=True).stdout.split("\0")
    with tempfile.TemporaryDirectory() as tmp:
        for name in filter(None, tracked):
            (Path(tmp) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, Path(tmp) / name)
        target = Path(tmp) / file
        source = target.read_text()
        if source.count(old) != 1:
            raise SystemExit(f"OLD occurs {source.count(old)} times in {file}, not once")
        target.write_text(source.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *pytest_args],
            cwd=tmp, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
            timeout=TIMEOUT_S, preexec_fn=_limit)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if not failed and proc.returncode not in (0, 5):
        failed = [f"pytest exit status {proc.returncode}"]
    return failed


def main(argv: list[str]) -> int:
    if argv and len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    mutants = [("given", *argv[:3])] if argv else MUTANTS
    survived = 0
    for name, file, old, new in mutants:
        start = time.monotonic()
        failed = killing_tests(file, old, new, argv[3:])
        survived += not failed
        verdict = f"killed by {len(failed)}" if failed else "survived"
        print(f"{name}: {verdict} ({time.monotonic() - start:.0f} s)", flush=True)
        for test in failed:
            print("   ", test)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
