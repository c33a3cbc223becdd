"""The pinned determinism hashes: each row is the arguments of one
`spechtgb verify` run and the whole last line it prints. Any change in what
a check reports moves the hash; a re-pin edits this table and nothing else.

The Tier-1 tests run PINS in-process. CI runs every row of PINS and
CI_ONLY_PINS, each in a fresh process:

    PYTHONPATH=src python tests/pins.py

which prints each row's arguments, last line and wall time (start-up
included), and exits 1 naming every row that differs; a row that runs
past TIMEOUT_S is stopped and differs. Standard library
only: the CI job that runs it installs nothing.
"""

import subprocess
import sys
import time

PINS = (
    # the example line of README "Determinism"
    ("all --max-n 4 --seed 7",
     "89 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:b82235559a68b95f]"),
    # every lower filter up to n=5
    ("all --max-n 5 --seed 7",
     "120 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:748db8656604b34c]"),
    # the F_p grids: lexgb and universal meet the same (filter, p)
    # certificate, finite_field the rational one, and the Groebner work runs
    # mod-p arithmetic; reduced, vanishing and descent report the 16 skipped rows
    ("all --max-n 4 --seed 3 --field F7",
     "53 pass, 0 fail, 16 skipped, 0 error  [determinism sha256:25af5499202bbfd7]"),
    ("all --max-n 4 --seed 3 --field F2",
     "53 pass, 0 fail, 16 skipped, 0 error  [determinism sha256:a1cf16e774637699]"),
    ("all --max-n 4 --seed 3 --field F3",
     "53 pass, 0 fail, 16 skipped, 0 error  [determinism sha256:4fd825bebf344044]"),
    # every principal filter of 6
    ("lexgb --n 6 --seed 7",
     "11 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:917780d344e5417a]"),
    # every principal filter of 6, with the referee orders of seed 7
    ("universal --n 6 --seed 7",
     "11 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:658142c6218b0fc1]"),
    # the column-standard generators of every shape of 6, evaluated on
    # sampled points of every stratum
    ("vanishing --n 6 --seed 7",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:0d72ad2195bc6558]"),
)

# left out of the Tier-1 tests for their run time
CI_ONLY_PINS = (
    # the two checks that run the strata oracle at n=6
    ("reduced --n 6 --seed 7",
     "11 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:fc5aceb7f7f32f41]"),
    ("descent --n 6",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:8a2807bbd21fb873]"),
    # the two checks that complete C(lam), the reduced lex basis of each
    # shape's own generators, on every shape of 6 and of 7
    ("restricted --n 6 --seed 7",
     "11 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:217fa91a62a26427]"),
    ("containment --n 6 --seed 7",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:f6e7b243ce6e7040]"),
    ("restricted --n 7 --seed 7",
     "15 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:e3524622975462c8]"),
    ("containment --n 7 --seed 7",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:81c3ab53d9fc354a]"),
    # every shape of 7
    ("vanishing --n 7 --seed 7",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:0a5788b6de2069ad]"),
    # every principal filter of 7, about half a minute each on a 2-core
    # Xeon VM: universal 23-35 s, lexgb 27.5-31.8 s
    ("universal --n 7 --seed 7",
     "15 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:ea5666dc5437504a]"),
    ("lexgb --n 7 --seed 7",
     "15 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:58a2a5999cfdac59]"),
    # finite_field's every-prime claim past its grid's max_n of 4: about 2 s on
    # a 2-core Xeon VM, start-up included
    ("finite_field --n 7 --filter lower<=[3,2,2] --field F2",
     "1 pass, 0 fail, 0 skipped, 0 error  [determinism sha256:a1b0f4efdd6abe30]"),
)

# seconds one row may run, about five times the slowest row (35 s), so that a
# row that hangs is named and the rows after it still run
TIMEOUT_S = 180


def last_line(args: str) -> str:
    """The last line `spechtgb verify <args>` prints in a fresh process, or
    of its error output when it prints nothing, or a timeout note when the
    run outlasts TIMEOUT_S. A pinned line counts no fail and no error, so
    only a run that exits 0 can print it."""
    try:
        done = subprocess.run([sys.executable, "-m", "spechtgb", "verify", *args.split()],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or done.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit {done.returncode}, no output"


def main() -> int:
    differ = []
    for args, expected in PINS + CI_ONLY_PINS:
        started = time.perf_counter()
        got = last_line(args)
        print(f"verify {args}  ({time.perf_counter() - started:.1f} s)\n  {got}", flush=True)
        if got != expected:
            print(f"  expected {expected}", flush=True)
            differ.append(args)
    for args in differ:
        print(f"pin differs: verify {args}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
