"""Benchmark for spechtgb: cold batches of one workload, timed from outside.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. A run starts one batch after another, each in
a fresh interpreter (a closed loop with one caller and no threads), until the
next batch would end past --seconds; it always runs at least three. Every
batch draws its own inputs from (workload, seed, batch index). The outputs of
every batch are checked against known answers after the batches end.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the median
over the run's batches; slowest_item_s is the largest per-item median, where
an item is identified by workloads.item_key. --trace 1 runs every batch twice, untraced and then
traced with the same inputs, and reports the per-layer metrics: medians over
the traced batches, and trace.overhead_ratio, the median of traced wall time
over untraced wall time. The last stdout line is one JSON object; the line
before it records provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
SEED_HASHES_PATH = BENCH_DIR / "seed_hashes.json"
MIN_BATCHES = 3
WORKER_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """A batch could not be run or its result could not be read."""


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def launch(workload: str, size: str, seed: int, batch: int, trace: int) -> dict:
    """Run one batch in a fresh interpreter and return its result object."""
    launched = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--batch", str(batch),
           "--trace", str(trace), "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO_ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"batch {batch} of {workload} ran past {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"batch {batch} of {workload} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"batch {batch} of {workload} printed no result") from e


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """Run batches for about `seconds`, check every output, and aggregate."""
    import workloads  # imports the package, so only after main() found its source

    started = time.monotonic()
    timed: list[dict] = []
    traced: list[dict] = []
    while True:
        batch = len(timed)
        timed.append(launch(workload, size, seed, batch, 0))
        if trace:
            traced.append(launch(workload, size, seed, batch, 1))
        elapsed = time.monotonic() - started
        if len(timed) >= MIN_BATCHES and elapsed * (len(timed) + 1) / len(timed) > seconds:
            break

    known = workloads.KnownAnswers()
    attempted = failed = 0
    errors = []
    for rec in timed + traced:
        for item, summary, error in zip(rec["items"], rec["summaries"], rec["errors"]):
            attempted += 1
            if not known.correct(workload, item, summary):
                failed += 1
                errors.append({"item": item, "error": error})

    if trace:
        metrics = {name: _median([rec["layers"][name] for rec in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = _median(
            [t["wall_s"] / u["wall_s"] for t, u in zip(traced, timed)])
    else:
        item_times: dict[str, list[float]] = {}
        for rec in timed:
            for item, seconds in zip(rec["items"], rec["item_s"]):
                item_times.setdefault(workloads.item_key(workload, item), []).append(seconds)
        metrics = {
            "wall_s": _median([rec["wall_s"] for rec in timed]),
            "slowest_item_s": max(_median(times) for times in item_times.values()),
            "setup_s": _median([rec["setup_s"] for rec in timed]),
            "peak_rss_mb": _median([rec["peak_rss_mb"] for rec in timed]),
        }

    pinned = {}
    if size == "full" and SEED_HASHES_PATH.is_file():
        with open(SEED_HASHES_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh).get(workload, {})
    hash_mismatches = []
    for rec in timed + traced:
        if rec["determinism_hash"] is None:
            continue
        program_seed = str(rec["items"][0]["seed"])
        expected = pinned.get(program_seed)
        if expected != rec["determinism_hash"]:
            hash_mismatches.append({"program_seed": program_seed, "got": rec["determinism_hash"],
                                    "seed_commit": expected})

    provenance = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "trace": trace,
        "batches": len(timed),
        "failed_ratio": failed / attempted,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "determinism_hash_mismatches": hash_mismatches,
        "failed_items": errors[:5],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "provenance": provenance, "timed": timed, "traced": traced}


def main(argv=None) -> int:
    if not (REPO_ROOT / "src" / "spechtgb" / "__init__.py").is_file():
        print(f"error: no package source under {REPO_ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
