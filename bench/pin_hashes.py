"""Record the determinism hash of every program seed of certify and evaluate.

    python3 bench/pin_hashes.py > bench/seed_hashes.json

run.py compares each batch's hash with this table and reports mismatches
beside the metrics. The table in the repository was written on the commit
that added the benchmark; the hashed payloads include engine counters such as
pair_counts, so a change to them shows as a mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402


def pinned_hashes(workload: str) -> dict[str, str]:
    out = {}
    for program_seed in range(workloads.PROGRAM_SEEDS):
        items = [dict(item, seed=program_seed)
                 for item in workloads.make_items(workload, "full", 0, 0)]
        outputs = [workloads.run_item(workload, item) for item in items]
        out[str(program_seed)] = workloads.batch_hash(workload, outputs)
    return out


if __name__ == "__main__":
    table = {w: pinned_hashes(w) for w in ("certify", "evaluate")}
    print(json.dumps(table, indent=1, sort_keys=True))
