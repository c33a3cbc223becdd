"""One cold batch of one workload, in a fresh interpreter.

Started by run.py with the launch time on the shared monotonic clock, so
set-up time covers interpreter start, package import and input generation.
Prints one JSON object on its last stdout line. The timed region holds only
the package calls; summaries for the known-answer checks and trace aggregation
come after it, with every wrapper removed.

Reported times are normalized to a fixed processor speed. Before every item
and after the last, the batch times a fixed reference computation written
here (Fraction polynomial products on plain dicts, the kind of work the
package does), with the garbage collector paused. Every time is scaled by
REFERENCE_S over the mean reference time of the batch. On a machine whose
cores are shared, the speed of a core drifts by up to 1.8x within seconds
and between minutes; the reference drifts with it, so the scaled times stay
steady while a change to the package still moves them. Raw times are kept in
the result as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SPANS_DIR = REPO_ROOT / ".bench_out"

# Reference time at the nominal speed: about its fastest steady value on a
# core of the 2-core 2.1 GHz Xeon VM the benchmark was defined on.
REFERENCE_S = 0.036


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _vandermonde(n: int) -> dict:
    p = {(0,) * n: Fraction(1)}
    for i in range(n):
        for j in range(i + 1, n):
            p = _dict_mul(p, {tuple(int(k == i) for k in range(n)): Fraction(1),
                              tuple(int(k == j) for k in range(n)): Fraction(-1)})
    return p


def reference_seconds(repeats: int = 12) -> float:
    """Time expansions of the 5-variable Vandermonde product with the garbage
    collector paused, so the package's heap does not slow the reference."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            _vandermonde(5)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full", choices=("full", "small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() in the parent just before the launch")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    items = workloads.make_items(args.workload, args.size, args.seed, args.batch)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, errors, durations, references = [], [], [], []
    setup_s = time.monotonic() - args.launched
    reference_seconds(1)  # let the interpreter specialize the reference code
    for idx, item in enumerate(items):
        references.append(reference_seconds())
        if tracer is not None:
            tracer.item = idx
        start = time.perf_counter()
        try:
            outputs.append(workloads.run_item(args.workload, item))
            errors.append(None)
        except Exception:
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        durations.append(time.perf_counter() - start)
    references.append(reference_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = REFERENCE_S * len(references) / sum(references)

    result = {
        "setup_s": setup_s * scale,
        "wall_s": sum(durations) * scale,
        "item_s": [d * scale for d in durations],
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_s, "item_s": durations, "reference_s": references},
        "items": items,
        "errors": errors,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(scale)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.size}.jsonl")
    result["summaries"] = [
        None if out is None else workloads.summarize(args.workload, item, out)
        for item, out in zip(items, outputs)
    ]
    result["determinism_hash"] = workloads.batch_hash(args.workload, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
