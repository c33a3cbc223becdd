"""The four workloads: seeded inputs, the timed call per item, and known answers.

Each workload puts a different layer under load (see README.md for the table):

- certify:   Specht expansion and S-pair certification of fixed generator sets;
- oracle:    the strata oracle, where Buchberger *completes* elimination bases;
- evaluate:  pointwise evaluation of expanded generators on sampled strata;
- enumerate: tableau enumeration behind ``spechtgb gens --mode standard``.

Inputs depend only on (workload, size, seed, batch). Every batch of a run draws
its own inputs, so a run's median averages over several draws and a seed that
happens to draw costly inputs does not move the result on its own. A workload
changes only what the program is asked, never the program.

Known answers are computed outside the timed region and outside any span, by
routes that do not reuse what they check: the oracle against Specht generators
plus Buchberger, and tableau generators against the hook-length formula and
the column-difference product written out here.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import spechtgb
from spechtgb import (
    SuiteConfig,
    determinism_hash,
    enumerate_upper_filters,
    filter_closure,
    filter_generators,
    filter_text,
    groebner_basis,
    lex_order,
    parse_filter_text,
    partitions_of,
    polynomial_text,
)

WORKLOADS = ("certify", "oracle", "evaluate", "enumerate")

# certify and evaluate pass a program seed to the package. Batch i takes it
# from a per-run permutation of range(PROGRAM_SEEDS), so a run of that many
# batches covers every one, and the seed commit's determinism hash is known
# for each (seed_hashes.json). The universal check's cost differs by up to 2x
# between suite seeds; drawn from 64, certify's wall_s spread 5.8% between
# runs, against 2.5% from 8.
PROGRAM_SEEDS = 8

CERTIFY_CHECKS = ("lexgb", "universal", "restricted", "containment", "finite_field", "engine")

# certify: largest n per check. lexgb and universal cost 5.3 s and 13.1 s at
# n=5 on the seed commit, too long for one batch; restricted and containment
# run at n=5 in 0.5 s and keep n=5 Specht expansion in the batch.
_CERTIFY_MAX_N = {
    "full": {"lexgb": 4, "universal": 4, "restricted": 5, "containment": 5,
             "finite_field": 4, "engine": 4},
    "small": {check: 3 for check in CERTIFY_CHECKS},
}

# oracle: every nonempty upper filter of n_upper, then the complements of the
# principal lower filters of the listed shapes. At full size these are the n=6
# complements whose oracle ends within 0.5 s on the seed commit. With [4,1,1]
# (1.4 s) a 25 s run held four batches, and that one item, always the slowest,
# spread 8.6% between runs; [3,2,1] (1.7 s), [2,2,2] (2.8 s), [1^6] (6.2 s),
# [2,2,1,1] (7.2 s), [3,1,1,1] (17 s) and [2,1,1,1,1] (24 s) are longer still.
_ORACLE = {
    "full": (5, 6, ((5, 1), (4, 2), (3, 3))),
    "small": (4, 5, ((4, 1), (3, 2))),
}

# evaluate: (n, samples per stratum) for one check_stratum_vanishing call
_EVALUATE = {"full": (6, 3), "small": (4, 2)}

# enumerate: (n, shapes per batch), drawn from the partitions of n with exactly
# three rows. There the n! filling scan dominates and costs about the same for
# every shape; taller shapes of 8 spend their time expanding Vandermonde-like
# products instead (4.5 s for [2,1^6], 7.6 s for [1^8]), and drawing from all
# shapes with at most three rows spread the run medians of wall_s by 7%.
_ENUMERATE = {"full": (8, 4), "small": (6, 2)}


def _program_seed(workload: str, seed: int, batch: int) -> int:
    order = random.Random(f"{workload}/{seed}").sample(range(PROGRAM_SEEDS), PROGRAM_SEEDS)
    return order[batch % PROGRAM_SEEDS]


def make_items(workload: str, size: str, seed: int, batch: int) -> list[dict]:
    """The JSON-able inputs of one batch, in the order they are run."""
    rng = random.Random(f"{workload}/{seed}/{batch}")
    if workload == "certify":
        program_seed = _program_seed(workload, seed, batch)
        return [{"check": check, "max_n": _CERTIFY_MAX_N[size][check], "seed": program_seed}
                for check in CERTIFY_CHECKS]
    if workload == "oracle":
        n_upper, n_principal, shapes = _ORACLE[size]
        filters = list(enumerate_upper_filters(n_upper))
        filters += [filter_closure(n_principal, [lam], "lower").complement() for lam in shapes]
        rng.shuffle(filters)
        return [{"n": g.n, "filter": filter_text(g)} for g in filters]
    if workload == "evaluate":
        n, samples = _EVALUATE[size]
        return [{"n": n, "samples": samples, "seed": _program_seed(workload, seed, batch)}]
    if workload == "enumerate":
        n, count = _ENUMERATE[size]
        pool = [lam for lam in partitions_of(n) if len(lam) == 3]
        return [{"shape": list(lam), "point": rng.sample(range(-20, 21), n)}
                for lam in rng.sample(pool, count)]
    raise ValueError(f"unknown workload {workload!r}")


def item_key(workload: str, item: dict) -> str:
    """What an item computes, apart from its seed: the same key in two batches
    means the same kind of work."""
    if workload == "certify":
        return item["check"]
    if workload == "oracle":
        return item["filter"]
    if workload == "evaluate":
        return f"vanishing n={item['n']}"
    if workload == "enumerate":
        return str(item["shape"])
    raise ValueError(f"unknown workload {workload!r}")


def run_item(workload: str, item: dict):
    """The timed call: exactly what a user of the package would run.

    Calls go through the package namespace, where a traced batch has put its
    wrappers."""
    if workload == "certify":
        return spechtgb.run_suite(SuiteConfig(checks=(item["check"],), max_n=item["max_n"],
                                              seed=item["seed"], include_controls=False))
    if workload == "oracle":
        return spechtgb.vanishing_ideal_oracle(parse_filter_text(item["filter"], item["n"]))
    if workload == "evaluate":
        return [spechtgb.check_stratum_vanishing(item["n"], samples=item["samples"],
                                                 seed=item["seed"])]
    if workload == "enumerate":
        return spechtgb.shape_generators(tuple(item["shape"]), mode="standard")
    raise ValueError(f"unknown workload {workload!r}")


def _evaluate_terms(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in terms.items():
        term = Fraction(coeff)
        for value, exp in zip(point, mono):
            term *= value ** exp
        total += term
    return total


def summarize(workload: str, item: dict, output) -> dict:
    """What the known-answer check needs from one item's output (untimed)."""
    if workload in ("certify", "evaluate"):
        return {"verdicts": [r.verdict for r in output]}
    if workload == "oracle":
        return {"basis": [polynomial_text(p) for p in output.generators]}
    if workload == "enumerate":
        return {"generators": [
            {"rows": [list(r) for r in g.tableau.rows],
             "value": str(_evaluate_terms(g.polynomial.terms, item["point"]))}
            for g in output
        ]}
    raise ValueError(f"unknown workload {workload!r}")


def batch_hash(workload: str, outputs: list) -> str | None:
    """The package's determinism hash over a batch's reports, sorted as run_suite sorts."""
    if workload not in ("certify", "evaluate"):
        return None
    reports = [r for out in outputs if out is not None for r in out]
    reports.sort(key=lambda r: (r.check_id, json.dumps(r.parameters, sort_keys=True)))
    return determinism_hash(reports)[:16]


def hook_length_count(shape) -> int:
    """Number of standard tableaux of the shape, by the hook-length formula."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= (part - j) + (columns[j] - i) - 1
    return math.factorial(sum(shape)) // hooks


def is_standard_tableau(rows, shape) -> bool:
    """Rows of the shape, filled with 1..n, increasing along rows and columns."""
    if [len(row) for row in rows] != list(shape):
        return False
    if sorted(e for row in rows for e in row) != list(range(1, sum(shape) + 1)):
        return False
    rows_ok = all(row[j] < row[j + 1] for row in rows for j in range(len(row) - 1))
    return rows_ok and all(upper[j] < lower[j] for upper, lower in zip(rows, rows[1:])
                           for j in range(len(lower)))


def column_difference_product(rows, point) -> int:
    """Product of x_lower - x_upper over every pair in a column of a standard
    tableau: its generator normalized to leading coefficient 1 under lex with
    x_n dominant, since each factor's leading term is then +x_lower."""
    value = 1
    width = len(rows[0])
    for c in range(width):
        column = [row[c] for row in rows if len(row) > c]
        for a in range(len(column)):
            for b in range(a + 1, len(column)):
                value *= point[column[b] - 1] - point[column[a] - 1]
    return value


class KnownAnswers:
    """Checks item summaries against answers computed by an independent route.

    Oracle answers are memoized per filter, so a run computes each once.
    """

    def __init__(self):
        self._oracle: dict[str, list[str]] = {}

    def oracle_expected(self, item: dict) -> list[str]:
        text = item["filter"]
        if text not in self._oracle:
            lower = parse_filter_text(text, item["n"]).complement()
            if not len(lower):
                self._oracle[text] = []
            else:
                gens = [g.polynomial for g in filter_generators(lower)]
                basis = groebner_basis(gens, lex_order(item["n"]))
                self._oracle[text] = [polynomial_text(p) for p in basis]
        return self._oracle[text]

    def correct(self, workload: str, item: dict, summary: dict | None) -> bool:
        if summary is None:
            return False
        if workload in ("certify", "evaluate"):
            return bool(summary["verdicts"]) and all(v == "pass" for v in summary["verdicts"])
        if workload == "oracle":
            return summary["basis"] == self.oracle_expected(item)
        if workload == "enumerate":
            gens = summary["generators"]
            distinct = {tuple(map(tuple, g["rows"])) for g in gens}
            if len(gens) != hook_length_count(item["shape"]) or len(distinct) != len(gens):
                return False
            return all(
                is_standard_tableau(g["rows"], item["shape"])
                and Fraction(g["value"]) == column_difference_product(g["rows"], item["point"])
                for g in gens
            )
        raise ValueError(f"unknown workload {workload!r}")
