"""Spans around the package's layer functions, installed from outside the package.

A span is (name, start, end, parent index, item id, info). Spans are kept in
memory while a batch runs and aggregated, and written out, after its timed
region. A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never overlap.

Each function is replaced in the module that defines it and in every package
module that imported it by name (``verify``, ``strata``, ``specht`` and the
package ``__init__``); otherwise a call from another layer would go around the
wrapper. ``Poly`` methods are replaced on the class, which every caller shares.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "spechtgb"


def _shape_arg(args, kwargs):
    return tuple(args[0] if args else kwargs["shape"])


def _mul_info(args, kwargs, result):
    a, b = args
    return {"term_pairs": len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)}


def _evaluate_info(args, kwargs, result):
    return {"terms": len(args[0].terms)}


def _tableaux_info(args, kwargs, result):
    return {"scanned": math.factorial(sum(_shape_arg(args, kwargs))), "kept": len(result)}


def _shape_generators_info(args, kwargs, result):
    field = kwargs.get("field")
    key = (_shape_arg(args, kwargs), kwargs.get("mode", "column_standard"),
           field.text() if field is not None else "Q")
    return {"key": repr(key), "kept": len(result)}


def _certify_info(args, kwargs, result):
    counts = result[1]["counts"]
    return {"pairs": counts["total"], "skipped": counts["coprime"] + counts["chain"]}


def _buchberger_info(args, kwargs, result):
    return dict(result[1])


def _intersection_info(args, kwargs, result):
    a, b = args
    if a.is_zero() or b.is_zero():
        return {"lifted_gens": 0}
    return {"lifted_gens": len(a.generators) + len(b.generators)}


def _oracle_info(args, kwargs, result):
    g = args[0]
    key = (g.n, sorted(g.members), kwargs.get("pair_budget"))
    return {"key": repr(key)}


# (span name, defining module, function name, info extractor)
FUNCTIONS = (
    ("combinatorics.tableaux", "combinatorics", "tableaux", _tableaux_info),
    ("combinatorics.set_partitions", "combinatorics", "set_partitions_of_type", None),
    ("specht.expand", "specht", "specht_polynomial", None),
    ("specht.shape_generators", "specht", "shape_generators", _shape_generators_info),
    ("groebner.certify", "groebner", "is_groebner_basis", _certify_info),
    ("groebner.buchberger", "groebner", "buchberger", _buchberger_info),
    ("groebner.normal_form", "groebner", "normal_form", None),
    ("groebner.reduce", "groebner", "reduce_groebner_basis", None),
    ("groebner.intersection", "groebner", "ideal_intersection", _intersection_info),
    ("strata.oracle", "strata", "vanishing_ideal_oracle", _oracle_info),
    ("strata.sample", "strata", "sample_stratum", None),
    ("verify.lexgb", "verify", "check_lexgb", None),
    ("verify.universal", "verify", "check_universal", None),
    ("verify.restricted", "verify", "check_restricted", None),
    ("verify.containment", "verify", "check_containment", None),
    ("verify.finite_field", "verify", "check_finite_field", None),
    ("verify.engine", "verify", "check_engine", None),
    ("verify.vanishing", "verify", "check_stratum_vanishing", None),
)

# (span name, Poly method, info extractor)
METHODS = (
    ("polyring.mul", "__mul__", _mul_info),
    ("polyring.evaluate", "evaluate", _evaluate_info),
)

# span name -> counters it sums, in report order
_COUNTERS = {
    "polyring.mul": ("term_pairs",),
    "polyring.evaluate": ("terms",),
    "combinatorics.tableaux": (),
    "combinatorics.set_partitions": (),
    "specht.expand": (),
    "specht.shape_generators": (),
    "groebner.certify": ("pairs",),
    "groebner.buchberger": ("pairs_processed", "skipped_coprime", "skipped_chain",
                            "zero_reductions", "basis_added"),
    "groebner.normal_form": (),
    "groebner.reduce": (),
    "groebner.intersection": ("lifted_gens",),
    "strata.oracle": (),
    "strata.sample": (),
}

CHECK_SPANS = tuple(name for name, module, _, _ in FUNCTIONS if module == "verify")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans for the wrapped functions between install() and uninstall()."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, kwargs, result) if info is not None and done else None
                spans[idx] = (name, start, end, parent, self.item, extra)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module_name, attr, info in FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        poly = sys.modules[f"{PACKAGE}.polyring"].Poly
        for name, attr, info in METHODS:
            original = poly.__dict__[attr]
            setattr(poly, attr, self._wrap(name, original, info))
            self._restore.append((poly, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, item, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item, "info": extra}) + "\n")

    def layer_metrics(self, scale: float) -> dict[str, float]:
        """Per-layer calls, self time and counters, summed over every span.

        Times are multiplied by scale, the batch's speed normalization."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        sums: dict = defaultdict(float)
        keys: dict = defaultdict(list)
        tableaux_kept_under = defaultdict(int)
        for idx, (name, start, end, parent, _, extra) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child_time[idx]) * scale
            total_s[name] += (end - start) * scale
            if extra:
                for k, v in extra.items():
                    if k == "key":
                        keys[name].append(v)
                    else:
                        sums[(name, k)] += v
            if name == "combinatorics.tableaux" and extra and parent >= 0:
                tableaux_kept_under[parent] += extra["kept"]
        enumerated = sum(kept for parent, kept in tableaux_kept_under.items()
                         if self.spans[parent][0] == "specht.shape_generators")

        out: dict[str, float] = {}
        for name, counters in _COUNTERS.items():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            for counter in counters:
                out[f"{name}.{counter}"] = sums[(name, counter)]
        tab = "combinatorics.tableaux"
        out[f"{tab}.fillings_scanned"] = sums[(tab, "scanned")]
        out[f"{tab}.yield_ratio"] = _ratio(sums[(tab, "kept")], sums[(tab, "scanned")])
        sg = "specht.shape_generators"
        out[f"{sg}.repeat_ratio"] = _ratio(len(keys[sg]) - len(set(keys[sg])), len(keys[sg]))
        out[f"{sg}.kept_ratio"] = _ratio(sums[(sg, "kept")], enumerated)
        cert = "groebner.certify"
        out[f"{cert}.skip_ratio"] = _ratio(sums[(cert, "skipped")], sums[(cert, "pairs")])
        bb = "groebner.buchberger"
        reductions = (sums[(bb, "pairs_processed")] - sums[(bb, "skipped_coprime")]
                      - sums[(bb, "skipped_chain")])
        out[f"{bb}.useful_ratio"] = _ratio(sums[(bb, "basis_added")], reductions)
        out["strata.oracle.distinct"] = len(set(keys["strata.oracle"]))
        for name in CHECK_SPANS:
            out[f"{name}.s"] = total_s[name]
        return out
