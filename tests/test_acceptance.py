"""Acceptance gate: eleven criteria, one printed verdict line each.

Every criterion is exact (no tolerances). Grids are the agreed desk
scales; seeds are pinned so reruns are bit-identical.
"""

from spechtgb import (
    GF,
    check_coefficient_descent,
    check_containment,
    check_engine,
    check_finite_field,
    check_lexgb,
    check_reduced,
    check_restricted,
    check_stratum_vanishing,
    check_universal,
    enumerate_lower_filters,
    enumerate_upper_filters,
    filter_closure,
    filter_generators,
    filter_text,
    groebner_basis,
    lex_order,
    partitions_of,
    standard_span_rank,
    tableaux,
    vanishing_ideal_oracle,
)

from oracles import hook_length_count, parse_polynomial

SEED = 2026


def _report(num, label, ok, detail=""):
    verdict = "pass" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"acceptance {num:2d} [{verdict}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_lex_basis_for_every_filter():
    failures = []
    count = 0
    for n in range(2, 6):
        for filt in enumerate_lower_filters(n):
            count += 1
            r = check_lexgb(filt)
            if r.verdict != "pass":
                failures.append((filter_text(filt), r.reason))
    _report(
        1,
        "generator sets are lex bases, n=2..5",
        not failures,
        f"{count} filters" if not failures else str(failures[:3]),
    )


def test_criterion_02_every_order_gives_a_basis():
    failures = []
    count = 0
    for n in range(2, 5):
        for filt in enumerate_lower_filters(n):
            count += 1
            r = check_universal(filt, seed=SEED)
            if r.verdict != "pass":
                failures.append((filter_text(filt), r.reason))
    _report(
        2,
        "bases under every monomial order, proved with three referee orders, n=2..4",
        not failures,
        f"{count} filters" if not failures else str(failures[:3]),
    )


def test_criterion_03_ideal_matches_strata_oracle():
    failures = []
    count = 0
    for n in range(2, 6):
        for filt in enumerate_lower_filters(n):
            count += 1
            r = check_reduced(filt)
            if r.verdict != "pass":
                failures.append((filter_text(filt), r.reason))
    _report(
        3,
        "generated ideal equals the vanishing-ideal oracle, n=2..5",
        not failures,
        f"{count} filters" if not failures else str(failures[:3]),
    )


def test_criterion_04_anchor_case_is_the_difference_product():
    n = 3
    order = lex_order(n)
    filt = filter_closure(n, [(1, 1, 1)], "lower")
    via_generators = groebner_basis(
        [g.polynomial for g in filter_generators(filt)], order
    )
    via_strata = list(vanishing_ideal_oracle(filt.complement()).generators)
    product = parse_polynomial("(x2 - x1)*(x3 - x1)*(x3 - x2)", n)
    expected = groebner_basis([product], order)
    ok = via_generators == expected == via_strata
    _report(
        4,
        "single-column ideal at n=3 is the full difference product, both routes",
        ok,
        "1 generator of degree 3" if ok else f"{via_generators} vs {via_strata}",
    )


def test_criterion_05_vanishing_splits_along_dominance():
    failures = []
    for n in range(2, 7):
        r = check_stratum_vanishing(n, samples=10, seed=SEED)
        if r.verdict != "pass":
            failures.append((n, r.reason))
    _report(
        5,
        "generators vanish exactly off the dominated strata, n=2..6",
        not failures,
        "10 points per stratum" if not failures else str(failures),
    )


def test_criterion_06_coefficients_descend_to_derived_filters():
    failures = []
    count = 0
    for n in range(3, 6):
        r = check_coefficient_descent(n)
        count += len(enumerate_upper_filters(n))
        if r.verdict != "pass":
            failures.append((n, r.reason))
    _report(
        6,
        "last-variable coefficients of members stay members one size down, n=3..5",
        not failures,
        f"{count} upper filters" if not failures else str(failures),
    )


def test_criterion_07_dominated_shapes_are_contained():
    failures = []
    for n in range(2, 7):
        r = check_containment(n, pair_budget=400_000)
        if r.verdict != "pass":
            failures.append((n, r.reason))
    _report(
        7,
        "ideals of dominated shapes land inside the dominating ideal, n=2..6",
        not failures,
        "all strict dominance pairs" if not failures else str(failures),
    )


def test_criterion_08_span_rank_is_the_standard_count():
    failures = []
    shapes = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            shapes += 1
            rank, count = standard_span_rank(lam)
            hook = hook_length_count(lam)
            enumerated = len(tableaux(lam, "standard"))
            if not (rank == count == hook == enumerated):
                failures.append((lam, rank, count, hook, enumerated))
    _report(
        8,
        "span rank = standard tableau count = hook-formula count, n<=6",
        not failures,
        f"{shapes} shapes" if not failures else str(failures[:3]),
    )


def test_criterion_09_standard_subset_suffices():
    failures = []
    shapes = 0
    for n in range(2, 6):
        for lam in partitions_of(n):
            shapes += 1
            r = check_restricted(lam)
            if r.verdict != "pass":
                failures.append((lam, r.reason))
    _report(
        9,
        "width-matched standard tableaux form a lex basis of the shape ideal, n<=5",
        not failures,
        f"{shapes} shapes" if not failures else str(failures[:3]),
    )


def test_criterion_10_everything_survives_mod_p():
    failures = []
    combos = 0
    for n in range(2, 5):
        for filt in enumerate_lower_filters(n):
            for p in (2, 3, 7):
                combos += 1
                lex_p = check_lexgb(filt, field=GF(p))
                univ_p = check_universal(filt, seed=SEED, field=GF(p))
                image = check_finite_field(filt, field=GF(p))
                for r in (lex_p, univ_p, image):
                    if r.verdict != "pass":
                        failures.append((filter_text(filt), p, r.check_id, r.reason))
    _report(
        10,
        "lex and every-order bases and reduced-basis images hold over F2, F3, F7, n<=4",
        not failures,
        f"{combos} filter-prime combos" if not failures else str(failures[:3]),
    )


def test_criterion_11_engine_self_consistency():
    r = check_engine(trials=100, seed=SEED)
    _report(
        11,
        "reduced bases invariant under generator order and the chain criterion",
        r.verdict == "pass",
        "100 randomized trials" if r.verdict == "pass" else str(r.reason),
    )
