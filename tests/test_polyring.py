"""Sparse polynomial arithmetic, monomial orders, text syntax."""

import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtgb import (
    GF,
    MAX_VARS,
    MonomialOrder,
    Poly,
    QQ,
    coefficients_in_last_variable,
    evaluations,
    leading_term,
    lex_order,
    parse_field,
    parse_order,
    polynomial_text,
)

from oracles import (
    as_fractions,
    eval_poly,
    parse_polynomial,
    poly_add,
    poly_mul,
    term_product,
)


def monomials(nvars):
    return st.tuples(*[st.integers(0, 4)] * nvars)


def rationals():
    return st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 4)
    )


def mixed_coefficients():
    # plain ints, reduced Fractions, and integral Fractions such as 4/2
    return st.one_of(
        st.integers(-6, 6),
        rationals(),
        st.builds(lambda k: Fraction(2 * k, 2), st.integers(-6, 6)),
    )


def assert_canonical(terms):
    """Q coefficients are ints exactly when integral, never 0, never a bool."""
    for c in terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def polys(nvars, field=QQ):
    return st.dictionaries(monomials(nvars), rationals(), max_size=6).map(
        lambda d: Poly(nvars, field, d)
    )


def orders(nvars):
    rank = st.permutations(list(range(1, nvars + 1)))
    plain = st.tuples(st.sampled_from(["lex", "grlex", "grevlex"]), rank).map(
        lambda kr: MonomialOrder(kr[0], nvars, kr[1])
    )
    weighted = st.tuples(
        rank,
        st.lists(
            st.fractions(min_value=Fraction(1, 3), max_value=4),
            min_size=nvars,
            max_size=nvars,
        ),
    ).map(lambda rw: MonomialOrder("weight", nvars, rw[0], rw[1]))
    return st.one_of(plain, weighted)


class TestRingAxioms:
    @settings(max_examples=60)
    @given(polys(3), polys(3), polys(3))
    def test_add_and_mul_laws(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=40)
    @given(polys(3))
    def test_identities_and_inverses(self, f):
        zero = Poly.zero(3)
        one = Poly.constant(1, 3)
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert f * zero == zero
        assert -(-f) == f

    @settings(max_examples=40)
    @given(polys(2), st.integers(0, 4))
    def test_pow_matches_repeated_product(self, f, e):
        expected = Poly.constant(1, 2)
        for _ in range(e):
            expected = expected * f
        assert f**e == expected

    @settings(max_examples=40)
    @given(polys(3), polys(3), st.lists(rationals(), min_size=3, max_size=3))
    def test_evaluate_is_a_ring_map(self, f, g, point):
        pt = tuple(point)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert f.evaluate(pt) == eval_poly(f.terms, pt)

    def test_scalar_coercion(self):
        x1 = Poly.variable(1, 2)
        assert 2 * x1 - x1 == x1
        assert (x1 + Fraction(1, 2)) * 2 == 2 * x1 + 1
        assert x1 * 0 == Poly.zero(2)

    def test_cross_ring_operations_rejected(self):
        with pytest.raises(ValueError):
            Poly.variable(1, 2) + Poly.variable(1, 3)
        with pytest.raises(ValueError):
            Poly.variable(1, 2, QQ) + Poly.variable(1, 2, GF(5))


class TestFiniteFields:
    def test_arithmetic_mod_p(self):
        F = GF(7)
        assert F.coerce(10) == 3
        assert F.inv(3) == 5  # 3*5 = 15 = 1 mod 7
        assert F.coerce(Fraction(1, 2)) == 4  # 2*4 = 1 mod 7
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    def test_poly_collapse_mod_p(self):
        f = parse_polynomial("3*x1 + 4*x1", 1, GF(7))
        assert not f
        assert f == Poly.zero(1, GF(7))

    def test_field_text_roundtrip(self):
        assert parse_field("Q") == QQ
        assert parse_field("F7") == GF(7)
        assert parse_field(GF(3).text()) == GF(3)
        with pytest.raises(ValueError):
            parse_field("R")


class TestMonomialOrders:
    def test_ranking_convention(self):
        # ranking lists variables ascending: the last entry is most significant
        order = lex_order(3)
        assert leading_term(
            parse_polynomial("x1^5 + x3", 3), order
        ) == ((0, 0, 1), Fraction(1))
        reranked = lex_order(3, [3, 2, 1])
        assert leading_term(
            parse_polynomial("x1 + x3^5", 3), reranked
        ) == ((1, 0, 0), Fraction(1))

    def test_grevlex_differs_from_grlex(self):
        order_a = MonomialOrder("grlex", 3)
        order_b = MonomialOrder("grevlex", 3)
        # x1*x3 vs x2^2: same degree; grlex looks at x3 first, grevlex
        # discards the smallest-variable exponent first
        a, b = (1, 0, 1), (0, 2, 0)
        assert order_a.key(a) > order_a.key(b)
        assert order_b.key(a) < order_b.key(b)

    @settings(max_examples=60)
    @given(orders(3), monomials(3), monomials(3), monomials(3))
    def test_order_axioms(self, order, a, b, c):
        # total, antisymmetric, translation invariant, 1 is minimal
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        ac = tuple(x + z for x, z in zip(a, c))
        bc = tuple(y + z for y, z in zip(b, c))
        assert (order.key(ac) < order.key(bc)) == (ka < kb)
        assert ka >= order.key((0, 0, 0))

    @settings(max_examples=30)
    @given(orders(4))
    def test_text_roundtrip(self, order):
        assert parse_order(order.text(), 4) == order

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialOrder("lex", 3, [1, 1, 2])
        with pytest.raises(ValueError):
            MonomialOrder("weight", 2, None, [1, -1])
        with pytest.raises(ValueError):
            MonomialOrder("lex", MAX_VARS + 1)
        with pytest.raises(ValueError):
            parse_order("alpha:1,2", 2)


class TestTextSyntax:
    """polynomial_text, and the fixture parser the tests read it back with."""

    def test_parse_examples(self):
        f = parse_polynomial("x1^2*x2 - 3/4*x3 + 2", 3)
        assert f.terms == {
            (2, 1, 0): Fraction(1),
            (0, 0, 1): Fraction(-3, 4),
            (0, 0, 0): Fraction(2),
        }
        g = parse_polynomial("(x1 - x2)*(x1 + x2)", 3)
        assert g == parse_polynomial("x1^2 - x2^2", 3)
        assert parse_polynomial("-x1^2", 2).terms == {(2, 0): Fraction(-1)}
        assert parse_polynomial("0", 2) == Poly.zero(2)

    @settings(max_examples=60)
    @given(polys(3))
    def test_print_parse_roundtrip(self, f):
        assert parse_polynomial(polynomial_text(f), 3) == f

    @settings(max_examples=30)
    @given(polys(2, GF(5)))
    def test_roundtrip_over_finite_field(self, f):
        assert parse_polynomial(polynomial_text(f), 2, GF(5)) == f

    @settings(max_examples=30)
    @given(polys(3), orders(3))
    def test_text_respects_requested_order(self, f, order):
        text = polynomial_text(f, order)
        assert parse_polynomial(text, 3) == f
        if f.terms:
            lead, coeff = leading_term(f, order)
            # the text up to the first interior +/- is exactly the leading term
            cut = len(text)
            for sep in (" + ", " - "):
                pos = text.find(sep)
                if pos != -1:
                    cut = min(cut, pos)
            head = parse_polynomial(text[:cut], 3)
            assert head.terms == {lead: coeff}


class TestLeadingTerms:
    @settings(max_examples=60)
    @given(polys(3), polys(3), orders(3))
    def test_multiplicative_over_a_domain(self, f, g, order):
        if not f.terms or not g.terms:
            return
        mf, cf = leading_term(f, order)
        mg, cg = leading_term(g, order)
        mfg, cfg = leading_term(f * g, order)
        assert mfg == tuple(x + y for x, y in zip(mf, mg))
        assert cfg == cf * cg

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term(Poly.zero(2), lex_order(2))


class TestCoefficientExtraction:
    def test_worked_example(self):
        f = parse_polynomial("(x3 - x1)*(x3 - x2)", 3)
        shares = coefficients_in_last_variable(f)
        assert len(shares) == 3
        assert all(g.nvars == 2 for g in shares)
        assert shares[0] == parse_polynomial("x1*x2", 2)
        assert shares[1] == parse_polynomial("-x1 - x2", 2)
        assert shares[2] == parse_polynomial("1", 2)

    def test_zero_and_univariate_rejected(self):
        with pytest.raises(ValueError):
            coefficients_in_last_variable(Poly.zero(3))
        with pytest.raises(ValueError):
            coefficients_in_last_variable(parse_polynomial("x1", 1))

    @settings(max_examples=60)
    @given(polys(3))
    def test_reconstruction(self, f):
        if not f.terms:
            return
        shares = coefficients_in_last_variable(f)
        rebuilt = Poly.zero(3)
        for k, g in enumerate(shares):
            lifted = Poly(
                3, QQ, {m + (k,): c for m, c in g.terms.items()}
            )
            rebuilt = rebuilt + lifted
        assert rebuilt == f
        if f.terms:
            assert len(shares) == max(m[2] for m in f.terms) + 1
            assert shares[-1].terms  # top share is nonzero


class TestDegrees:
    @settings(max_examples=40)
    @given(polys(3), polys(3))
    def test_total_degree_of_product(self, f, g):
        if f.terms and g.terms:
            assert max(map(sum, (f * g).terms)) == max(map(sum, f.terms)) + max(map(sum, g.terms))


class TestIntFirstCoefficients:
    def test_field_operations_are_canonical(self):
        assert QQ.zero == 0 and type(QQ.zero) is int
        assert QQ.one == 1 and type(QQ.one) is int
        assert type(QQ.coerce(Fraction(6, 3))) is int
        assert type(QQ.coerce(True)) is int
        assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
        half = Fraction(1, 2)
        assert type(QQ.add(half, half)) is int
        assert type(QQ.mul(half, 2)) is int
        for unit in (1, -1, Fraction(1), Fraction(-1)):
            assert QQ.inv(unit) == unit and type(QQ.inv(unit)) is int
        assert QQ.inv(2) == Fraction(1, 2)
        assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    def test_parse_is_canonical(self):
        f = parse_polynomial("4/2*x1 - 6/3 + 1/2*x2 + 3/4*x1 + 1/4*x1", 2)
        assert f.terms == {(1, 0): 3, (0, 0): -2, (0, 1): Fraction(1, 2)}
        assert_canonical(f.terms)

    @settings(max_examples=60)
    @given(
        st.dictionaries(monomials(3), mixed_coefficients(), max_size=6),
        st.dictionaries(monomials(3), mixed_coefficients(), max_size=6),
        monomials(3),
        mixed_coefficients(),
    )
    def test_arithmetic_matches_the_fraction_reference(self, a, b, mono, coeff):
        ra = {m: Fraction(c) for m, c in a.items() if c}
        rb = {m: Fraction(c) for m, c in b.items() if c}
        f, g = Poly(3, QQ, a), Poly(3, QQ, b)
        results = {
            "add": (f + g, poly_add(ra, rb)),
            "sub": (f - g, poly_add(ra, rb, -1)),
            "mul": (f * g, poly_mul(ra, rb)),
            "term_mul": (f.term_mul(mono, coeff), term_product(ra, mono, Fraction(coeff))),
            "scalar": (f * coeff, term_product(ra, (0, 0, 0), Fraction(coeff))),
            "neg": (-f, term_product(ra, (0, 0, 0), Fraction(-1))),
        }
        for name, (ours, ref) in results.items():
            assert as_fractions(ours.terms) == ref, name
            assert_canonical(ours.terms)

    @settings(max_examples=60)
    @given(
        st.dictionaries(monomials(3), mixed_coefficients(), max_size=6),
        st.lists(mixed_coefficients(), min_size=3, max_size=3),
    )
    def test_evaluate_matches_the_fraction_reference(self, a, point):
        f = Poly(3, QQ, a)
        value = f.evaluate(point)
        assert value == eval_poly({m: Fraction(c) for m, c in a.items()}, point)
        assert type(value) is int or value.denominator != 1

    @settings(max_examples=40)
    @given(polys(2, GF(7)), polys(2, GF(7)), st.lists(st.integers(-20, 20), min_size=2,
                                                    max_size=2))
    def test_finite_field_results_are_residues(self, f, g, point):
        for h in (f + g, f - g, f * g, -f, f.term_mul((1, 0), 3)):
            assert all(type(c) is int and 0 < c < 7 for c in h.terms.values())
        assert 0 <= (f * g).evaluate(point) < 7
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point) % 7


def scalars(field):
    """ints and Fractions over Q; ints over F_p, where not every Fraction
    has an image."""
    return mixed_coefficients() if field == QQ else st.integers(-20, 20)


@st.composite
def shared_polys(draw, field):
    """A list of polynomials in 3 variables whose monomials come from one
    small pool, so that most of them recur across the list."""
    pool = draw(st.lists(monomials(3), min_size=1, max_size=5, unique=True))
    terms = st.dictionaries(st.sampled_from(pool), scalars(field), max_size=len(pool))
    return draw(st.lists(terms.map(lambda d: Poly(3, field, d)), max_size=6))


def points(field, nvars=3):
    return st.tuples(*[scalars(field)] * nvars)


def expected_values(polys, point):
    return [f.field.coerce(eval_poly(f.terms, point)) for f in polys]


def all_values(polys, pts):
    """Every value evaluations yields, point by point."""
    return [list(values) for values in evaluations(polys, pts)]


class CountingInt(int):
    """An int coefficient that logs each product it is the left factor of."""

    def __new__(cls, value, log):
        self = super().__new__(cls, value)
        self.log = log
        return self

    def __mul__(self, other):
        self.log.append(other)
        return int(self) * other


FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(7)])


class TestEvaluations:
    """evaluations(polys, points) yields, point by point, an iterator of what
    Poly.evaluate gives for each polynomial. The iterator values nothing until
    its first value is asked for, and then yields one value at a time."""

    @settings(max_examples=80)
    @given(st.data(), FIELDS)
    def test_matches_the_fraction_reference(self, data, field):
        polys = data.draw(shared_polys(field)) + [Poly.zero(3, field)]
        pts = data.draw(st.lists(points(field), min_size=1, max_size=3))
        rows = all_values(polys, pts)
        assert rows == [expected_values(polys, pt) for pt in pts]
        assert rows == [[f.evaluate(pt) for f in polys] for pt in pts]
        for values in rows:
            if field == QQ:
                assert all(type(v) is int or v.denominator != 1 for v in values)
            else:
                assert all(type(v) is int and 0 <= v < field.p for v in values)

    @pytest.mark.parametrize("nvars", range(1, 9))
    @settings(max_examples=25)
    @given(data=st.data(), field=FIELDS)
    def test_every_split_matches_the_reference(self, nvars, data, field):
        # h = nvars // 2 splits odd and even widths, and leaves the low half
        # of one variable empty. Monomials join halves from two small pools,
        # so that halves recur across them in different pairings.
        h = nvars // 2
        lows, highs = (data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * k),
                                          min_size=1, max_size=3, unique=True))
                       for k in (h, nvars - h))
        pool = [low + high for low in lows for high in highs]
        terms = st.dictionaries(st.sampled_from(pool), scalars(field), max_size=len(pool))
        polys = data.draw(st.lists(terms.map(lambda d: Poly(nvars, field, d)), max_size=5))
        polys.insert(data.draw(st.integers(0, len(polys))), Poly.zero(nvars, field))
        pts = data.draw(st.lists(points(field, nvars), min_size=1, max_size=4))
        assert all_values(polys, pts) == [expected_values(polys, pt) for pt in pts]
        # in lockstep, as the vanishing check steps them
        a, b = pts[0], pts[-1]
        assert list(zip(*evaluations(polys, (a, b)))) == list(
            zip(expected_values(polys, a), expected_values(polys, b)))

    @settings(max_examples=60)
    @given(st.data(), FIELDS)
    def test_each_point_has_its_own_table(self, data, field):
        polys = data.draw(shared_polys(field))
        a, b = data.draw(points(field)), data.draw(points(field))
        assert all_values(polys, (a, b)) == [expected_values(polys, a),
                                             expected_values(polys, b)]
        # in lockstep, as the vanishing check steps them
        rows = list(zip(*evaluations(polys, (a, b))))
        assert rows == list(zip(expected_values(polys, a), expected_values(polys, b)))

    @given(st.data(), FIELDS)
    def test_a_constant_in_no_variables(self, data, field):
        c = data.draw(scalars(field))
        f = Poly.constant(c, 0, field)
        assert all_values([f, Poly.zero(0, field)], [(), ()]) == [[field.coerce(c), 0]] * 2
        assert f.evaluate(()) == field.coerce(c)

    def test_a_point_values_nothing_until_asked_then_one_polynomial_at_a_time(self):
        products = []
        polys = [Poly._raw(2, QQ, {(1, k): CountingInt(k + 1, products)}) for k in range(4)]
        at_points = evaluations(polys, [(2, 3), (5, 7)])
        first, second = next(at_points), next(at_points)
        assert len(products) == 0
        assert next(first) == 2
        assert len(products) == 1
        assert list(second) == [5 * (k + 1) * 7**k for k in range(4)]
        assert len(products) == 5
        assert list(first) == [2 * (k + 1) * 3**k for k in range(1, 4)]
        assert len(products) == 8

    def test_an_empty_list_yields_nothing(self):
        assert all_values([], [(1, 2), (3, 4)]) == [[], []]
        assert all_values([Poly.variable(1, 2)], []) == []

    CALLS = {
        "nvars": lambda: all_values([Poly.variable(1, 2), Poly.variable(1, 3)], [(1, 2)]),
        "field": lambda: all_values([Poly.variable(1, 2), Poly.variable(1, 2, GF(5))],
                                    [(1, 2)]),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_other_rings_are_refused(self, entry):
        with pytest.raises(ValueError, match="different rings"):
            self.CALLS[entry]()

    def test_a_point_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="point has 2 coordinates, need 3"):
            all_values([Poly.variable(1, 3)], [(1, 2, 3), (1, 2)])

    def test_an_inexact_coordinate_is_refused(self):
        with pytest.raises(TypeError):
            all_values([Poly.variable(1, 2)], [(0.5, 1)])


class TestInexactInputs:
    def test_floats_and_complex_rejected(self):
        for field in (QQ, GF(7)):
            for bad in (0.1, 2.5, 2.0, 1j, complex(2, 0)):
                with pytest.raises(TypeError):
                    field.coerce(bad)
        x1 = Poly.variable(1, 2)
        with pytest.raises(TypeError):
            Poly(2, QQ, {(1, 0): 0.5})
        with pytest.raises(TypeError):
            x1 * 1.5
        with pytest.raises(TypeError):
            x1 + 0.25
        with pytest.raises(TypeError):
            x1.evaluate((0.5, 1))
        with pytest.raises(TypeError):
            Poly.constant(2.0, 2, GF(5))


class TestPrimeCharacteristic:
    @staticmethod
    def _trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    def test_matches_trial_division_on_small_numbers(self):
        for p in range(-2, 3000):
            if self._trial_division(p):
                assert GF(p).p == p
            else:
                with pytest.raises(ValueError):
                    GF(p)

    def test_pseudoprimes_rejected(self):
        # Carmichael numbers, and strong pseudoprimes to the first few bases;
        # the last passes every prime base up to 37
        for n in (561, 1105, 1729, 2465, 2047, 3215031751, 3825123056546413051,
                  318665857834031151167461):
            with pytest.raises(ValueError):
                GF(n)

    def test_large_prime_is_certified_promptly(self):
        start = time.perf_counter()
        assert GF(10**18 + 3).p == 10**18 + 3
        assert parse_field("F1000000000000000003") == GF(10**18 + 3)
        assert GF(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - start < 1.0

    def test_characteristic_beyond_the_certified_range_rejected(self):
        with pytest.raises(ValueError):
            GF(3_317_044_064_679_887_385_961_981)
        with pytest.raises(ValueError):
            GF(2**89 - 1)  # prime, but past the Miller-Rabin bound


def nested_reference_key(order, mono):
    """The order key as nested tuples with rational weights, written out from
    the definitions: the flat keys must sort exactly like this."""
    lex = tuple(mono[v - 1] for v in reversed(order.ranking))
    if order.kind == "lex":
        return lex
    if order.kind == "grlex":
        return (sum(mono), lex)
    if order.kind == "grevlex":
        return (sum(mono), tuple(-mono[v - 1] for v in order.ranking))
    return (sum(w * e for w, e in zip(order.weights, mono)), lex)


def all_orders(nvars):
    rank = st.permutations(list(range(1, nvars + 1)))
    weight = st.one_of(
        st.sampled_from([Fraction(3, 2), Fraction(1, 3), Fraction(7, 4), 1, 2]),
        st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=6),
    )
    plain = st.tuples(st.sampled_from(["lex", "grlex", "grevlex"]), rank).map(
        lambda kr: MonomialOrder(kr[0], nvars, kr[1]))
    weighted = st.tuples(rank, st.lists(weight, min_size=nvars, max_size=nvars)).map(
        lambda rw: MonomialOrder("weight", nvars, rw[0], rw[1]))
    return st.one_of(plain, weighted)


def _sign(a, b):
    return (a > b) - (a < b)


class TestFlatOrderKeys:
    @settings(max_examples=150)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(all_orders(n), st.lists(monomials(n), min_size=2, max_size=8))))
    def test_flat_key_orders_like_the_nested_reference(self, case):
        order, monos = case
        for a in monos:
            key = order.key(a)
            assert type(key) is tuple and all(type(x) is int for x in key)
            for b in monos:
                assert _sign(order.key(a), order.key(b)) == _sign(
                    nested_reference_key(order, a), nested_reference_key(order, b))
        assert sorted(monos, key=order.key) == sorted(
            monos, key=lambda m: nested_reference_key(order, m))

    def test_weights_and_text_keep_the_rationals(self):
        order = parse_order("weight:3/2,1,1/3:lex:1,2,3", 3)
        assert order.weights == (Fraction(3, 2), Fraction(1), Fraction(1, 3))
        assert order.text() == "weight:3/2,1,1/3:lex:1,2,3"
        # 3/2 * 1 vs 1 * 1 + 1/3 * 1: scaled by 6 these are 9 and 8
        assert order.key((1, 0, 0)) > order.key((0, 1, 1))

    @settings(max_examples=20)
    @given(all_orders(3), monomials(3))
    def test_orders_survive_pickling(self, order, mono):
        copy = pickle.loads(pickle.dumps(order))
        assert copy == order
        assert copy.key(mono) == order.key(mono)
