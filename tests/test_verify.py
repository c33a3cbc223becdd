"""Check battery, negative controls, suite determinism, CLI behavior."""

import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from spechtgb import (
    CHECK_NAMES,
    QQ,
    CheckReport,
    GF,
    Poly,
    MonomialOrder,
    SpechtGenerator,
    SuiteConfig,
    Tableau,
    check_coefficient_descent,
    check_containment,
    check_engine,
    check_finite_field,
    check_lexgb,
    check_reduced,
    check_restricted,
    check_stratum_vanishing,
    check_universal,
    determinism_hash,
    enumerate_lower_filters,
    filter_closure,
    filter_generators,
    groebner_basis,
    is_groebner_basis,
    lex_order,
    main,
    negative_controls,
    reduce_groebner_basis,
    run_suite,
    shape_generators,
    suite_exit_code,
)
from spechtgb import verify

from oracles import (
    REF_EXPANDS,
    parse_polynomial,
    ref_containment,
    ref_finite_field,
    ref_order_failure,
    ref_restricted,
    ref_stratum_vanishing,
)
from pins import PINS


LEADING_TERM = "a lex leading term is not 1 times its tableau's closed form"


def assert_clean_pass(report, check_id):
    assert report.check_id == check_id
    assert report.verdict == "pass"
    assert report.reason is None
    json.dumps(report.payload(), sort_keys=True)  # must be serializable
    assert isinstance(report.record()["timing_ms"], int)


class TestIndividualChecks:
    def test_lexgb(self):
        filt = filter_closure(3, [(2, 1)], "lower")
        assert_clean_pass(check_lexgb(filt), "lexgb")

    def test_lexgb_checks_the_closed_form_of_each_leading_monomial(self, monkeypatch):
        # the closed form moved down one row: entry i in row d gives x_i^d
        monkeypatch.setattr(verify, "initial_monomial", lambda t: tuple(
            t.row_index()[i] for i in range(1, t.n + 1)))
        report = check_lexgb(filter_closure(3, [(2, 1)], "lower"))
        assert report.verdict == "fail"
        assert report.reason == LEADING_TERM
        assert report.evidence == {"tableau": [[1, 2], [3]]}

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=lambda f: f.text())
    def test_lexgb_checks_the_sign_of_each_leading_term(self, monkeypatch, field):
        # the last column-standard generator negated: same ideal, same
        # leading monomial, leading coefficient -1
        filt = filter_closure(3, [(2, 1)], "lower")
        built = verify.filter_generators

        def last_negated(filt, *, field=QQ):
            gens = built(filt, field=field)
            return gens[:-1] + (replace(gens[-1], polynomial=-gens[-1].polynomial),)

        monkeypatch.setattr(verify, "filter_generators", last_negated)
        report = check_lexgb(filt, field=field)
        assert report.verdict == "fail"
        assert report.reason == LEADING_TERM
        assert report.evidence == {"tableau": [[1], [2], [3]]}

    def test_universal(self):
        filt = filter_closure(3, [(2, 1)], "lower")
        report = check_universal(filt, seed=1)
        assert_clean_pass(report, "universal")
        assert report.evidence["generators"] == 4
        kinds = [text.split(":")[0] for text in report.evidence["referee_orders"]]
        assert kinds == ["grlex", "grevlex", "weight"]

    def test_reduced(self):
        filt = filter_closure(3, [(2, 1)], "lower")
        assert_clean_pass(check_reduced(filt), "reduced")

    def test_reduced_full_filter_unit_ideal(self):
        # lower<=[3] holds every shape of 3, [3]'s generator 1 among them; its
        # empty complement has the unit ideal, met by the common comparison
        report = check_reduced(filter_closure(3, [(3,)], "lower"))
        assert_clean_pass(report, "reduced")
        assert report.evidence == {"complement_size": 0, "generators": 5,
                                   "oracle_basis_size": 1, "reduced_basis_size": 1}

    def test_reduced_refuses_generators_that_are_no_lex_basis(self, monkeypatch):
        # x1^2 - x2 and x1*x2: their S-polynomial leaves -x1^3 under lex
        # x1 < x2, so no comparison of reduced bases is reached
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(verify, "vanishing_ideal_oracle", no_oracle)
        gens = (parse_polynomial("x1^2 - x2", 2), parse_polynomial("x1*x2", 2))
        assert verify._reduced(gens, filter_closure(2, [(2,)], "upper"), 10) == (
            "fail", "the generators are not a basis under lex", {"generators": 2})

    def test_reduced_is_the_same_cold_and_after_lexgb(self):
        from spechtgb import strata

        filt = filter_closure(4, [(2, 2)], "lower")

        def cleared():
            _clear_lex_caches()
            strata._fold.cache_clear()

        cleared()
        cold = json.dumps(check_reduced(filt).payload(), sort_keys=True)
        cleared()
        assert check_lexgb(filt).verdict == "pass"
        hits = verify._lex_certificate.cache_info().hits
        warm = json.dumps(check_reduced(filt).payload(), sort_keys=True)
        assert verify._lex_certificate.cache_info().hits > hits
        assert warm == cold
        assert json.loads(cold)["verdict"] == "pass"

    def test_vanishing(self):
        assert_clean_pass(
            check_stratum_vanishing(3, samples=4, seed=0), "vanishing"
        )

    def test_descent(self):
        assert_clean_pass(
            check_coefficient_descent(3), "descent"
        )

    def test_restricted(self):
        assert_clean_pass(check_restricted((2, 2)), "restricted")

    def test_finite_field(self):
        filt = filter_closure(3, [(2, 1)], "lower")
        assert_clean_pass(
            check_finite_field(filt, 3), "finite_field"
        )

    def test_containment(self):
        assert_clean_pass(check_containment(3), "containment")

    def test_restricted_over_f2(self):
        report = check_restricted((2, 2), field=GF(2))
        assert_clean_pass(report, "restricted")
        assert report.parameters == {"n": 4, "shape": "[2,2]", "field": "F2"}

    def test_containment_over_f3(self):
        report = check_containment(4, field=GF(3))
        assert_clean_pass(report, "containment")
        assert report.parameters == {"n": 4, "field": "F3"}

    @pytest.mark.parametrize("field", [GF(2), GF(3)], ids=lambda f: f.text())
    def test_restricted_and_containment_build_over_their_field(self, field, monkeypatch):
        fields = set()
        for name in ("restricted_standard_generators", "filter_generators", "shape_generators"):
            def spy(*args, _original=getattr(verify, name), **kwargs):
                gens = _original(*args, **kwargs)
                fields.update(g.polynomial.field for g in gens)
                return gens

            monkeypatch.setattr(verify, name, spy)
        check_restricted((2, 2), field=field)
        check_containment(3, field=field)
        assert fields == {field}

    def test_engine(self):
        assert_clean_pass(check_engine(trials=12, seed=0), "engine")


class TestCountsThatVoidACheck:
    """A check that samples no point or runs no trial cannot fail. The
    library refuses such a count before anything runs, as the CLI does."""

    CALLS = {
        "check_stratum_vanishing": lambda k: check_stratum_vanishing(4, samples=k),
        "run_suite": lambda k: run_suite(SuiteConfig(checks=("vanishing",), samples=k)),
        "check_engine": lambda k: check_engine(trials=k),
    }

    @pytest.mark.parametrize("count", [0, -2])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_refused_before_anything_runs(self, entry, count, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("ran before the count was checked")

        for name in ("shape_generators", "sample_stratum", "groebner_basis", "negative_controls"):
            monkeypatch.setattr(verify, name, untouched)
        with pytest.raises(ValueError, match=f"must be positive, got {count}$"):
            self.CALLS[entry](count)


class TestCharacteristicOfAFiniteFieldCheck:
    """check_finite_field refuses a p that is not prime before any work, as
    the other entry points refuse a count that voids them."""

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_refused_before_anything_runs(self, p, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("ran before p was checked")

        for name in ("filter_generators", "_guarded"):
            monkeypatch.setattr(verify, name, untouched)
        with pytest.raises(ValueError, match=f"must be prime, got {p}$"):
            check_finite_field(filter_closure(3, [(2, 1)], "lower"), p)


class TestSizesBelowACheck:
    """A check called below its smallest n is refused before any work, as a
    count that voids a check is: descent needs a ring of n - 1 variables,
    vanishing and containment a partition of n."""

    LEAST = {"check_coefficient_descent": 2, "check_stratum_vanishing": 1,
             "check_containment": 1}

    @pytest.mark.parametrize("entry", sorted(LEAST))
    def test_refused_before_anything_runs(self, entry, monkeypatch):
        check, least = getattr(verify, entry), self.LEAST[entry]
        report = check(least)
        assert_clean_pass(report, report.check_id)

        def untouched(*args, **kwargs):
            raise AssertionError("ran before n was checked")

        for name in ("_guarded", "partitions_of", "lex_order", "enumerate_upper_filters"):
            monkeypatch.setattr(verify, name, untouched)
        rule = "positive" if least == 1 else f"at least {least}"
        for n in (least - 1, -3):
            with pytest.raises(ValueError, match=f"^n must be {rule}, got {n}$"):
                check(n)


class TestNegativeControls:
    def test_every_control_detects_its_corruption(self):
        reports = negative_controls(seed=0)
        assert [r.check_id for r in reports] == [
            f"control_{name}" for name in CHECK_NAMES
        ]
        for r in reports:
            assert r.verdict == "pass", (r.check_id, r.reason)
            json.dumps(r.payload(), sort_keys=True)

    def test_the_restricted_control_needs_the_comparison(self, monkeypatch):
        # its fixture is still a lex basis, so only the comparison with
        # C([2,2]) can refuse it
        monkeypatch.setattr(verify, "_lex_reduced", lambda polys: verify._own_basis(
            (2, 2), QQ, verify.DEFAULT_PAIR_BUDGET))
        (control,) = [r for r in negative_controls() if r.check_id == "control_restricted"]
        assert control.verdict == "fail"

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check_and_control_share_one_judge(self, name, monkeypatch):
        # a judge forced to pass turns its control to fail
        monkeypatch.setattr(verify, f"_{name}", lambda *args: ("pass", None, {}))
        (control,) = [r for r in negative_controls() if r.check_id == f"control_{name}"]
        assert control.verdict == "fail"
        # and one forced to fail turns its check to fail, over Q and over
        # each of finite_field's primes
        monkeypatch.setattr(verify, f"_{name}", lambda *args: ("fail", "forced", {}))
        config = SuiteConfig(checks=(name,), max_n=2, include_controls=False)
        reports = verify._run_check(name, config, next(verify._grid(name, config)))
        assert reports
        assert {(r.check_id, r.verdict, r.reason) for r in reports} == {(name, "fail", "forced")}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_descent_refuses_coefficients_held_to_the_filter_derived_at_row_d(
            self, n, monkeypatch):
        # the filter derived at row d, one row short of the claim's d + 1,
        # asks more of the coefficients than they hold
        derive = verify.derived_filter
        monkeypatch.setattr(verify, "derived_filter", lambda filt, k: derive(filt, max(k - 1, 1)))
        report = check_coefficient_descent(n)
        assert report.verdict == "fail"
        assert report.reason == "a coefficient escaped the derived filter's ideal"

    def test_descent_checks_every_coefficient_not_only_the_top_one(self):
        # x4*(x2 - x1) + x1 offered as the basis of upper:[4],[3,1]: its top
        # coefficient x2 - x1 lies in J(D_2) = J(upper:[3]), the ideal of the
        # line x1 = x2 = x3, and its constant coefficient x1 does not
        filt = verify.parse_filter_text("upper:[4],[3,1]", 4)
        g = parse_polynomial("x4*(x2 - x1) + x1", 4)
        derived = verify.derived_filter(filt, 2)
        assert derived == filter_closure(3, [(3,)], "upper")
        ideal = verify.vanishing_ideal_oracle(derived).generators
        constant, top = verify.coefficients_in_last_variable(g)
        assert verify._reduce_to_zero([top], ideal, lex_order(3))
        assert not verify._reduce_to_zero([constant], ideal, lex_order(3))
        assert verify._descent([(filt, (g,))], verify.DEFAULT_PAIR_BUDGET) == (
            "fail", "a coefficient escaped the derived filter's ideal",
            {"filter": "upper:[4],[3,1]", "derived": "upper:[3]", "top_degree": 1})


class TestLexgbCompleteness:
    """lexgb proves that every filling's polynomial is +- a generator from
    three tests: each tableau is a column-standard filling of a shape of the
    filter, the column sets are distinct and as many per shape as set
    partitions of its conjugate type, and each generator is +- its column
    product. Each input here keeps lex leading terms in closed form, and each
    with the right tableaux stays a lex basis, so only those tests can
    refuse it."""

    FILTER = filter_closure(3, [(2, 1)], "lower")
    FILLING = "a tableau is not a column-standard filling of a filter shape"

    def judged(self, gens):
        return verify._lexgb(self.FILTER, gens)

    def test_a_missing_column_set_is_refused_by_the_count(self):
        # the control fixture: x3 - x1 dropped, and the rest still a lex basis
        gens = filter_generators(self.FILTER)
        kept = [g for g in gens if g.tableau.rows != ((1, 2), (3,))]
        assert {g.polynomial for g in gens} - {g.polynomial for g in kept} == {
            parse_polynomial("x3 - x1", 3)}
        assert verify._lex_certificate(tuple(g.polynomial for g in kept))[0]
        assert self.judged(kept) == (
            "fail", "a shape has fewer generators than set partitions of its conjugate",
            {"shape": "[2,1]", "generators": 2, "set_partitions": 3})

    def test_a_duplicated_column_set_is_refused(self):
        # the first [2,1] generator in place of the last: three of them still,
        # and a lex basis still, but two share their columns
        gens = list(filter_generators(self.FILTER))
        assert [g.shape for g in gens] == [(2, 1)] * 3 + [(1, 1, 1)]
        gens[2] = gens[0]
        assert verify._lex_certificate(tuple(g.polynomial for g in gens))[0]
        assert self.judged(gens) == ("fail", "two generators have the same columns",
                                     {"tableau": [list(r) for r in gens[0].tableau.rows]})

    def test_a_generator_that_is_not_its_column_product_is_refused(self):
        # x3 - x1 becomes x3 + x2 - 2*x1: the same leading term and the same
        # ideal, and still a lex basis, but no product of column factors
        gens = list(filter_generators(self.FILTER))
        (k,) = [k for k, g in enumerate(gens) if g.tableau.rows == ((1, 2), (3,))]
        gens[k] = replace(gens[k], polynomial=parse_polynomial("x3 + x2 - 2*x1", 3))
        assert verify._lex_certificate(tuple(g.polynomial for g in gens))[0]
        assert self.judged(gens) == ("fail", "a generator is not its tableau's column product",
                                     {"tableau": [[1, 2], [3]]})

    def test_a_tableau_of_the_wrong_shape_is_refused(self):
        # the [1,1,1] generator's tableau under a [2,1] generator
        gens = list(filter_generators(self.FILTER))
        gens[0] = replace(gens[0], tableau=gens[-1].tableau)
        assert self.judged(gens) == ("fail", self.FILLING, {"tableau": [[1], [2], [3]]})
        # [3]'s generator 1, whose shape is outside the filter
        (one,) = shape_generators((3,))
        assert self.judged(list(filter_generators(self.FILTER)) + [one]) == (
            "fail", self.FILLING, {"tableau": [[1, 2, 3]]})
        # and a filling of [2,1] with a decreasing column, which the closed
        # form of the leading term does not cover
        gens = list(filter_generators(self.FILTER))
        gens[0] = replace(gens[0], tableau=Tableau([[3, 2], [1]]))
        assert self.judged(gens) == ("fail", self.FILLING, {"tableau": [[3, 2], [1]]})


class TestSuite:
    def test_deterministic_hash_for_identical_configs(self):
        config = SuiteConfig(checks=("lexgb", "reduced"), max_n=3, seed=2)
        a = run_suite(config)
        b = run_suite(config)
        assert determinism_hash(a) == determinism_hash(b)
        assert [r.payload() for r in a] == [r.payload() for r in b]
        assert suite_exit_code(a) == 0

    def test_seed_enters_the_hash(self):
        a = run_suite(SuiteConfig(checks=("universal",), max_n=3, seed=1))
        b = run_suite(SuiteConfig(checks=("universal",), max_n=3, seed=2))
        assert determinism_hash(a) != determinism_hash(b)

    def test_reports_are_canonically_sorted(self):
        reports = run_suite(SuiteConfig(checks=("reduced", "lexgb"), max_n=3))
        keys = [
            (r.check_id, json.dumps(r.parameters, sort_keys=True))
            for r in reports
        ]
        assert keys == sorted(keys)

    def test_finite_field_config_skips_rational_only_checks(self):
        config = SuiteConfig(
            checks=("reduced", "vanishing", "lexgb"), max_n=3, field=GF(3)
        )
        reports = run_suite(config)
        by_id = {}
        for r in reports:
            by_id.setdefault(r.check_id, []).append(r)
        for name in ("reduced", "vanishing"):
            assert by_id[name]
            for r in by_id[name]:
                assert r.verdict == "skipped"
                assert "rational" in r.reason
        for r in by_id["lexgb"]:
            assert r.verdict == "pass"
        assert suite_exit_code(reports) == 0

    def test_restricted_and_containment_run_over_fp(self):
        reports = run_suite(SuiteConfig(checks=("restricted", "containment"), max_n=3,
                                        field=GF(2), include_controls=False))
        assert {r.check_id for r in reports} == {"restricted", "containment"}
        for r in reports:
            assert (r.verdict, r.parameters["field"]) == ("pass", "F2")

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(checks=("bogus",), max_n=3))

    def test_exit_code_reflects_failures(self):
        ok = CheckReport("lexgb", {}, "pass", None, {}, 0)
        bad = CheckReport("lexgb", {}, "fail", "broken", {}, 0)
        skip = CheckReport("lexgb", {}, "skipped", "later", {}, 0)
        err = CheckReport("lexgb", {}, "error", "out of pairs", {}, 0)
        assert suite_exit_code([ok, skip]) == 0
        assert suite_exit_code([ok, bad]) == 1
        assert suite_exit_code([ok, err]) == 3
        assert suite_exit_code([err, bad]) == 1
        assert suite_exit_code([]) == 0


class TestPinnedHash:
    # each id is the row's arguments, spaces as underscores to keep it one word
    @pytest.mark.parametrize("args, line", PINS, ids=[args.replace(" ", "_") for args, _ in PINS])
    def test_last_line(self, args, line, capsys):
        # the table in pins.py: any change in behaviour moves a hash
        assert main(["verify", *args.split()]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1] == line


class TestCli:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(verify.__file__).resolve().parents[1])
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        done = subprocess.run([sys.executable, "-m", "spechtgb", "verify", "lexgb", "--n", "3"],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "0 fail" in done.stdout.strip().splitlines()[-1]

    def test_gens_by_filter(self, capsys):
        assert main(["gens", "--n", "3", "--filter", "lower<=[2,1]"]) == 0
        out = capsys.readouterr().out
        assert "[2,1]" in out and "[1,1,1]" in out
        assert "x2 - x1" in out

    def test_gens_by_shape_json(self, capsys):
        assert (
            main(
                [
                    "gens",
                    "--n",
                    "4",
                    "--shape",
                    "[2,2]",
                    "--mode",
                    "standard",
                    "--report",
                    "json",
                ]
            )
            == 0
        )
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert len(rows) == 2
        assert all(r["shape"] == "[2,2]" for r in rows)

    def test_gens_shape_must_match_n(self, capsys):
        assert main(["gens", "--n", "4", "--shape", "[2,1]"]) == 2
        assert "partition of --n" in capsys.readouterr().err

    def test_gens_restricted_standard_shape_must_match_n(self, capsys):
        assert main(["gens", "--n", "5", "--shape", "[2,1]",
                     "--mode", "restricted_standard"]) == 2
        assert "--shape [2,1] is not a partition of --n 5" in capsys.readouterr().err

    def test_gens_filter_and_shape_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gens", "--n", "3", "--shape", "[2,1]", "--filter", "lower<=[3]"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_gens_enumerates_large_shapes_in_standard_mode(self, capsys):
        assert main(["gens", "--n", "12", "--shape", "[6,6]", "--mode", "standard"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 132

    def test_gens_rejects_exponential_requests_at_once(self, capsys):
        for argv, what in (
            (["--n", "12", "--shape", "[4,4,4]", "--mode", "column_standard"],
             "369600 column_standard tableaux"),
            (["--n", "12", "--shape", "[1,1,1,1,1,1,1,1,1,1,1,1]", "--mode", "standard"],
             "479001600 terms"),
        ):
            start = time.perf_counter()
            assert main(["gens"] + argv) == 2
            assert time.perf_counter() - start < 1.0
            assert what in capsys.readouterr().err

    def test_an_unparsable_order_is_named(self, capsys):
        for text in ("lex:1,,2", "weight:1,x:lex:1,2,3", "grevlex:1,x,3"):
            assert main(["gb", "--n", "3", "--filter", "lower<=[2,1]", "--order", text]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: cannot parse order from {text!r}"]

    def test_an_unwritable_out_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        missing = str(tmp_path / "missing" / "x.json")
        start = time.perf_counter()
        assert main(["verify", "all", "--max-n", "5", "--out", missing]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and missing in err[0]
        for name in ("_cmd_gens", "_cmd_gb", "_cmd_oracle", "_cmd_verify"):
            monkeypatch.setattr(verify, name, lambda args: pytest.fail("the command ran"))
        for command in (["gens", "--n", "3", "--shape", "[2,1]"],
                        ["gb", "--n", "3", "--filter", "[2,1]"],
                        ["oracle", "--n", "3", "--filter", "[2,1]"],
                        ["verify", "engine"]):
            for out in (missing, str(tmp_path)):
                assert main(command + ["--out", out]) == 2
                assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["gens", "--n", "4", "--filter", "lower<=[2,2]", "--report", "json"],
        ["gb", "--n", "4", "--filter", "lower<=[2,2]"],
        ["oracle", "--n", "4", "--filter", "lower<=[2,2]", "--report", "json"],
        ["verify", "lexgb", "--n", "4"],
    ])
    def test_out_writes_the_bytes_of_stdout(self, command, tmp_path, capsys):
        code = main(command)
        printed = capsys.readouterr().out
        target = tmp_path / "report.txt"
        assert main(command + ["--out", str(target)]) == code == 0
        assert target.read_text(encoding="utf-8") == printed

    def test_gb_prints_reduced_basis(self, capsys):
        assert main(["gb", "--n", "3", "--filter", "lower<=[2,1]"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["x2 - x1", "x3 - x1"]

    def test_oracle_complements_lower_filters(self, capsys):
        assert main(["oracle", "--n", "3", "--filter", "lower<=[2,1]"]) == 0
        out = capsys.readouterr().out
        assert "upper:[3]" in out
        assert "x2 - x1" in out and "x3 - x1" in out

    def test_oracle_rejects_full_filter(self, capsys):
        assert main(["oracle", "--n", "3", "--filter", "lower<=[3]"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_oracle_of_minimum_closure_is_principal(self, capsys):
        # complement of {smallest shape} is every stratum with a repeat, and
        # everything vanishing there is a multiple of the full difference product
        assert main(["oracle", "--n", "3", "--filter", "lower<=[1,1,1]"]) == 0
        out = capsys.readouterr().out
        assert "upper:[3],[2,1]" in out
        assert (
            "x2*x3^2 - x1*x3^2 - x2^2*x3 + x1^2*x3 + x1*x2^2 - x1^2*x2" in out
        )

    def test_gb_oracle_routes_agree(self, capsys):
        # the same ideal through generators+completion and through strata
        assert main(["gb", "--n", "4", "--filter", "lower<=[2,2]"]) == 0
        via_gens = capsys.readouterr().out
        assert main(["oracle", "--n", "4", "--filter", "lower<=[2,2]"]) == 0
        via_strata = capsys.readouterr().out
        basis_lines = set(via_gens.strip().splitlines())
        strata_lines = {
            line
            for line in via_strata.strip().splitlines()
            if not line.startswith("#")
        }
        assert basis_lines == strata_lines

    def test_verify_single_check(self, capsys):
        assert main(["verify", "lexgb", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_verify_single_instance_with_filter(self, capsys):
        assert (
            main(
                [
                    "verify",
                    "reduced",
                    "--n",
                    "3",
                    "--filter",
                    "lower<=[2,1]",
                ]
            )
            == 0
        )
        assert "pass" in capsys.readouterr().out

    def test_verify_all_writes_json_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "verify",
                    "all",
                    "--max-n",
                    "2",
                    "--seed",
                    "5",
                    "--report",
                    "json",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        records = [
            json.loads(line)
            for line in out_file.read_text().strip().splitlines()
        ]
        ids = {r["check_id"] for r in records}
        assert set(CHECK_NAMES) <= ids
        assert any(i.startswith("control_") for i in ids)
        assert all(r["verdict"] in ("pass", "skipped") for r in records)

    def test_usage_errors_exit_two(self, capsys):
        assert main(["gb", "--n", "3", "--filter", "lower<=[3,1]"]) == 2
        capsys.readouterr()
        assert main(["gb", "--n", "3", "--filter", "lower<=[2,1]",
                     "--order", "fancy:1,2,3"]) == 2
        capsys.readouterr()
        assert main(["gens", "--n", "3"]) == 2
        capsys.readouterr()
        # every filling's polynomial is +- a column-standard one: no mode lists them all
        with pytest.raises(SystemExit) as stop:
            main(["gens", "--n", "3", "--shape", "[2,1]", "--mode", "all"])
        assert stop.value.code == 2
        assert "invalid choice: 'all'" in capsys.readouterr().err
        assert main(["verify", "descent", "--n", "3", "--filter", "[2,1]"]) == 2
        capsys.readouterr()

    def test_single_finite_field_run_needs_a_prime_field(self, capsys):
        assert main(["verify", "finite_field", "--n", "3", "--filter", "lower<=[2,1]",
                     "--field", "Q"]) == 2
        assert "--field F<p>" in capsys.readouterr().err
        assert main(["verify", "finite_field", "--n", "3", "--filter", "lower<=[2,1]",
                     "--field", "F5"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_large_prime_field_returns_promptly(self, capsys):
        start = time.perf_counter()
        assert main(["gb", "--n", "2", "--filter", "lower<=[1,1]",
                     "--field", "F1000000000000000003"]) == 0
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().out.strip().splitlines() == ["x2 + 1000000000000000002*x1"]
        assert main(["gb", "--n", "2", "--filter", "lower<=[1,1]", "--field", "F561"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_verify_n_pins_a_single_size(self, capsys):
        assert main(["verify", "containment", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert '"n": 3' in out or "n=3" in out or "pass" in out


def _json_rows(capsys):
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    for row in rows:
        row.pop("timing_ms")
    return rows


class TestErrorVerdict:
    # reduced's generators certify without a budget; the oracle of the
    # complement of lower:[1,1,1] runs out of one pair
    def test_pair_budget_exhaustion_is_an_error_not_a_failure(self, capsys):
        assert main(["verify", "reduced", "--n", "3", "--filter", "lower:[1,1,1]",
                     "--pair-budget", "1", "--report", "json"]) == 3
        (row,) = _json_rows(capsys)
        assert row["verdict"] == "error"
        assert row["evidence"] == {"exception": "PairBudgetExceeded"}
        assert "budget" in row["reason"]

    def test_summary_counts_errors(self, capsys):
        assert main(["verify", "reduced", "--n", "3", "--filter", "lower:[1,1,1]",
                     "--pair-budget", "1"]) == 3
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("0 pass, 0 fail, 0 skipped, 1 error")

    def test_a_crashing_check_is_an_error_and_the_suite_goes_on(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            return 1 // 0

        # lexgb builds filter generators; containment only shape generators
        monkeypatch.setattr(verify, "filter_generators", crash)
        reports = run_suite(SuiteConfig(checks=("lexgb", "containment"), max_n=3,
                                        include_controls=False))
        lexgb = [r for r in reports if r.check_id == "lexgb"]
        containment = [r for r in reports if r.check_id == "containment"]
        assert lexgb and containment
        for r in lexgb:
            assert (r.verdict, r.reason, r.evidence) == (
                "error", "integer division or modulo by zero", {"exception": "ZeroDivisionError"})
        assert all(r.verdict == "pass" for r in containment)
        assert suite_exit_code(reports) == 3
        assert "ZeroDivisionError" in capsys.readouterr().err
        assert main(["verify", "all", "--max-n", "3", "--report", "json"]) == 3
        rows = _json_rows(capsys)
        assert {"exception": "ZeroDivisionError"} in [r["evidence"] for r in rows]
        assert "pass" in {r["verdict"] for r in rows}


class TestPairBudgetFlag:
    @pytest.mark.parametrize("argv, size", [
        (["gb", "--n", "3", "--filter", "lower<=[2,1]"], 4),
        (["oracle", "--n", "4", "--filter", "lower<=[2,2]"], 5),
    ])
    def test_budget_exhaustion_exits_three_with_one_line(self, argv, size, capsys):
        assert main(argv + ["--pair-budget", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: S-pair budget 1 exhausted with {size} basis elements\n"

    @pytest.mark.parametrize("command", ["gb", "oracle", "verify reduced"])
    def test_negative_budget_exits_two(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--n", "3", "--filter", "lower<=[2,1]",
                                    "--pair-budget", "-5"])
        assert exc.value.code == 2
        assert "--pair-budget: must be nonnegative, got -5" in capsys.readouterr().err


class TestSingleRunFlags:
    def test_shape_must_be_a_partition_of_n(self, capsys):
        assert main(["verify", "restricted", "--n", "5", "--shape", "[2,1]"]) == 2
        assert "--shape [2,1] is not a partition of --n 5" in capsys.readouterr().err

    def test_filter_check_takes_no_shape(self, capsys):
        assert main(["verify", "lexgb", "--n", "3", "--filter", "lower<=[2,1]",
                     "--shape", "[3]"]) == 2
        assert "takes no --shape" in capsys.readouterr().err

    def test_all_takes_no_filter(self, capsys):
        assert main(["verify", "all", "--n", "3", "--filter", "lower<=[2,1]"]) == 2
        assert "takes no --filter" in capsys.readouterr().err

    @pytest.mark.parametrize("check, extra", [
        ("lexgb", []), ("reduced", []), ("universal", []), ("finite_field", ["--field", "F5"]),
    ])
    def test_filter_check_refuses_an_upper_filter(self, check, extra, capsys):
        assert main(["verify", check, "--n", "3", "--filter", "upper:[3]", *extra]) == 2
        err = capsys.readouterr().err
        assert err == f"error: verify {check} takes a lower filter\n"

    def test_universal_runs_at_one_variable(self, capsys):
        # S_1 has no transposition and no cycle to test stability under
        assert main(["verify", "universal", "--n", "1", "--filter", "[1]"]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last.startswith("1 pass, 0 fail, 0 skipped, 0 error")

    def test_a_size_with_no_check_is_rejected(self, capsys):
        assert main(["verify", "lexgb", "--n", "1"]) == 2
        assert "runs no check" in capsys.readouterr().err

    @pytest.mark.parametrize("check, single", [
        ("reduced", ["--filter", "lower:[1,1,1]"]), ("vanishing", []), ("descent", []),
    ], ids=["reduced", "vanishing", "descent"])
    def test_rational_only_single_run_over_fp_is_refused(self, check, single, capsys):
        assert main(["verify", check, "--n", "3", *single, "--field", "F7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a single {check} run needs the rational field: "
                                "strata are only dense there\n")
        # its grid keeps the skipped row
        assert main(["verify", check, "--max-n", "3", "--field", "F7", "--report", "json"]) == 0
        assert {row["verdict"] for row in _json_rows(capsys)} == {"skipped"}

    def test_universal_covers_every_ranking_past_five(self, capsys):
        # one proof covers all 720 lex rankings of 6, and every other order
        assert main(["verify", "universal", "--n", "6", "--filter", "lower<=[1,1,1,1,1,1]",
                     "--report", "json"]) == 0
        (row,) = _json_rows(capsys)
        assert row["parameters"] == {"field": "Q", "filter": "lower:[1,1,1,1,1,1]", "n": 6,
                                     "seed": 0}
        assert row["evidence"]["generators"] == 1
        assert len(row["evidence"]["referee_orders"]) == 3
        assert set(row["metrics"]) == {"stability_ms", "lex_certificate_ms",
                                       "column_products_ms", "referees_ms"}

    def test_the_order_budget_flag_is_gone(self, capsys):
        # universal proves every order at once, so no budget of orders remains
        with pytest.raises(SystemExit) as exc:
            main(["verify", "universal", "--order-budget", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order-budget 6" in capsys.readouterr().err

    def test_the_trials_flag_is_gone(self, capsys):
        # descent proves its lemma from each oracle basis, so it draws no members
        with pytest.raises(SystemExit) as exc:
            main(["verify", "descent", "--trials", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
        assert "trials" not in SuiteConfig.__dataclass_fields__
        assert check_coefficient_descent(2).parameters == {"n": 2, "field": "Q"}

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "must be positive, got 0"),
        ("--samples", "-2", "must be positive, got -2"),
    ])
    def test_budget_flags_refuse_values_that_void_a_check(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "vanishing", "--n", "3", flag, value])
        assert exc.value.code == 2
        assert f"{flag}: {message}" in capsys.readouterr().err


class TestEnumerationLimits:
    @pytest.mark.parametrize("argv, what", [
        (["verify", "universal", "--n", "12"], "1191578522 column_standard tableaux"),
        (["verify", "lexgb", "--n", "9"], "column_standard tableaux"),
        # the column-standard tableaux of lexgb's first input at n=9,
        # lower<=[9], before any n=2 check has run
        (["verify", "all", "--max-n", "12"], "871030 column_standard tableaux"),
        (["verify", "restricted", "--shape", "[1,1,1,1,1,1,1,1,1,1,1,1]"], "terms"),
        (["gb", "--n", "12", "--filter", "lower<=[12]"], "column_standard tableaux"),
        # descent expands no tableaux; its grid ends at n=6, so a larger
        # --n runs no check
        (["verify", "descent", "--n", "8"], "descent's ends at n=6"),
        (["verify", "descent", "--n", "9"], "descent's ends at n=6"),
    ])
    def test_oversized_requests_exit_two_at_once(self, argv, what, capsys):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert what in capsys.readouterr().err

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_no_grid_input_up_to_six_is_refused(self, field):
        verify._check_selection_size(SuiteConfig(max_n=6, field=field), None)

    def test_descent_grid_stops_at_six(self, capsys):
        # its oracles at n=7 ran for over 15 minutes; n=6 takes seconds
        start = time.perf_counter()
        assert main(["verify", "descent", "--n", "7"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "descent's ends at n=6" in capsys.readouterr().err
        grid = verify._grid("descent", SuiteConfig(checks=("descent",), max_n=12))
        assert list(grid) == [2, 3, 4, 5, 6]
        verify._check_selection_size(SuiteConfig(checks=("descent",), max_n=12), None)

    def test_refusals_match_the_per_check_expansion_lists(self):
        # each check's one size rule refuses a grid input of n = 2..12 exactly
        # when the (shapes, mode) pairs it was listed to build exceed a limit
        decisions = set()
        for name in CHECK_NAMES:
            if name == "descent":
                continue  # its grid ends at n=6 instead
            takes = verify._CHECKS[name].takes
            for n in range(2, 13):
                inputs = verify._INPUTS[takes][0](n) if takes else [None]
                for arg in inputs:
                    try:
                        for shapes, mode in REF_EXPANDS[name](arg):
                            verify._check_enumeration_size(shapes, mode)
                        listed = False
                    except ValueError:
                        listed = True
                    config = SuiteConfig(checks=(name,), min_n=n, max_n=n)
                    try:
                        verify._check_selection_size(config, arg)
                        ruled = False
                    except ValueError:
                        ruled = True
                    assert ruled == listed, (name, arg)
                    decisions.add(ruled)
        assert decisions == {True, False}


class TestSingleRunMatchesGrid:
    @pytest.mark.parametrize("single, grid", [
        (["universal", "--n", "4", "--filter", "lower<=[2,1,1]", "--seed", "3"],
         ["universal", "--max-n", "4", "--seed", "3"]),
        (["restricted", "--n", "4", "--shape", "[2,2]"], ["restricted", "--max-n", "4"]),
        (["vanishing", "--n", "3", "--samples", "3", "--seed", "2"],
         ["vanishing", "--max-n", "4", "--samples", "3", "--seed", "2"]),
        (["reduced", "--n", "3", "--filter", "lower<=[2,1]"], ["reduced", "--max-n", "3"]),
    ])
    def test_single_run_gives_the_grid_row(self, capsys, single, grid):
        # payloads only: timing_ms and metrics depend on what ran before
        assert main(["verify"] + single + ["--report", "json"]) == 0
        (row,) = map(_payload, _json_rows(capsys))
        assert main(["verify"] + grid + ["--report", "json"]) == 0
        assert row in map(_payload, _json_rows(capsys))


def _payload(row: dict) -> dict:
    """A --report json row without its timing_ms and metrics."""
    return {k: v for k, v in row.items() if k not in ("timing_ms", "metrics")}


def _monomial_symmetric(n: int, exponents) -> dict:
    """The terms of the monomial symmetric polynomial with the given exponents."""
    return {m: 1 for m in itertools.permutations(exponents, n)}


def _sweep_orders(n: int, rng: random.Random, lex_rankings: int | None = None) -> list:
    """Every lex ranking of n, or that many distinct ones drawn from rng,
    then 25 grlex, grevlex and weight orders drawn from rng."""
    if lex_rankings is None:
        rankings = list(itertools.permutations(range(1, n + 1)))
    else:
        drawn: set = set()
        while len(drawn) < lex_rankings:
            drawn.add(tuple(rng.sample(range(1, n + 1), n)))
        rankings = sorted(drawn)
    orders = [MonomialOrder("lex", n, r) for r in rankings]
    for _ in range(25):
        kind = rng.choice(("grlex", "grevlex", "weight"))
        ranking = rng.sample(range(1, n + 1), n)
        weights = ([Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
                   if kind == "weight" else None)
        orders.append(MonomialOrder(kind, n, ranking, weights))
    return orders


def _order_failure(gens, seed: int, evidence: dict | None = None):
    """_every_order_failure with a throwaway metrics dict."""
    return verify._every_order_failure(gens, seed, {} if evidence is None else evidence, {})


def _fixture(poly, rows) -> SpechtGenerator:
    """A generator that claims the tableau with the given rows."""
    t = Tableau(rows)
    return SpechtGenerator(t.shape, t, poly)


class TestOrderShortcut:
    """_every_order_failure proves a basis under every order without a
    Buchberger run per order. It must pass wherever the reference sweep, which
    runs one per order, passes, and refuse each broken fixture for its own
    reason."""

    FIELDS = [QQ, GF(2), GF(3), GF(7)]
    STABILITY = "not stable under permutations of the variables"

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.text())
    def test_matches_the_sweep_on_every_filter_up_to_four(self, field):
        for n in (2, 3, 4):
            orders = _sweep_orders(n, random.Random(7))
            for filt in enumerate_lower_filters(n):
                gens = filter_generators(filt, field=field)
                evidence = {}
                assert _order_failure(gens, 7, evidence) is None
                assert ref_order_failure([g.polynomial for g in gens], orders, "") is None
                assert len(evidence["referee_orders"]) == 3

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.text())
    def test_matches_the_sweep_at_five_under_the_suites_orders(self, field):
        # the 25 lex rankings and 25 other orders that the suite's n=5 rows
        # sampled before universal proved every order at once
        orders = _sweep_orders(5, random.Random(7), lex_rankings=25)
        for filt in enumerate_lower_filters(5):
            gens = filter_generators(filt, field=field)
            assert _order_failure(gens, 7) is None
            assert ref_order_failure([g.polynomial for g in gens], orders, "") is None

    def test_a_dropped_generator_is_refused(self):
        orders = _sweep_orders(3, random.Random(0))
        gens = filter_generators(filter_closure(3, [(2, 1)], "lower"))
        verdicts = set()
        # a [2,1] generator; dropping the [1,1,1] one leaves the stable [2,1] set
        for k in (k for k, g in enumerate(gens) if g.shape == (2, 1)):
            dropped = gens[:k] + gens[k + 1:]
            assert _order_failure(dropped, 0) == self.STABILITY
            verdicts.add(ref_order_failure([g.polynomial for g in dropped], orders, ""))
        # dropping the first generator leaves a lex basis that fails under
        # another lex ranking: only the stability test tells the two apart
        assert is_groebner_basis([g.polynomial for g in gens[1:]], lex_order(3))[0]
        assert "not a basis under lex:1,3,2" in verdicts
        assert None not in verdicts

    def test_a_non_homogeneous_element_is_refused(self):
        # (1 + x1 + x2 + x3) * sum (xi - xj)^2 lies in the ideal and is
        # symmetric, so adding it keeps a stable lex basis: only the
        # homogeneity test refuses the set
        gens = filter_generators(filter_closure(3, [(2, 1)], "lower"))
        x1, x2, x3 = (Poly.variable(i, 3) for i in (1, 2, 3))
        extra = (1 + x1 + x2 + x3) * ((x1 - x2)**2 + (x1 - x3)**2 + (x2 - x3)**2)
        mixed = gens + (_fixture(extra, [[1], [2], [3]]),)
        polys = [g.polynomial for g in mixed]
        assert _order_failure(mixed, 0) == "a generator is not homogeneous"
        keys = {verify._scaled(p.terms, p.field) for p in polys}
        assert verify._stable_under_permutations(polys, keys)
        assert is_groebner_basis(polys, lex_order(3))[0]

    def test_a_stable_set_that_is_no_lex_basis_is_refused(self):
        # x1^2 + x2^2 and x1*x2: their S-polynomial x1^3 reduces no further
        polys = [Poly(2, QQ, {(2, 0): 1, (0, 2): 1}), Poly(2, QQ, {(1, 1): 1})]
        fixtures = [_fixture(p, [[1], [2]]) for p in polys]
        verdict = _order_failure(fixtures, 0)
        assert verdict == "not a basis under lex:1,2"
        assert ref_order_failure(polys, _sweep_orders(2, random.Random(0)), "") == verdict

    def test_a_symmetric_form_that_is_no_product_is_refused(self):
        # one symmetric form is a basis under every order, but under these
        # weights its leading monomial has exponents (3,3), not the lex
        # (4,1,1): the proof needs the factors, so it refuses the form
        terms = _monomial_symmetric(3, (4, 1, 1))
        terms.update(_monomial_symmetric(3, (3, 3, 0)))
        form = Poly(3, QQ, terms)
        verdict = _order_failure([_fixture(form, [[1], [2], [3]])], 0)
        assert verdict == "a generator is not its tableau's column product"
        weight = MonomialOrder("weight", 3, (1, 2, 3), (1, 10, 10))
        assert ref_order_failure([form], [MonomialOrder("grlex", 3), weight], "") == (
            "leading term disagrees with the induced lex order under weight:1,10,10:lex:1,2,3")

    def test_finite_field_reuses_its_lex_certificate(self, monkeypatch):
        calls = []

        def counted(polys, order, **kwargs):
            calls.append((order.text(), set(polys)))
            return is_groebner_basis(polys, order, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("a reduced basis was computed")

        monkeypatch.setattr(verify, "is_groebner_basis", counted)
        monkeypatch.setattr(verify, "reduce_groebner_basis", refused)
        _clear_lex_caches()
        filt = filter_closure(4, [(2, 2)], "lower")
        report = check_finite_field(filt, 3)
        assert report.verdict == "pass"
        # the every-order proof is universal's row: none of it runs here
        assert report.metrics == {}
        assert "referee_orders" not in report.evidence
        # one lex certificate, of the rational set: nothing is certified or
        # reduced over F_3, and no reduced basis is even looked up
        assert calls == [("lex:1,2,3,4", {g.polynomial for g in filter_generators(filt)})]
        assert verify._lex_reduced.cache_info() == (0, 0, None, 0)
        # warm, the rational certificate is shared: no certificate runs again
        calls.clear()
        assert check_finite_field(filt, 3).payload() == report.payload()
        assert calls == []

    def test_the_universal_control_needs_the_stability_test(self, monkeypatch):
        monkeypatch.setattr(verify, "_stable_under_permutations", lambda *args: True)
        (control,) = [r for r in negative_controls(seed=7) if r.check_id == "control_universal"]
        assert control.verdict == "fail"

    @pytest.mark.parametrize("p", verify.PRIMES)
    def test_universal_passes_every_filter_up_to_four_over_each_prime(self, p):
        # the every-order proof over F_p lives in universal's rows alone
        for n in (2, 3, 4):
            for filt in enumerate_lower_filters(n):
                assert_clean_pass(check_universal(filt, field=GF(p)), "universal")

    @pytest.mark.parametrize("p", verify.PRIMES)
    def test_the_control_fixture_is_refused_over_each_prime(self, p):
        # lower<=[2,1] without x3 - x1, as in the universal control
        gens = filter_generators(filter_closure(3, [(2, 1)], "lower"), field=GF(p))
        kept = [g for g in gens if g.tableau.rows != ((1, 2), (3,))]
        assert _order_failure(kept, 7) == self.STABILITY

    def test_a_set_stable_under_the_transposition_only_is_refused(self):
        # x1*x2 is fixed by x1 <-> x2, and the 3-cycle takes it to x2*x3
        x1x2 = Poly(3, QQ, {(1, 1, 0): 1})
        assert not verify._stable_under_permutations([x1x2], {verify._scaled(x1x2.terms, QQ)})
        assert _order_failure([_fixture(x1x2, [[1, 2, 3]])], 0) == self.STABILITY

    def test_a_set_stable_under_the_cycle_only_is_refused(self):
        # x1^2*x2, x2^2*x3, x3^2*x1 are permuted by the 3-cycle, and
        # x1 <-> x2 takes the first to x1*x2^2
        polys = [Poly(3, QQ, {m: 1}) for m in ((2, 1, 0), (0, 2, 1), (1, 0, 2))]
        keys = {verify._scaled(p.terms, p.field) for p in polys}
        assert not verify._stable_under_permutations(polys, keys)
        fixtures = [_fixture(p, [[1, 2, 3]]) for p in polys]
        assert _order_failure(fixtures, 0) == self.STABILITY

    def test_stability_agrees_with_every_permutation_up_to_four(self):
        # the two generators against all n! renamings, on every filter's set
        # and on every set left by dropping one of its generators
        def stable_under_all(polys, keys):
            n = polys[0].nvars
            return all(
                verify._scaled({tuple(m[i] for i in perm): c for m, c in p.terms.items()},
                               p.field) in keys
                for perm in itertools.permutations(range(n)) for p in polys)

        verdicts = set()
        for n in (2, 3, 4):
            for filt in enumerate_lower_filters(n):
                polys = [g.polynomial for g in filter_generators(filt)]
                for k in range(len(polys) + 1):
                    kept = polys[:k] + polys[k + 1:]
                    if not kept:
                        continue
                    keys = {verify._scaled(p.terms, p.field) for p in kept}
                    verdict = verify._stable_under_permutations(kept, keys)
                    assert verdict == stable_under_all(kept, keys)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestHilbertReferee:
    """A referee order accepts the set exactly when its leading monomials
    there have the Hilbert series of the lex ones (_leading_series), given
    the lex certificate. That verdict must be Buchberger's."""

    FIELDS = [QQ, GF(2), GF(3), GF(7)]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.text())
    def test_agrees_with_buchberger_on_every_filter_up_to_five(self, field):
        for n in (2, 3, 4, 5):
            orders = {o.text(): o for seed in range(8) for o in verify._referee_orders(n, seed)}
            for filt in enumerate_lower_filters(n):
                polys = [g.polynomial for g in filter_generators(filt, field=field)]
                lex_series = verify._leading_series(polys, lex_order(n))
                for order in orders.values():
                    assert ((verify._leading_series(polys, order) == lex_series)
                            == is_groebner_basis(polys, order)[0])

    def test_agrees_with_buchberger_on_lex_bases_with_a_generator_dropped(self):
        # the argument needs only homogeneous generators that are a lex
        # basis, so it must hold on these unstable sets too, where some
        # referee orders refuse
        verdicts = []
        for n in (3, 4):
            orders = {o.text(): o for seed in range(8) for o in verify._referee_orders(n, seed)}
            for filt in enumerate_lower_filters(n):
                polys = [g.polynomial for g in filter_generators(filt)]
                for k in range(len(polys)):
                    dropped = polys[:k] + polys[k + 1:]
                    if not dropped or not is_groebner_basis(dropped, lex_order(n))[0]:
                        continue
                    lex_series = verify._leading_series(dropped, lex_order(n))
                    for order in orders.values():
                        verdict = verify._leading_series(dropped, order) == lex_series
                        assert verdict == is_groebner_basis(dropped, order)[0]
                        verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_both_referees_refuse_a_lex_basis_under_grlex_with_x2_on_top(self, monkeypatch):
        # the universal control's set, lower<=[2,1] without x3 - x1: x2 - x1,
        # x3 - x2 and the Vandermonde product. It is a lex basis, but with x2
        # on top every leading monomial is a multiple of x2
        gens = filter_generators(filter_closure(3, [(2, 1)], "lower"))
        kept = [g for g in gens if g.tableau.rows != ((1, 2), (3,))]
        polys = [g.polynomial for g in kept]
        seed = next(s for s in itertools.count() if verify._referee_orders(3, s)[0].ranking[-1] == 2)
        grlex = verify._referee_orders(3, seed)[0]
        assert grlex.kind == "grlex"
        assert is_groebner_basis(polys, lex_order(3))[0]
        assert not is_groebner_basis(polys, grlex)[0]
        assert verify._leading_series(polys, grlex) != verify._leading_series(polys, lex_order(3))
        # with the stability test waved through, the proof reaches the
        # referees, and the grlex one refuses the set
        monkeypatch.setattr(verify, "_stable_under_permutations", lambda *args: True)
        assert _order_failure(kept, seed) == f"not a basis under referee {grlex.text()}"

    def test_a_filter_with_the_one_row_shape_has_the_unit_series(self):
        # shape [n] has no column of two, so its generator is the constant 1
        for n in (2, 3, 4):
            polys = [g.polynomial for g in filter_generators(filter_closure(n, [(n,)], "lower"))]
            assert Poly.constant(1, n) in polys
            for order in [lex_order(n), *verify._referee_orders(n, 0)]:
                assert verify._leading_series(polys, order) == ()


def _clear_lex_caches():
    verify._lex_certificate.cache_clear()
    verify._lex_reduced.cache_clear()
    verify._shape_basis.cache_clear()


class TestLexCertificate:
    """lexgb, universal, finite_field and restricted share one lex certificate
    per generator set in a process (_lex_certificate), finite_field that of
    the rational set at every prime; lexgb, restricted and reduced share one
    reduced basis (_lex_reduced). A row must not depend on what ran before
    it, and a changed set is certified afresh."""

    FIELDS = [QQ, GF(2), GF(3), GF(7)]
    FILTER = filter_closure(4, [(2, 2)], "lower")

    @staticmethod
    def assert_matches_the_slow_path(polys):
        order = lex_order(polys[0].nvars)
        ok, counts, failed = verify._lex_certificate(tuple(polys))
        fresh_ok, cert = is_groebner_basis(polys, order)
        assert (ok, dict(counts)) == (fresh_ok, cert["counts"])
        assert [dict(p) for p in failed] == [
            p for p in cert["pairs"] if p["status"] == "failed"][:5]
        if ok:
            # the reduced basis lexgb, restricted and reduced share is the
            # completion's
            assert verify._lex_reduced(tuple(polys)) == tuple(groebner_basis(polys, order))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.text())
    def test_matches_a_fresh_certificate_and_completion_up_to_four(self, field):
        _clear_lex_caches()
        for n in (2, 3, 4):
            for filt in enumerate_lower_filters(n):
                self.assert_matches_the_slow_path(
                    [g.polynomial for g in filter_generators(filt, field=field)])

    def test_matches_a_fresh_certificate_and_completion_at_five(self):
        _clear_lex_caches()
        for lam in verify.partitions_of(5):
            filt = filter_closure(5, [lam], "lower")
            self.assert_matches_the_slow_path([g.polynomial for g in filter_generators(filt)])

    def test_a_set_that_is_no_lex_basis_keeps_its_failed_pairs(self):
        # lower<=[2,2] without the generator of [[1,3],[2,4]] is no lex basis
        gens = [g.polynomial for g in filter_generators(self.FILTER)]
        self.assert_matches_the_slow_path(gens[:2] + gens[3:])
        assert not verify._lex_certificate(tuple(gens[:2] + gens[3:]))[0]

    def run(self, check: str, field):
        if check == "lexgb":
            return check_lexgb(self.FILTER, field=field)
        if check == "universal":
            return check_universal(self.FILTER, seed=3, field=field)
        # at every prime, finite_field takes the rational set's certificate
        return check_finite_field(self.FILTER, field.p or 3)

    @pytest.mark.parametrize("field", [QQ, GF(3)], ids=lambda f: f.text())
    @pytest.mark.parametrize("check", ["lexgb", "universal", "finite_field"])
    def test_a_row_is_the_same_cold_and_warm(self, check, field):
        _clear_lex_caches()
        cold = self.run(check, field).payload()
        _clear_lex_caches()
        # so finite_field meets the certificate the other two take over Q
        shared = QQ if check == "finite_field" else field
        for other in {"lexgb", "universal", "finite_field"} - {check}:
            assert self.run(other, shared).verdict == "pass"
        hits = verify._lex_certificate.cache_info().hits
        warm = self.run(check, field)
        assert verify._lex_certificate.cache_info().hits > hits
        assert warm.payload() == cold
        # no row shares a mutable piece of evidence with another
        for value in warm.evidence.values():
            if isinstance(value, (dict, list)):
                value.clear()
        assert self.run(check, field).payload() == cold

    def test_a_changed_generator_set_is_certified_afresh(self, monkeypatch):
        # the same filter label, one generator fewer: a certificate keyed on
        # the filter would pass it from the cache
        assert check_lexgb(self.FILTER).verdict == "pass"
        original = verify.filter_generators

        def dropped(f, *, mode="column_standard", field=QQ):
            gens = original(f, mode=mode, field=field)
            return gens[:2] + gens[3:] if mode == "column_standard" else gens

        monkeypatch.setattr(verify, "filter_generators", dropped)
        report = check_lexgb(self.FILTER)
        assert report.verdict == "fail"
        assert report.reason == "an S-polynomial did not reduce to zero under lex"
        assert report.evidence["generators"] == 7
        # the failed pairs are the kernel's records, and each row gets its own
        failed = report.evidence["failed_pairs"]
        assert failed and all(p["status"] == "failed" for p in failed)
        expected = json.dumps(report.payload(), sort_keys=True)
        failed[0].clear()
        assert json.dumps(check_lexgb(self.FILTER).payload(), sort_keys=True) == expected

    def test_universal_reduces_nothing(self):
        _clear_lex_caches()
        assert check_universal(self.FILTER, seed=3).verdict == "pass"
        assert verify._lex_certificate.cache_info().misses == 1
        assert verify._lex_reduced.cache_info().misses == 0

    def test_finite_field_completes_nothing_when_the_rational_set_certifies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a completion ran")

        monkeypatch.setattr(verify, "groebner_basis", refuse)
        _clear_lex_caches()
        for n in (2, 3, 4):
            for filt in enumerate_lower_filters(n):
                for p in verify.PRIMES:
                    assert_clean_pass(check_finite_field(filt, p), "finite_field")

    def test_finite_field_fails_when_the_rational_set_is_no_lex_basis(self, monkeypatch):
        # the F_3 set is whole; the rational one misses a generator, so it is
        # refused, not completed
        original = verify.filter_generators

        def dropped(f, *, mode="column_standard", field=QQ):
            gens = original(f, mode=mode, field=field)
            return gens[:2] + gens[3:] if field == QQ else gens

        monkeypatch.setattr(verify, "filter_generators", dropped)
        monkeypatch.setattr(verify, "groebner_basis", None)
        report = check_finite_field(self.FILTER, 3)
        assert report.verdict == "fail"
        assert report.reason == "the rational generators are not a lex basis"
        assert report.evidence["generators"] == 7


class TestFiniteFieldJudge:
    """finite_field decides every prime at once from the rational set: its
    coefficients are integers, its lex leading coefficients 1, it is a lex
    basis, and the F_p set is its termwise image. Each fixture below gives
    its F_3 side as that exact image, so only one test can refuse it; the
    lex-basis test is TestLexCertificate's, the image test the control's."""

    F3 = GF(3)

    @classmethod
    def judged(cls, polys_q):
        return verify._finite_field(tuple(Poly(g.nvars, cls.F3, g.terms) for g in polys_q),
                                    tuple(polys_q))

    def test_a_coefficient_that_is_not_an_integer_is_refused(self):
        # x2 - 1/2*x1: monic, a lex basis, and its image mod 3 exists
        polys = (parse_polynomial("x2 - 1/2*x1", 2),)
        assert self.judged(polys) == (
            "fail", "a rational coefficient is not an integer", {"generators": 1})

    def test_a_leading_coefficient_that_is_not_one_is_refused(self):
        # coprime leading terms x2 and x1 make a lex basis; 2 is a unit mod 3
        polys = (parse_polynomial("2*x2 + x1", 2), parse_polynomial("x1", 2))
        assert self.judged(polys) == (
            "fail", "a lex leading coefficient is not 1", {"generators": 2})

    CASES = [filt for n in (2, 3, 4) for filt in enumerate_lower_filters(n)] + [
        filter_closure(5, [lam], "lower") for lam in verify.partitions_of(5)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_agrees_with_the_route_it_replaced(self, p):
        # every lower filter up to 4 and every principal filter of 5; on a
        # passing row the corollary holds too: the image of the rational
        # reduced basis is the package's reduced basis over F_p
        for filt in self.CASES:
            polys_p = [g.polynomial for g in filter_generators(filt, field=GF(p))]
            polys_q = [g.polynomial for g in filter_generators(filt)]
            report = check_finite_field(filt, p)
            assert ref_finite_field(polys_p, polys_q)[0] == report.verdict
            if report.verdict == "pass":
                order = lex_order(filt.n)
                image = [Poly(g.nvars, GF(p), g.terms)
                         for g in reduce_groebner_basis(polys_q, order)]
                assert image == reduce_groebner_basis(polys_p, order)

    def test_the_control_fixture_fails_both_routes(self):
        q = (Poly(2, QQ, {(0, 1): 1, (1, 0): -2}),)
        f3 = [g.polynomial for g in filter_generators(filter_closure(2, [(1, 1)], "lower"),
                                                       field=self.F3)]
        image = "the F_p generators are not the images of the rational ones"
        assert verify._finite_field(tuple(f3), q)[:2] == ("fail", image)
        assert ref_finite_field(f3, list(q)) == (
            "fail", "the reduced basis mod p is not the image of the rational one")


class TestMembershipRoute:
    """restricted and containment decide from C(lam), the reduced lex basis of
    one shape's own generators (_shape_basis): restricted compares its
    certified set's reduced basis with C(lam), and containment divides C(mu)
    by C(lam) for each cover. Each fixture below keeps every other test
    passing, so only the comparison or one cover can refuse it."""

    DIFFERENT = "the restricted set generates a different ideal"

    def restricted_with(self, monkeypatch, change):
        original = verify.restricted_standard_generators
        monkeypatch.setattr(verify, "restricted_standard_generators",
                            lambda lam, **kw: change(original(lam, **kw)))
        return check_restricted((2, 2))

    @staticmethod
    def x1_minus_x2(n):
        return SpechtGenerator((n,), Tableau([list(range(1, n + 1))]),
                               parse_polynomial("x1 - x2", n))

    # the two corrupted restricted sets: [3,1] dominates [2,2], so with its
    # generators added the set is still a lex basis, of a larger ideal; and
    # without [2,2]'s own generators, [2,1,1]'s still form a lex basis
    CORRUPTED = {"larger": lambda gens: gens + shape_generators((3, 1), mode="standard"),
                 "smaller": lambda gens: tuple(g for g in gens if g.shape != (2, 2))}

    @pytest.mark.parametrize("kind", sorted(CORRUPTED))
    def test_another_lex_basis_fails_the_comparison(self, kind, monkeypatch):
        restricted = [g.polynomial for g in
                      self.CORRUPTED[kind](verify.restricted_standard_generators((2, 2)))]
        full = [g.polynomial for g in filter_generators(filter_closure(4, [(2, 2)], "lower"))]
        assert ref_restricted(restricted, full) == ("fail", self.DIFFERENT)
        report = self.restricted_with(monkeypatch, self.CORRUPTED[kind])
        assert (report.verdict, report.reason) == ("fail", self.DIFFERENT)
        assert report.evidence["pair_counts"]["failed"] == 0

    def test_a_linear_form_added_to_the_restricted_set_fails_the_comparison(self, monkeypatch):
        # x1 - x2 joins [2,2]'s restricted set, which stays a lex basis, of
        # an ideal that is not I_[2,2]
        report = self.restricted_with(monkeypatch, lambda gens: gens + (self.x1_minus_x2(4),))
        assert (report.verdict, report.reason) == ("fail", self.DIFFERENT)
        assert report.evidence["pair_counts"]["failed"] == 0

    def test_containment_divides_at_every_cover(self, monkeypatch):
        # x1 - x2 joins [2,1,1]'s generators: its ideal grows, so of the four
        # covers of 4 only [2,2] over [2,1,1] can see it
        original = verify.shape_generators

        def corrupted(lam, **kw):
            gens = original(lam, **kw)
            return gens + (self.x1_minus_x2(4),) if lam == (2, 1, 1) else gens

        monkeypatch.setattr(verify, "shape_generators", corrupted)
        report = check_containment(4)
        assert (report.verdict, report.reason) == (
            "fail", "a generator of [2,1,1] is outside the ideal of [2,2]")
        assert report.evidence["covering_pairs"] == 3

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.text())
    def test_agrees_with_the_routes_it_replaced(self, field):
        # every shape of n <= 6: containment against every comparable pair
        # with every standard generator divided, restricted against the
        # division of its principal filter's full set
        for n in range(1, 7):
            shapes = verify.partitions_of(n)
            own = {lam: [g.polynomial for g in shape_generators(lam, field=field)]
                   for lam in shapes}
            standard = {lam: [g.polynomial for g in shape_generators(
                lam, mode="standard", field=field)] for lam in shapes}
            report = check_containment(n, field=field)
            assert (report.verdict, report.reason) == ref_containment(own, standard)
            for lam in shapes:
                report = check_restricted(lam, field=field)
                restricted = [g.polynomial for g in
                              verify.restricted_standard_generators(lam, field=field)]
                full = [g.polynomial for g in filter_generators(
                    filter_closure(n, [lam], "lower"), field=field)]
                assert (report.verdict, report.reason) == ref_restricted(restricted, full)

    def test_restricted_completes_only_its_shape_and_lexgb_nothing(self, monkeypatch):
        # restricted builds no principal filter and completes only C([3,2])
        completed = []

        def spy(gens, order, **kw):
            completed.append(gens)
            return groebner_basis(gens, order, **kw)

        def refuse(*args, **kwargs):
            raise AssertionError("a principal filter was built")

        monkeypatch.setattr(verify, "groebner_basis", spy)
        monkeypatch.setattr(verify, "filter_generators", refuse)
        _clear_lex_caches()
        assert_clean_pass(check_restricted((3, 2)), "restricted")
        assert completed == [tuple(g.polynomial for g in shape_generators((3, 2)))]
        assert "pair_budget" in inspect.signature(check_restricted).parameters
        monkeypatch.undo()
        monkeypatch.setattr(verify, "groebner_basis", refuse)
        assert_clean_pass(check_lexgb(filter_closure(5, [(3, 2)], "lower")), "lexgb")
        assert "pair_budget" not in inspect.signature(check_lexgb).parameters

    def test_containment_completes_each_shape_once_per_process(self, monkeypatch):
        completed = []
        original = verify.groebner_basis
        monkeypatch.setattr(verify, "groebner_basis",
                            lambda gens, order, **kw: completed.append(gens) or original(
                                gens, order, **kw))
        _clear_lex_caches()
        cold = check_containment(5)
        assert_clean_pass(cold, "containment")
        assert len(completed) == 7 and set(completed) == {
            tuple(g.polynomial for g in shape_generators(lam)) for lam in verify.partitions_of(5)}
        assert check_containment(5).payload() == cold.payload()
        assert len(completed) == 7

    ROWS = {"containment": lambda budget: [check_containment(4, pair_budget=budget)],
            "restricted": lambda budget: [check_restricted(lam, pair_budget=budget)
                                          for lam in verify.partitions_of(4)]}

    @pytest.mark.parametrize("row, other", [("containment", "restricted"),
                                            ("restricted", "containment")])
    def test_a_row_is_the_same_cold_and_after_the_other_at_another_budget(self, row, other):
        # one pair completes no basis of 4 but [4]'s and [1^4]'s; warmed by
        # the other check at the default budget, a basis keyed without its
        # budget would pass the rows that ran out of pairs
        _clear_lex_caches()
        cold = [r.payload() for r in self.ROWS[row](1)]
        assert "error" in {r["verdict"] for r in cold}
        _clear_lex_caches()
        assert {r.verdict for r in self.ROWS[other](verify.DEFAULT_PAIR_BUDGET)} == {"pass"}
        assert verify._shape_basis.cache_info().currsize == 5
        assert [r.payload() for r in self.ROWS[row](1)] == cold


class TestVanishingEvidence:
    """The vanishing check counts the evaluations the reference loop counts,
    on a failing row as well as a passing one. Three points per stratum, not
    four: with x1 - x3 added [2,2] has four generators, and with as many
    points as generators a point-major loop would count the same as a
    generator-major one. The check samples all of a shape's strata before
    it values any of them, so every kind of row is also compared at
    n = 4, 5, 6 with seeds 0-2."""

    def compare(self, monkeypatch, change, n=4, seed=3):
        original = verify.shape_generators

        def patched(lam, **kwargs):
            return change(lam, original(lam, **kwargs))

        monkeypatch.setattr(verify, "shape_generators", patched)
        report = check_stratum_vanishing(n, samples=3, seed=seed)
        expected = ref_stratum_vanishing(n, lambda lam: [g.polynomial for g in patched(lam)],
                                         samples=3, seed=seed)
        assert (report.verdict, report.reason, report.evidence) == expected
        return report

    @staticmethod
    def second_generator(poly):
        """poly in second place among the generators of [2,2,1^(n-4)]."""
        lam0 = (2, 2) + (1,) * (poly.nvars - 4)

        def change(lam, gens):
            if lam != lam0:
                return gens
            return gens[:1] + (replace(gens[0], polynomial=poly),) + gens[1:]

        return change

    @staticmethod
    def spread(n):
        """n * sum x_i^2 - (sum x_i)^2, the sum of (x_i - x_j)^2 over i < j:
        zero only where all coordinates agree, so nonzero at every point
        of [n-1,1]."""
        xs = [Poly.variable(i, n) for i in range(1, n + 1)]
        return n * sum(x * x for x in xs) - sum(xs) ** 2

    @staticmethod
    def zero_on_its_own_stratum(n):
        """[1^n]'s generator in place of [2,2,1^(n-4)]'s: it vanishes wherever
        two coordinates agree, so on the stratum [2,2,1^(n-4)] itself."""
        lam0 = (2, 2) + (1,) * (n - 4)
        vandermonde = shape_generators((1,) * n)
        return lambda lam, gens: vandermonde if lam == lam0 else gens

    def test_the_passing_row(self, monkeypatch):
        report = self.compare(monkeypatch, lambda lam, gens: gens)
        assert_clean_pass(report, "vanishing")

    def test_a_generator_nonzero_on_a_stratum_it_does_not_dominate(self, monkeypatch):
        # x1 - x3 is zero on the stratum [4] and at the first sampled point
        # of [3,1], not the second
        x1_minus_x3 = Poly(4, QQ, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})
        report = self.compare(monkeypatch, self.second_generator(x1_minus_x3))
        assert report.verdict == "fail"
        assert report.reason == "a generator of [2,2] is nonzero on a point of type [3,1]"

    def test_every_generator_vanishing_on_a_dominated_stratum(self, monkeypatch):
        report = self.compare(monkeypatch, self.zero_on_its_own_stratum(4))
        assert report.verdict == "fail"
        assert report.reason == "no generator of [2,2] is nonzero on a point of type [2,2]"

    def row(self, kind, n):
        """The generator change of one kind of row at n, and its reason."""
        lam0 = "[2,2" + ",1" * (n - 4) + "]"
        if kind == "pass":
            return (lambda lam, gens: gens), None
        if kind == "nonzero":
            return (self.second_generator(self.spread(n)),
                    f"a generator of {lam0} is nonzero on a point of type [{n - 1},1]")
        return (self.zero_on_its_own_stratum(n),
                f"no generator of {lam0} is nonzero on a point of type {lam0}")

    @pytest.mark.parametrize("kind", ["all_zero", "nonzero", "pass"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_row_matches_the_reference(self, monkeypatch, n, seed, kind):
        change, reason = self.row(kind, n)
        report = self.compare(monkeypatch, change, n=n, seed=seed)
        assert report.verdict == ("pass" if reason is None else "fail")
        assert report.reason == reason


class TestMetrics:
    def test_metrics_stay_out_of_the_payload(self):
        report = check_universal(filter_closure(3, [(2, 1)], "lower"), seed=1)
        assert set(report.payload()) == {"schema", "check_id", "parameters", "verdict",
                                         "reason", "evidence"}
        record = report.record()
        assert set(record) == set(report.payload()) | {"timing_ms", "metrics"}
        # the time of each phase of the proof, in whole milliseconds
        assert set(record["metrics"]) == {"stability_ms", "lex_certificate_ms",
                                          "column_products_ms", "referees_ms"}
        assert all(isinstance(v, int) for v in record["metrics"].values())

    def test_reduced_and_descent_count_oracle_work(self):
        from spechtgb import strata

        strata._fold.cache_clear()
        filt = filter_closure(5, [(3, 1, 1)], "lower")
        report = check_reduced(filt)
        assert report.verdict == "pass"
        assert set(report.payload()) == {"schema", "check_id", "parameters", "verdict",
                                         "reason", "evidence"}
        # the complement keeps [3,2] and [4,1]: 10 + 5 subspaces, 14 eliminations
        assert report.metrics == {"oracle_eliminations": 14, "oracle_pairs": 747,
                                  "oracle_prefixes_reused": 0}
        # a repeat is served by the fold memo, as a reused prefix
        assert check_reduced(filt).metrics == {"oracle_eliminations": 0, "oracle_pairs": 0,
                                               "oracle_prefixes_reused": 1}
        # upper >= [4,1] keeps ([4,1],), the prefix just built
        report = check_reduced(filter_closure(5, [(3, 2)], "lower"))
        assert report.metrics == {"oracle_eliminations": 0, "oracle_pairs": 0,
                                  "oracle_prefixes_reused": 1}
        report = check_coefficient_descent(4)
        assert report.verdict == "pass"
        assert set(report.metrics) == {"oracle_eliminations", "oracle_pairs",
                                       "oracle_prefixes_reused"}
        assert report.metrics["oracle_eliminations"] > 0
        assert report.metrics["oracle_pairs"] > 0

    def test_json_rows_carry_metrics(self, capsys):
        assert main(["verify", "universal", "--n", "3", "--filter", "lower<=[2,1]",
                     "--field", "F5", "--report", "json"]) == 0
        (row,) = _json_rows(capsys)
        assert set(row["metrics"]) == {"stability_ms", "lex_certificate_ms",
                                       "column_products_ms", "referees_ms"}
        assert main(["verify", "finite_field", "--n", "3", "--filter", "lower<=[2,1]",
                     "--field", "F5", "--report", "json"]) == 0
        (row,) = _json_rows(capsys)
        assert row["metrics"] == {}
        assert main(["verify", "lexgb", "--n", "3", "--filter", "lower<=[2,1]",
                     "--report", "json"]) == 0
        (row,) = _json_rows(capsys)
        assert row["metrics"] == {}
