"""Tests for hypothesis checking and maximality verdicts."""

import dataclasses
import functools
import random

import pytest

from golden_data import F0, N, PLAN_G6, TUPLE_G6
from gspmax import arith, cli, construct
from gspmax.arith import crt_integers, poly_mul
from gspmax.construct import FIXTURE_SEED, PrimePlan, assemble, build_certificate, plan_primes
from gspmax.goldbach import GoldbachTuple, two_g_eps_tuples
from gspmax.localtypes import LocalSpec, multiplicity_profile, witness_poly
from gspmax.verify import (
    EXCEPTIONAL_EXCLUDED,
    FLAG_NAMES,
    VerificationReport,
    check_hypotheses,
    verdict,
)


def _tuple_g6() -> GoldbachTuple:
    q1, q2, q4, q5, q3 = TUPLE_G6
    return GoldbachTuple(g=6, q1=q1, q2=q2, q4=q4, q5=q5, q3=q3)


@functools.cache
def _fixture_plan() -> PrimePlan:
    return PrimePlan(g=6, prime_tuple=_tuple_g6(), **PLAN_G6)


def _report_at_bound(f: list[int], plan: PrimePlan, bound: int) -> VerificationReport:
    """check_hypotheses(f, plan) with the triple-root screen taken to this bound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construct, "SCAN_BOUND", bound)
        return check_hypotheses(f, plan)


@functools.cache
def _golden_report() -> VerificationReport:
    return _report_at_bound(list(F0), _fixture_plan(), 10**4)


@functools.cache
def _short_scan_report() -> VerificationReport:
    """The golden report with a scan bound too small to factor G completely."""
    return _report_at_bound(list(F0), _fixture_plan(), 10)


def _refit(report: VerificationReport, overrides: dict[str, str], **fields):
    """Copy of a report with some flag statuses replaced."""
    flags = tuple(
        dataclasses.replace(fl, status=overrides[fl.name])
        if fl.name in overrides
        else fl
        for fl in report.flags
    )
    return dataclasses.replace(report, flags=flags, **fields)


class TestGoldenReport:
    def test_flags_in_declared_order(self):
        report = _golden_report()
        assert tuple(fl.name for fl in report.flags) == FLAG_NAMES

    def test_all_pass_except_conditional_scan(self):
        statuses = {fl.name: fl.status for fl in _golden_report().flags}
        assert statuses == dict.fromkeys(FLAG_NAMES, "pass")
        short = {fl.name: fl.status for fl in _short_scan_report().flags}
        assert short == {**statuses, "ss": "conditional"}

    def test_verdict_is_maximal_at_every_prime(self):
        v = _golden_report().verdict
        assert v.kind == "maximal-all-ell"
        assert v.excluded == ()
        assert v.conditional is False
        assert v.basis == "full-hypothesis-set"
        assert v.text == "mod-l image maximal for every prime l"
        short = _short_scan_report().verdict
        assert short.kind == "maximal-all-ell"
        assert short.conditional is True
        assert "conditional on no triple roots" in short.text

    def test_scan_record_contents(self):
        report = _golden_report()
        assert report.screen.scan_bound == 10**4
        assert report.screen.found_primes == (2, 17, 19, 37, 41)
        assert report.bad_primes == ((2, 14), (17, 11), (19, 7), (37, 13), (41, 11))
        assert report.screen.residual_cofactor == 1

    def test_symmetric_group_evidence_complete(self):
        mod_2 = _golden_report().mod_2
        assert mod_2.full_cycle and mod_2.near_cycle and mod_2.transposition
        assert mod_2.complete

    def test_admissibility_is_derived_not_flagged(self):
        report = _golden_report()
        assert report.admissible_derived is True
        assert report.partial_admissible is True
        assert "adm" not in {fl.name for fl in report.flags}
        with pytest.raises(KeyError):
            report.flag("adm")

    def test_flag_lookup_and_details(self):
        report = _golden_report()
        assert report.flag("p2").status == "pass"
        assert report.flag("2G+eps").detail == "14 = 7+7 = 3+11, q3 = 13"
        assert "type 2-{13} at 37: yes" in report.flag("p3").detail
        assert "generator mod 13, 3, 11: yes" in report.flag("p2'").detail
        assert report.flag("ss").detail == (
            "2-adic good-reduction family: yes; stray triple-root primes to 10000: none"
        )
        assert "composite cofactor of 285 bits remains above the scan bound" in (
            _short_scan_report().flag("ss").detail
        )

    def test_matches_certificate_output(self):
        cert = build_certificate(6, seed=FIXTURE_SEED)
        report = _report_at_bound(list(cert.f), cert.plan, 10**4)
        assert report == dataclasses.replace(_golden_report(), plan=cert.plan)


class TestPreconditions:
    def test_rejects_non_monic(self):
        f = list(F0)
        f[-1] = 2
        with pytest.raises(ValueError, match="monic"):
            check_hypotheses(f, _fixture_plan())

    def test_rejects_wrong_degree(self):
        f = [3] + [0] * 11 + [1]
        with pytest.raises(ValueError, match="monic of degree"):
            check_hypotheses(f, _fixture_plan())

    def test_rejects_repeated_factor(self):
        square = poly_mul([-1, 1], [-1, 1])
        f = poly_mul(square, [1] + [0] * 11 + [1])
        with pytest.raises(ValueError, match="squarefree"):
            check_hypotheses(f, _fixture_plan())

    def test_shared_derivative_root_disables_scan(self):
        f = [3] + [0] * 13 + [1]
        report = check_hypotheses(f, _fixture_plan())
        ss = report.flag("ss")
        assert ss.status == "fail"
        assert "derivatives share a root" in ss.detail
        assert report.screen.residual_cofactor == 0
        assert report.partial_admissible is False
        assert report.verdict.kind == "none"


class TestPerturbedInputs:
    def test_unit_shift_of_linear_coefficient_fails(self):
        f = list(F0)
        f[1] += 1
        report = check_hypotheses(f, _fixture_plan())
        fails = {fl.name for fl in report.flags if fl.status == "fail"}
        assert {"2T", "TT", "ss"} <= fails
        assert "2G+eps" not in fails
        assert "2-adic good-reduction family: no" in report.flag("ss").detail
        assert report.verdict.kind == "none"

    def test_a_transposition_at_p_t_alone_is_mod_2_evidence(self, capsys):
        # f is F0 mod N / 11^2 and x^14 + x + 1 mod 11^2, which has no double
        # root mod 11: type 1-{2} holds at p_t = 7 but not at p_t' = 11, so 2T
        # fails while the inertia at 7 still gives the mod-2 image a
        # transposition
        other = [1, 1] + [0] * 12 + [1]
        f = [crt_integers([(a, N // 11**2), (b, 11**2)]) for a, b in zip(F0, other)]
        report = check_hypotheses(f, _fixture_plan())
        assert report.flag("2T").status == "fail"
        assert report.flag("2T").detail == "type 1-{2} at 7: yes; at 11: no"
        assert report.mod_2.transposition
        cli._print_report(report)
        evidence = "mod-2 ingredients: full cycle yes, near cycle yes, transposition yes\n"
        assert evidence in capsys.readouterr().out

    def test_flat_polynomial_fails_many_flags(self):
        f = [-1] + [0] * 13 + [1]
        report = check_hypotheses(f, _fixture_plan())
        fails = {fl.name for fl in report.flags if fl.status == "fail"}
        assert {"2T", "TT", "p2", "p3", "p2'", "p3'", "ss"} <= fails
        assert report.verdict.kind == "none"


class TestVerdictTaxonomy:
    def test_symmetric_group_failure_excludes_two(self):
        report = _refit(_golden_report(), {"S_2g+2": "fail"})
        v = verdict(report)
        assert v.kind == "maximal-except"
        assert v.excluded == (2,)
        assert v.basis == "full-hypothesis-set"
        assert "outside {2}" in v.text

    def test_mod_three_failure_excludes_three(self):
        v = verdict(_refit(_golden_report(), {"3": "fail"}))
        assert v.kind == "maximal-except"
        assert v.excluded == (3,)

    def test_both_tail_failures_exclude_two_and_three(self):
        v = verdict(_refit(_golden_report(), {"3": "fail", "S_2g+2": "fail"}))
        assert v.excluded == (2, 3)
        assert "outside {2, 3}" in v.text

    def test_block_failure_with_partial_route_excludes_plan_primes(self):
        v = verdict(_refit(_golden_report(), {"p2'": "fail"}))
        assert v.kind == "maximal-except"
        assert v.basis == "partial-hypothesis-set"
        assert v.excluded == (2, 3, 7, 13, 19, 37)
        assert "generators mod 13" in v.text

    def test_block_failure_without_partial_route_gives_none(self):
        report = _refit(_golden_report(), {"p2'": "fail"}, partial_admissible=False)
        assert verdict(report).kind == "none"

    def test_transposition_failure_gives_none(self):
        v = verdict(_refit(_golden_report(), {"2T": "fail"}))
        assert v.kind == "none"
        assert v.basis == "insufficient"

    def test_conditional_scan_propagates_into_every_kind(self):
        kinds = set()
        for failing in ({}, {"S_2g+2": "fail"}, {"p2'": "fail"}, {"2T": "fail"}):
            v = verdict(_refit(_golden_report(), {**failing, "ss": "conditional"}))
            kinds.add((v.kind, v.basis))
            assert v.conditional is True
            if v.kind != "none":
                assert v.text.endswith(
                    " (conditional on no triple roots above the scan bound)"
                )
        assert kinds == {
            ("maximal-all-ell", "full-hypothesis-set"),
            ("maximal-except", "full-hypothesis-set"),
            ("maximal-except", "partial-hypothesis-set"),
            ("none", "insufficient"),
        }

    def test_unconditional_when_scan_passes(self):
        v = verdict(_refit(_golden_report(), {"ss": "pass"}))
        assert v.conditional is False
        assert "conditional" not in v.text


class TestPartialRoute:
    def _semistable_outside_core(self) -> tuple[list[int], PrimePlan]:
        specs = [
            LocalSpec(p=7, m=2, kind="type", t=1, qs=(2,)),
            LocalSpec(p=11, m=2, kind="type", t=1, qs=(2,)),
            LocalSpec(p=3, m=2, kind="double_roots", count=6),
            LocalSpec(p=5, m=2, kind="double_roots", count=6),
            LocalSpec(p=19, m=2, kind="type", t=1, qs=(7, 7)),
            LocalSpec(p=37, m=3, kind="type", t=2, qs=(13,)),
            LocalSpec(p=23, m=1, kind="irreducible"),
            LocalSpec(p=29, m=1, kind="linear_times_irreducible"),
            LocalSpec(p=2, m=14, kind="good_reduction_2"),
        ]
        items = [(s, witness_poly(s, 6, seed=0)) for s in specs]
        f, _ = assemble(items, 6)
        plan = PrimePlan(
            g=6,
            prime_tuple=two_g_eps_tuples(6)[0],
            p_t=7,
            p_t_prime=11,
            p_2=19,
            p_2_prime=149,
            p_3=37,
            p_3_prime=17,
            p_irr=23,
            p_lin=29,
        )
        return f, plan

    def test_unwitnessed_primed_blocks_fall_back_to_partial_verdict(self):
        f, plan = self._semistable_outside_core()
        report = check_hypotheses(f, plan)
        statuses = {fl.name: fl.status for fl in report.flags}
        assert statuses["p2'"] == "fail"
        assert statuses["p3'"] == "fail"
        for name in ("2G+eps", "2T", "TT", "p2", "p3", "3", "S_2g+2", "ss"):
            assert statuses[name] == "pass"
        assert "type 1-{3,11} at 149: no" in report.flag("p2'").detail
        assert report.partial_admissible is True
        assert report.bad_primes == ((2, 14), (19, 7), (37, 13))
        v = report.verdict
        assert v.kind == "maximal-except"
        assert v.basis == "partial-hypothesis-set"
        assert v.excluded == (2, 3, 7, 13, 19, 37)
        assert "semistable above the genus" in v.text


class TestExceptionalTable:
    def test_all_rows(self):
        assert {g: sorted(row) for g, row in EXCEPTIONAL_EXCLUDED.items()} == {
            2: [3, 5],
            3: [3, 5, 7],
            4: [5, 7],
            5: [5, 7, 11],
            7: [5, 11, 13],
            13: [11, 17, 23],
        }

    @pytest.mark.parametrize("g", [1, 6, 14])
    def test_missing_rows_raise(self, g):
        with pytest.raises(KeyError):
            EXCEPTIONAL_EXCLUDED[g]


class TestScanBounds:
    def test_widening_the_bound_keeps_verdict_and_grows_found_set(self):
        low = _short_scan_report()
        mid = _report_at_bound(list(F0), _fixture_plan(), 10**3)
        high = _golden_report()
        assert set(low.screen.found_primes) < set(mid.screen.found_primes)
        # G's largest prime is 41, so every bound past it finds the same set
        assert mid.screen == dataclasses.replace(high.screen, scan_bound=10**3)
        assert mid.bad_primes == high.bad_primes
        assert low.bad_primes == ((2, 14),)
        assert low.screen.residual_cofactor == 17**18 * 19**10 * 37**22 * 41**10
        assert low.flag("ss").status == "conditional"
        assert mid.flag("ss").status == high.flag("ss").status == "pass"
        assert low.verdict.kind == mid.verdict.kind == high.verdict.kind


class TestTotallyToricAgreement:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_flag_matches_reduction_profile(self, ell):
        assert sorted(multiplicity_profile(F0, ell)) == [1, 1] + [2] * 6
        assert _golden_report().flag("TT").status == "pass"


def _g10_plan() -> PrimePlan:
    return plan_primes(10, two_g_eps_tuples(10)[0])


class TestSharedScreen:
    @pytest.mark.parametrize("g, seed", [(6, FIXTURE_SEED), (6, 0), (8, 0), (10, 0)])
    def test_repair_screen_gives_the_same_report(self, g, seed, resultant_calls):
        cert = build_certificate(g, seed=seed)
        resultant_calls.clear()
        shared = check_hypotheses(list(cert.f), cert.plan, screen=cert.repair.screen)
        assert resultant_calls == []
        assert shared == check_hypotheses(list(cert.f), cert.plan)
        assert resultant_calls == [(2 * g + 2, 2 * g + 1), (2 * g + 3, 2 * g + 1)]


class TestComputeOnce:
    def test_one_discriminant_and_two_screen_resultants_per_check(self, resultant_calls):
        g = 10
        plan = _g10_plan()
        rng = random.Random(10)
        f = [rng.randint(-9, 9) for _ in range(2 * g + 2)] + [1]
        assert arith.fp_is_irreducible(arith.poly_reduce(f, plan.p_irr), plan.p_irr)
        report = check_hypotheses(f, plan)
        assert report.flag("TT").status == "fail"  # evaluated at 3, 5 and 7
        # irreducible mod p_irr, hence squarefree, so no Res(f, f'): only the
        # screen's Res(f', f'') and Res(f, f'')
        assert resultant_calls == [(22, 21), (23, 21)]

    def test_seed0_polynomial_takes_no_discriminant(self, resultant_calls):
        cert = build_certificate(10, seed=0)
        resultant_calls.clear()
        report = check_hypotheses(list(cert.f), cert.plan)
        assert report.verdict.kind == "maximal-all-ell"
        assert resultant_calls == [(22, 21), (23, 21)]

    def test_reducible_mod_p_irr_takes_the_discriminant(self, resultant_calls):
        plan = _g10_plan()
        # (x - 1)(x^21 + 1) has a rational root and is squarefree
        f = poly_mul([-1, 1], [1] + [0] * 20 + [1])
        assert not arith.fp_is_irreducible(arith.poly_reduce(f, plan.p_irr), plan.p_irr)
        report = check_hypotheses(f, plan)
        assert report.flag("S_2g+2").status == "fail"
        assert resultant_calls == [(23, 22), (22, 21), (23, 21)]

    def test_repeated_factor_still_raises(self, resultant_calls):
        plan = _g10_plan()
        f = poly_mul(poly_mul([-1, 1], [-1, 1]), [1] + [0] * 19 + [1])
        with pytest.raises(ValueError, match="squarefree"):
            check_hypotheses(f, plan)
        assert resultant_calls == [(23, 22)]
