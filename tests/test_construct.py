"""Tests for prime planning, CRT assembly, and triple-root repair."""

import dataclasses

import pytest

from golden_data import F0, N, PLAN_G6, TUPLE_G6
from gspmax.arith import crt_integers, poly_derivative, poly_mul, resultant
from gspmax.construct import (
    Certificate,
    ExceptionalGenusError,
    PrimePlan,
    assemble,
    build_certificate,
    fix_multiplicities,
    local_spec_list,
    plan_primes,
    screen_triple_roots,
)
from gspmax.goldbach import GoldbachTuple, two_g_eps_tuples
from gspmax.localtypes import (
    FIXTURE_SEED,
    ConstructionError,
    LocalSpec,
    multiplicity_profile,
    witness_poly,
)


def _tuple_g6() -> GoldbachTuple:
    q1, q2, q4, q5, q3 = TUPLE_G6
    return GoldbachTuple(g=6, q1=q1, q2=q2, q4=q4, q5=q5, q3=q3)


def _mult_order(a: int, q: int) -> int:
    a %= q
    assert a != 0
    k, x = 1, a
    while x != 1:
        x = x * a % q
        k += 1
    return k


def _fixture_plan() -> PrimePlan:
    return plan_primes(6, _tuple_g6(), seed=FIXTURE_SEED)


class TestPlanPrimes:
    def test_fixture_plan_matches_reference(self):
        plan = _fixture_plan()
        got = {
            "p_t": plan.p_t,
            "p_t_prime": plan.p_t_prime,
            "p_2": plan.p_2,
            "p_2_prime": plan.p_2_prime,
            "p_3": plan.p_3,
            "p_3_prime": plan.p_3_prime,
            "p_irr": plan.p_irr,
            "p_lin": plan.p_lin,
        }
        assert got == PLAN_G6

    def test_fixture_plan_limited_to_genus_6(self):
        tup8 = two_g_eps_tuples(8)[0]
        with pytest.raises(ValueError, match="reference plan"):
            plan_primes(8, tup8, seed=FIXTURE_SEED)

    def test_default_plan_g6(self):
        plan = plan_primes(6, _tuple_g6(), seed=0)
        assert plan.all_primes == (7, 11, 19, 41, 37, 17, 13, 23)

    def test_plan_orders_brute_force(self):
        plan = _fixture_plan()
        tup = plan.prime_tuple
        for p, q in [
            (plan.p_2, tup.q1),
            (plan.p_2, tup.q2),
            (plan.p_2, tup.q3),
            (plan.p_3, tup.q3),
            (plan.p_2_prime, tup.q3),
            (plan.p_2_prime, tup.q4),
            (plan.p_2_prime, tup.q5),
            (plan.p_3_prime, tup.q5),
        ]:
            assert _mult_order(p, q) == q - 1
        assert plan.p_2 % 3 == 1
        assert plan.p_3 % 3 == 1

    def test_plan_rejects_wrong_residue_mod_3(self):
        # 59 passes every generator condition for (7, 7, 13) but is 2 mod 3
        assert _mult_order(59, 7) == 6
        assert _mult_order(59, 13) == 12
        with pytest.raises(ValueError, match="1 mod 3"):
            dataclasses.replace(_fixture_plan(), p_2=59)

    def test_plan_rejects_non_generator(self):
        # 31 is 1 mod 3 but has order 4 mod 13
        with pytest.raises(ValueError, match="primitive root"):
            dataclasses.replace(_fixture_plan(), p_3=31)

    def test_plan_rejects_small_and_reserved_primes(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_fixture_plan(), p_t=5)
        with pytest.raises(ValueError, match="2g \\+ 2"):
            dataclasses.replace(_fixture_plan(), p_3_prime=13)
        with pytest.raises(ValueError, match="distinct"):
            dataclasses.replace(_fixture_plan(), p_irr=29)

    def test_plan_rejects_mismatched_genus(self):
        tup8 = two_g_eps_tuples(8)[0]
        with pytest.raises(ValueError, match="different genus"):
            plan_primes(6, tup8, seed=0)


class TestLocalSpecList:
    def test_fixture_menu_order_and_moduli(self):
        specs = local_spec_list(_fixture_plan())
        assert [(s.p, s.kind) for s in specs] == [
            (7, "type"),
            (11, "type"),
            (3, "double_roots"),
            (5, "double_roots"),
            (19, "type"),
            (41, "type"),
            (37, "type"),
            (17, "type"),
            (23, "irreducible"),
            (29, "linear_times_irreducible"),
            (2, "good_reduction_2"),
        ]
        assert [s.modulus for s in specs] == [
            49, 121, 9, 25, 361, 1681, 50653, 4913, 23, 29, 2**14,
        ]
        product = 1
        for s in specs:
            product *= s.modulus
        assert product == N

    def test_menu_block_patterns_follow_the_tuple(self):
        specs = local_spec_list(_fixture_plan())
        by_p = {s.p: s for s in specs}
        assert by_p[19].qs == (7, 7) and by_p[19].t == 1
        assert by_p[41].qs == (3, 11) and by_p[41].t == 1
        assert by_p[37].qs == (13,) and by_p[37].t == 2
        assert by_p[17].qs == (11,) and by_p[17].t == 2
        assert by_p[3].count == 6 and by_p[5].count == 6

    def test_menu_moduli_product_for_other_genera(self):
        for g in (8, 9, 10):
            plan = plan_primes(g, two_g_eps_tuples(g)[0], seed=0)
            specs = local_spec_list(plan)
            product = 1
            for s in specs:
                product *= s.modulus
            _, modulus = assemble(
                [(s, witness_poly(s, g, seed=0)) for s in specs], g
            )
            assert product == modulus


class TestAssemble:
    def _fixture_items(self):
        specs = local_spec_list(_fixture_plan())
        return [(s, witness_poly(s, 6, seed=FIXTURE_SEED)) for s in specs]

    def test_fixture_assembly_is_bit_exact(self):
        f0, modulus = assemble(self._fixture_items(), 6)
        assert f0 == F0
        assert modulus == N

    def test_assembly_is_order_independent(self):
        items = self._fixture_items()
        forward = assemble(items, 6)
        backward = assemble(list(reversed(items)), 6)
        assert forward == backward

    def test_single_spec_assembly(self):
        spec = LocalSpec(p=2, kind="good_reduction_2", m=14)
        f0, modulus = assemble([(spec, witness_poly(spec, 6))], 6)
        assert f0 == [2**12] + [0] * 12 + [2, 1]
        assert modulus == 2**14

    def test_assembly_rejects_bad_input(self):
        spec = LocalSpec(p=2, kind="good_reduction_2", m=14)
        wit = witness_poly(spec, 6)
        with pytest.raises(ValueError, match="no congruences"):
            assemble([], 6)
        with pytest.raises(ValueError, match="inconsistent degrees"):
            assemble([(spec, wit)], 7)
        with pytest.raises(ValueError, match="coprime"):
            assemble([(spec, wit), (spec, wit)], 6)


class TestScreenTripleRoots:
    def test_golden_screen_small_bound(self):
        screen = screen_triple_roots(F0, scan_bound=10**4)
        assert screen.found_primes == (2, 17, 19, 37, 41)
        assert screen.residual_cofactor == 1
        assert screen.complete
        planted = 17**18 * 19**10 * 37**22 * 41**10
        assert screen.candidate_gcd == 2**158 * planted
        # 7 and 5087 divide Res(f', f'') but not G: no triple root there
        d1 = poly_derivative(F0)
        assert resultant(d1, poly_derivative(d1)) % (7 * 5087) == 0
        assert screen.candidate_gcd % 7 and screen.candidate_gcd % 5087
        short = screen_triple_roots(F0, scan_bound=10)
        assert short.found_primes == (2,)
        assert short.residual_cofactor == planted
        assert not short.complete

    def test_screen_rejects_degenerate_derivatives(self):
        with pytest.raises(ValueError, match="share a root"):
            screen_triple_roots([0] * 14 + [1])


class TestFixMultiplicities:
    def test_golden_passes_through_unchanged(self):
        rec = fix_multiplicities(
            F0, N, 6, exceptions=(17, 19, 37, 41), scan_bound=10**4
        )
        assert list(rec.f) == F0
        assert rec.z == 0
        assert rec.linear_nudges == 0
        assert rec.pre_stage == ()
        assert rec.repaired_primes == ()
        assert rec.found_primes == (2, 17, 19, 37, 41)
        assert rec.residual_cofactor == 1
        assert rec.status == "clean"

    def test_planted_triple_root_is_repaired(self):
        p = 101
        planted = [1]
        for r in (1, 1, 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            planted = poly_mul(planted, [(-r) % p, 1], p)
        assert max(multiplicity_profile(planted, p)) == 3
        f_test = [
            crt_integers([(F0[i], N), (planted[i], p)]) for i in range(14)
        ] + [1]
        rec = fix_multiplicities(
            f_test, N, 6, exceptions=(17, 19, 37, 41), scan_bound=10**4
        )
        assert rec.repaired_primes == (p,)
        assert rec.z > 0
        assert max(multiplicity_profile(list(rec.f), p)) <= 2
        assert all((a - b) % N == 0 for a, b in zip(rec.f, f_test))

    def test_small_prime_pre_stage(self):
        n = (2**14) * 9 * 25 * 121
        clean = [3, 1] + [0] * 12 + [1]
        planted = [1]
        for r in (1, 1, 1, 2, 3, 4, 5, 6, 0, 2, 3, 4, 5, 6):
            planted = poly_mul(planted, [(-r) % 7, 1], 7)
        f_test = [crt_integers([(clean[i], n), (planted[i], 7)]) for i in range(14)]
        f_test.append(1)
        rec = fix_multiplicities(f_test, n, 6, scan_bound=10**3)
        assert len(rec.pre_stage) == 1 and rec.pre_stage[0][0] == 7
        assert max(multiplicity_profile(list(rec.f), 7)) <= 2
        assert all((a - b) % n == 0 for a, b in zip(rec.f, f_test))

    def test_linear_nudge_restores_coprime_derivatives(self):
        # x^14 + 4096 has f' and f'' sharing the root 0; mod 7 it is a 7th
        # power, so 7 must sit inside n and the exception list
        n = (2**14) * 49
        f_test = [4096] + [0] * 13 + [1]
        rec = fix_multiplicities(
            f_test, n, 6, exceptions=(7,), scan_bound=10**3
        )
        assert rec.linear_nudges == 1
        assert rec.n_tilde == n * 3 * 5 * 11
        assert rec.f[1] == rec.n_tilde
        d1 = poly_derivative(list(rec.f))
        assert resultant(d1, poly_derivative(d1)) != 0
        assert all((a - b) % n == 0 for a, b in zip(rec.f, f_test))

    def test_unrepairable_root_at_modulus_divisor(self):
        # (x - 1)^3 keeps a triple root mod 3, and 3 divides n
        n = (2**14) * 9 * 25 * 121
        cube = [1]
        for _ in range(3):
            cube = poly_mul(cube, [-1, 1])
        f_test = poly_mul(cube, [3] + [0] * 10 + [1])
        assert len(f_test) == 15
        with pytest.raises(ValueError, match="dividing n"):
            fix_multiplicities(f_test, n, 6, scan_bound=10**3)

    def test_double_root_mod_2_needs_no_pre_stage(self):
        # n is odd, so 2 is a small prime outside n; (x + 1)^2 (x^12 + x + 1)
        # has a double but no triple root mod 2, where f'' = 0 identically
        n = 9 * 25 * 121
        f_test = poly_mul([1, 2, 1], [1, 1] + [0] * 10 + [1])
        assert max(multiplicity_profile(f_test, 2)) == 2
        rec = fix_multiplicities(f_test, n, 6, scan_bound=10**3)
        assert rec.pre_stage == ()
        assert list(rec.f) == f_test

    def test_vanishing_second_derivative_is_repaired(self):
        # g = 2, p = 5 = 2g + 1: x^6 + x^5 + 5x^2 = x^5 (x + 1) mod 5 has
        # f'' = 0 mod 5; a constant shift by 1 leaves it squarefree there
        f_test = [0, 0, 5, 0, 0, 1, 1]
        assert max(multiplicity_profile(f_test, 5)) == 5
        rec = fix_multiplicities(f_test, 1, 2)
        assert rec.pre_stage == ()
        assert rec.repaired_primes == (5,)
        assert rec.f[0] % 5 == 1 and rec.f[1:] == tuple(f_test[1:])
        assert max(multiplicity_profile(list(rec.f), 5)) <= 2

    def test_unclearable_triple_root_mod_2_is_construction_failure(self):
        # g = 1, n = 1: x^4 + 2x^3 + 2x + 1 = (x + 1)^4 mod 2, and both
        # constant shifts mod 2, (x + 1)^4 and x^4, keep a quadruple root
        with pytest.raises(ConstructionError, match="no constant shift clears .* mod 2"):
            fix_multiplicities([1, 2, 0, 2, 1], 1, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="monic"):
            fix_multiplicities([1] * 14 + [2], N, 6)
        with pytest.raises(ValueError, match="exceptions"):
            fix_multiplicities(F0, N, 6, exceptions=(101,))


class TestBuildCertificate:
    def test_fixture_certificate_is_golden(self):
        cert = build_certificate(6, seed=FIXTURE_SEED)
        assert list(cert.f0) == F0
        assert cert.modulus == N
        assert cert.f == cert.f0
        assert cert.repair.z == 0 and cert.repair.linear_nudges == 0
        assert cert.repair.status == "clean"
        assert len(cert.specs) == len(cert.witnesses) == 11
        assert cert.plan.p_irr == 23 and cert.plan.p_lin == 29

    def test_default_certificate_g6(self):
        cert = build_certificate(6, seed=0)
        assert cert.plan.p_irr == 13 and cert.plan.p_lin == 23
        assert cert.modulus % (13 * 23) == 0
        assert list(cert.f0) != F0
        assert all((a - b) % cert.modulus == 0 for a, b in zip(cert.f, cert.f0))

    def test_exceptional_genus_raises(self):
        with pytest.raises(ExceptionalGenusError, match="prime tuple"):
            build_certificate(7)
        with pytest.raises(ExceptionalGenusError):
            build_certificate(13)

    def test_certificate_exposes_exception_primes(self):
        cert = build_certificate(6, seed=FIXTURE_SEED)
        assert cert.plan.exceptions == (17, 19, 37, 41)
