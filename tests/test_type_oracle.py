"""An independent sympy oracle for the five type flags of check_hypotheses.

2T, p2, p3, p2' and p3' are restated here from their definitions, with
sympy 1.14 alone. f has type t-{q1,...,qk} at p when f mod p is a separable
part times distinct rational roots of multiplicities q1..qk, and each block
of the Hensel lift of that factorization mod p^(t+1), moved to its root, is
t-Eisenstein. The factorization mod p comes from gf_factor, the lift from
dup_zz_hensel_lift and the move from dup_shift; no gspmax arithmetic is used.
"""

import functools

import pytest
from sympy import ZZ
from sympy.polys.densetools import dup_shift
from sympy.polys.factortools import dup_zz_hensel_lift
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_pow

from gspmax.construct import build_certificate
from gspmax.localtypes import FIXTURE_SEED
from gspmax.verify import check_hypotheses

TYPE_FLAGS = ("2T", "p2", "p3", "p2'", "p3'")
CASES = [(6, FIXTURE_SEED)] + [(g, seed) for g in (6, 8, 10) for seed in range(5)]


def _factor_mod(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factors of monic f mod p (dense, descending) with multiplicities."""
    return gf_factor(gf_from_int_poly([ZZ(c) for c in reversed(f)], p), p, ZZ)[1]


def _repeated_roots(f: list[int], p: int) -> list[tuple[int, int]] | None:
    """(root, multiplicity) of each repeated factor of f mod p, or None if one is not linear."""
    repeated = [(fac, e) for fac, e in _factor_mod(f, p) if e > 1]
    if any(len(fac) != 2 for fac, _ in repeated):
        return None
    return [(-fac[1] % p, e) for fac, e in repeated]


def _type_holds(f: list[int], p: int, t: int, qs: list[int]) -> bool:
    """Whether f (ascending coefficients, monic) has type t-{qs} at p."""
    roots = _repeated_roots(f, p)
    if roots is None or sorted(e for _, e in roots) != sorted(qs):
        return False
    blocks = [gf_pow([ZZ(1), ZZ(-s % p)], e, p, ZZ) for s, e in roots]
    simple = [fac for fac, e in _factor_mod(f, p) if e == 1]
    dense = [ZZ(c) for c in reversed(f)]
    lifted = dup_zz_hensel_lift(ZZ(p), dense, blocks + simple, t + 1, ZZ)
    pt, pt1 = p**t, p ** (t + 1)
    for (s, _), block in zip(roots, lifted):
        a = [int(c) % pt1 for c in reversed(dup_shift(block, ZZ(s), ZZ))]
        if a[0] % pt or not a[0] or any(c % pt for c in a[1:-1]):
            return False
    return True


def flag_types(plan) -> dict[str, list[tuple[int, int, list[int]]]]:
    """The (p, t, qs) conditions of each type flag, from the prime tuple."""
    q = plan.prime_tuple
    return {
        "2T": [(plan.p_t, 1, [2]), (plan.p_t_prime, 1, [2])],
        "p2": [(plan.p_2, 1, [q.q1, q.q2])],
        "p3": [(plan.p_3, 2, [q.q3])],
        "p2'": [(plan.p_2_prime, 1, [q.q4, q.q5])],
        "p3'": [(plan.p_3_prime, 2, [q.q5])],
    }


def oracle_flags(f: list[int], plan) -> dict[str, str]:
    return {
        name: "pass" if all(_type_holds(f, *cond) for cond in conds) else "fail"
        for name, conds in flag_types(plan).items()
    }


@functools.cache
def _certificate(g: int, seed: int):
    return build_certificate(g, seed=seed)


def _reported(f: list[int], plan, **screen) -> dict[str, str]:
    report = check_hypotheses(f, plan, **screen)
    return {name: report.flag(name).status for name in TYPE_FLAGS}


def test_the_oracle_rejects_a_cofactor_root_and_a_deep_block():
    # (x^2 - 5)(x + 1) has type 1-{2} at 5; x^2 - 25 needs t = 2
    assert _type_holds([-5, -5, 1, 1], 5, 1, [2])
    assert not _type_holds([-25, 0, 1], 5, 1, [2])
    assert _type_holds([-25, 0, 1], 5, 2, [2])
    # (x - 1)^2 x^2 mod 5 has two blocks, not one
    assert not _type_holds([5, 0, 1, -2, 1], 5, 1, [2])


@pytest.mark.parametrize("g, seed", CASES)
def test_type_flags_match_the_oracle(g, seed):
    cert = _certificate(g, seed)
    f = list(cert.f)
    screen = cert.repair.screen
    reported = _reported(f, cert.plan, scan_bound=screen.scan_bound, screen=screen)
    assert reported == oracle_flags(f, cert.plan)
    assert set(reported.values()) == {"pass"}


@pytest.mark.parametrize("seed", [FIXTURE_SEED, 0], ids=["fixture", "seed0"])
@pytest.mark.parametrize("flag", TYPE_FLAGS)
def test_a_planted_mutant_fails_its_flag_in_both(flag, seed):
    # subtract from f the constant a_0 = f(s) mod p^(t+1) at the flag's first
    # block root s, through a constant that is 0 modulo every other spec
    # modulus: f mod p and f modulo the other primes stay, a_0 becomes 0
    cert = _certificate(6, seed)
    p, t, _ = flag_types(cert.plan)[flag][0]
    pt1 = p ** (t + 1)
    s = _repeated_roots(list(cert.f), p)[0][0]
    a0 = sum(c * s**i for i, c in enumerate(cert.f)) % pt1
    rest = cert.modulus // pt1
    f = list(cert.f)
    f[0] -= a0 * rest * pow(rest, -1, pt1)
    expected = {name: "fail" if name == flag else "pass" for name in TYPE_FLAGS}
    assert oracle_flags(f, cert.plan) == expected
    assert _reported(f, cert.plan) == expected
