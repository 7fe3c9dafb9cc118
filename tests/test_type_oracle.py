"""An independent sympy oracle for eight flags of check_hypotheses and its verdict.

2T, p2, p3, p2', p3', TT, S_2g+2 and ss are restated here from their
definitions, with sympy 1.14 alone. f has type t-{q1,...,qk} at p when f mod
p is a separable part times distinct rational roots of multiplicities
q1..qk, and each block of the Hensel lift of that factorization mod p^(t+1),
moved to its root, is t-Eisenstein. The factorization mod p comes from
gf_factor, the lift from dup_zz_hensel_lift and the move from dup_shift. TT
holds when, at each odd prime ell <= g, every root of f mod ell has
multiplicity at most 2 and at least g of them are double, as gf_sqf_list
counts them. S_2g+2 holds when gf_factor finds f irreducible mod p_irr and a
linear times an irreducible factor, both simple, mod p_lin. ss holds when
f lies in the 2-adic good-reduction family and, at each prime the
program's triple-root screen found outside 2 and the four block-pattern
primes, gf_sqf_list finds no root of multiplicity 3 or more; it is
conditional when that screen left a composite cofactor. The verdict kind
and basis are restated from these flags. No gspmax arithmetic is used.
"""

import functools

import pytest
from sympy import ZZ, primerange
from sympy.polys.densetools import dup_shift
from sympy.polys.factortools import dup_zz_hensel_lift
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_pow, gf_sqf_list

from gspmax.construct import FIXTURE_SEED, build_certificate
from gspmax.verify import check_hypotheses

TYPE_FLAGS = ("2T", "p2", "p3", "p2'", "p3'")
FLAGS = TYPE_FLAGS + ("TT", "S_2g+2")
CASES = [(6, FIXTURE_SEED)] + [(g, seed) for g in (6, 8, 10) for seed in range(5)]


def _dense_mod(f: list[int], p: int) -> list:
    """f (ascending coefficients) mod p as a dense, descending sympy polynomial."""
    return gf_from_int_poly([ZZ(c) for c in reversed(f)], p)


def _factor_mod(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factors of monic f mod p (dense, descending) with multiplicities."""
    return gf_factor(_dense_mod(f, p), p, ZZ)[1]


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


def _totally_toric(f: list[int], ell: int, g: int) -> bool:
    """Whether every root of f mod ell has multiplicity at most 2 and at least g are double."""
    parts = gf_sqf_list(_dense_mod(f, ell), ell, ZZ)[1]
    doubles = sum(len(part) - 1 for part, e in parts if e == 2)
    return all(e <= 2 for _, e in parts) and doubles >= g


def _factor_shape(f: list[int], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor of f mod p, sorted."""
    return sorted((len(fac) - 1, e) for fac, e in _factor_mod(f, p))


def _max_multiplicity(f: list[int], p: int) -> int:
    """The largest multiplicity of a root of f mod p, as gf_sqf_list finds it."""
    return max(e for _, e in gf_sqf_list(_dense_mod(f, p), p, ZZ)[1])


def _good_reduction_2(f: list[int], g: int) -> bool:
    """a_0 = 2^(2g) mod 2^(2g+2), a_(2g+1) = 2 mod 4, 2^(2g+2-i) divides a_i for 1 <= i <= 2g."""
    n = 2 * g + 2
    return (
        (f[0] - 2 ** (n - 2)) % 2**n == 0
        and f[n - 1] % 4 == 2
        and all(f[i] % 2 ** (n - i) == 0 for i in range(1, n - 1))
    )


def oracle_ss(f: list[int], plan, screen) -> str:
    """ss from the 2-adic family and the multiplicities at the screen's found primes."""
    blocks = {plan.p_2, plan.p_3, plan.p_2_prime, plan.p_3_prime}
    stray = [
        p for p in screen.found_primes
        if p != 2 and p not in blocks and _max_multiplicity(f, p) >= 3
    ]
    if not _good_reduction_2(f, plan.g) or stray or screen.residual_cofactor == 0:
        return "fail"
    return "pass" if screen.residual_cofactor == 1 else "conditional"


def oracle_verdict(f: list[int], plan, screen, flags: dict[str, str]) -> tuple[str, str]:
    """(kind, basis) of the verdict, from the oracle's flags; 2G+eps and 3 hold for any plan.

    Every flag of the core set passing gives every prime, or every prime but
    2 when S_2g+2 fails. Otherwise 2T, p2 and p3 passing give the partial
    set when f is in the 2-adic family, the screen was taken, and each found
    prime with a triple root, other than 2, p_2 and p_3, is p_2' or p_3'
    with its flag passing.
    """
    ok = {name: status != "fail" for name, status in flags.items()}
    if all(ok[name] for name in ("2T", "TT", "p2", "p3", "p2'", "p3'", "ss")):
        kind = "maximal-all-ell" if ok["S_2g+2"] else "maximal-except"
        return kind, "full-hypothesis-set"
    allowed = {plan.p_2_prime: ok["p2'"], plan.p_3_prime: ok["p3'"]}
    admissible = (
        _good_reduction_2(f, plan.g)
        and screen.residual_cofactor != 0
        and all(
            allowed.get(p, False)
            for p in screen.found_primes
            if p not in (2, plan.p_2, plan.p_3) and _max_multiplicity(f, p) >= 3
        )
    )
    if ok["2T"] and ok["p2"] and ok["p3"] and admissible:
        return "maximal-except", "partial-hypothesis-set"
    return "none", "insufficient"


def oracle_flags(f: list[int], plan) -> dict[str, str]:
    holds = {
        name: all(_type_holds(f, *cond) for cond in conds)
        for name, conds in flag_types(plan).items()
    }
    g, deg = plan.g, len(f) - 1
    holds["TT"] = all(_totally_toric(f, ell, g) for ell in primerange(3, g + 1))
    irreducible = _factor_shape(f, plan.p_irr) == [(deg, 1)]
    linear_times_irreducible = _factor_shape(f, plan.p_lin) == [(1, 1), (deg - 1, 1)]
    holds["S_2g+2"] = irreducible and linear_times_irreducible
    return {name: "pass" if ok else "fail" for name, ok in holds.items()}


@functools.cache
def _certificate(g: int, seed: int):
    return build_certificate(g, seed=seed)


def _statuses(report) -> dict[str, str]:
    return {name: report.flag(name).status for name in FLAGS}


def _assert_ss_and_verdict_match_the_oracle(f: list[int], report, flags: dict[str, str]) -> None:
    """The report's ss flag and verdict equal the oracle's, given the oracle's other flags."""
    ss = oracle_ss(f, report.plan, report.screen)
    assert report.flag("ss").status == ss
    verdict = oracle_verdict(f, report.plan, report.screen, flags | {"ss": ss})
    assert (report.verdict.kind, report.verdict.basis) == verdict


def _assert_certificate_matches_the_oracle(g: int, seed: int, names: tuple[str, ...]) -> None:
    """The named flags of a built certificate, as reported and by the oracle, all pass."""
    cert = _certificate(g, seed)
    f = list(cert.f)
    screen = cert.repair.screen
    reported = _statuses(
        check_hypotheses(f, cert.plan, screen=screen)
    )
    oracle = oracle_flags(f, cert.plan)
    assert {name: reported[name] for name in names} == {name: oracle[name] for name in names}
    assert {reported[name] for name in names} == {"pass"}


def _idempotent(cert, modulus: int) -> int:
    """The integer that is 1 mod this spec modulus and 0 mod every other one."""
    rest = cert.plan.modulus // modulus
    return rest * pow(rest, -1, modulus)


def test_the_oracle_rejects_a_cofactor_root_and_a_deep_block():
    # (x^2 - 5)(x + 1) has type 1-{2} at 5; x^2 - 25 needs t = 2
    assert _type_holds([-5, -5, 1, 1], 5, 1, [2])
    assert not _type_holds([-25, 0, 1], 5, 1, [2])
    assert _type_holds([-25, 0, 1], 5, 2, [2])
    # (x - 1)^2 x^2 mod 5 has two blocks, not one
    assert not _type_holds([5, 0, 1, -2, 1], 5, 1, [2])


@pytest.mark.parametrize("g, seed", CASES)
def test_type_flags_match_the_oracle(g, seed):
    _assert_certificate_matches_the_oracle(g, seed, TYPE_FLAGS)


@pytest.mark.parametrize("g, seed", CASES)
def test_tt_and_s_flags_match_the_oracle(g, seed):
    _assert_certificate_matches_the_oracle(g, seed, ("TT", "S_2g+2"))


@pytest.mark.parametrize("g, seed", CASES)
def test_ss_and_verdict_match_the_oracle(g, seed):
    cert = _certificate(g, seed)
    f = list(cert.f)
    screen = cert.repair.screen
    report = check_hypotheses(f, cert.plan, screen=screen)
    _assert_ss_and_verdict_match_the_oracle(f, report, oracle_flags(f, cert.plan))
    assert report.flag("ss").status == "pass"


@pytest.mark.parametrize("seed", [FIXTURE_SEED, 0], ids=["fixture", "seed0"])
def test_a_planted_2_adic_mutant_fails_ss_in_both(seed):
    # adding 2^(2g) through the constant that is 1 mod 2^(2g+2) and 0 modulo
    # every other spec modulus moves a_0 to 2^(2g+1) mod 2^(2g+2): f leaves
    # the 2-adic family and stays as it was modulo the other spec moduli
    cert = _certificate(6, seed)
    f = list(cert.f)
    f[0] += 2**12 * _idempotent(cert, 2**14)
    report = check_hypotheses(f, cert.plan)
    flags = oracle_flags(f, cert.plan)
    assert flags == _statuses(report) == {name: "pass" for name in FLAGS}
    assert report.flag("ss").status == "fail"
    _assert_ss_and_verdict_match_the_oracle(f, report, flags)
    assert report.verdict.kind == "none"


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
    f = list(cert.f)
    f[0] -= a0 * _idempotent(cert, pt1)
    expected = {name: "fail" if name == flag else "pass" for name in FLAGS}
    report = check_hypotheses(f, cert.plan)
    flags = oracle_flags(f, cert.plan)
    assert flags == _statuses(report) == expected
    _assert_ss_and_verdict_match_the_oracle(f, report, flags)


@pytest.mark.parametrize("seed", [FIXTURE_SEED, 0], ids=["fixture", "seed0"])
@pytest.mark.parametrize(
    "flag, slot",
    [("TT", None), ("S_2g+2", "p_irr"), ("S_2g+2", "p_lin")],
    ids=["TT", "S_2g+2", "S_2g+2-p_lin"],
)
def test_a_planted_mutant_fails_tt_or_s_in_both(flag, slot, seed):
    # through the constant e that is 1 modulo one spec modulus m and 0
    # modulo every other, each lower coefficient c of f loses e*(c mod m):
    # f becomes x^(2g+2) mod m, one root of multiplicity 2g + 2, and stays
    # as it was modulo the other spec moduli. m is 9 (ell = 3) for TT, and
    # p_irr or p_lin for S_2g+2.
    cert = _certificate(6, seed)
    m = getattr(cert.plan, slot) if slot else 9
    e = _idempotent(cert, m)
    f = [c - e * (c % m) for c in cert.f[:-1]] + [1]
    expected = {name: "fail" if name == flag else "pass" for name in FLAGS}
    report = check_hypotheses(f, cert.plan)
    flags = oracle_flags(f, cert.plan)
    assert flags == _statuses(report) == expected
    _assert_ss_and_verdict_match_the_oracle(f, report, flags)
