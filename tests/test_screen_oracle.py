"""The triple-root screen against sympy's factorization over F_p."""

import functools
import random

import pytest

from golden_data import F0
from gspmax.arith import poly_derivative, poly_mul, primes_up_to, resultant
from gspmax.construct import SCAN_BOUND, build_certificate, screen_triple_roots
from gspmax.localtypes import multiplicity_profile
from gspmax.verify import check_hypotheses

sympy = pytest.importorskip("sympy")

ORACLE_BOUND = 2000


def _has_triple_root(f: list[int], p: int) -> bool:
    """True iff f mod p has a root of multiplicity >= 3, by sympy.

    The square-free decomposition over F_p carries the same exponents as
    the full factorization, and is much cheaper to compute.
    """
    poly = sympy.Poly(list(reversed(f)), sympy.Symbol("x"), modulus=p)
    return any(e >= 3 and part.degree() >= 1 for part, e in poly.sqf_list()[1])


def _triple_root_primes(f: list[int], bound: int) -> list[int]:
    return [p for p in primes_up_to(bound) if _has_triple_root(f, p)]


def _planted(p: int, seed: int) -> list[int]:
    """A monic degree-14 (x - a)^3 q(x) + p r(x) with a triple root at a mod p.

    q and r have coefficients in [-3, 3]; they are redrawn until f' and f''
    are coprime over Q, as the screen requires.
    """
    rng = random.Random(f"{p}/{seed}")
    while True:
        a = rng.randrange(p)
        cube = poly_mul(poly_mul([-a, 1], [-a, 1]), [-a, 1])
        q = [rng.randint(-3, 3) for _ in range(11)] + [1]
        r = [rng.randint(-3, 3) for _ in range(14)]
        f = [c + p * d for c, d in zip(poly_mul(cube, q), r + [0])]
        d1 = poly_derivative(f)
        if resultant(d1, poly_derivative(d1)) != 0:
            return f


@functools.cache
def _default_polynomial(g: int) -> tuple[int, ...]:
    return build_certificate(g, seed=0).f


def _cases():
    """(name, polynomial maker, primes that must carry a triple root)."""
    yield "F0", lambda: list(F0), (2, 17, 19, 37, 41)
    for g in (6, 8):
        yield f"seed-0 genus {g}", lambda g=g: list(_default_polynomial(g)), (2,)
    for p in (7, 101):
        for seed in (0, 1):
            yield f"planted mod {p} #{seed}", lambda p=p, seed=seed: _planted(p, seed), (p,)


@pytest.mark.parametrize(
    "make, planted", [c[1:] for c in _cases()], ids=[c[0] for c in _cases()]
)
def test_every_oracle_triple_root_prime_is_found(make, planted):
    f = make()
    screen = screen_triple_roots(f)
    assert screen.complete
    hits = _triple_root_primes(f, ORACLE_BOUND)
    assert set(planted) <= set(hits) <= set(screen.found_primes)
    for p in screen.found_primes:
        if p <= ORACLE_BOUND:
            assert (max(multiplicity_profile(f, p)) >= 3) == (p in hits), p


def test_resultant_primes_outside_the_gcd_carry_no_triple_root():
    d1 = poly_derivative(F0)
    res = resultant(d1, poly_derivative(d1))
    found = screen_triple_roots(F0).found_primes
    for p in (5087, 16741, 887749, 1461781):
        assert res % p == 0 and p not in found
        assert not _has_triple_root(F0, p), p


def test_triple_roots_past_the_bound_leave_the_screen_conditional():
    # f + N*h with h of degree 2 chosen by CRT so that x^3 divides it mod both
    # primes past SCAN_BOUND; trial division cannot reach them, so the screen
    # keeps their product as a composite cofactor and ss is only conditional
    cert = build_certificate(6, seed=0)
    n, past = cert.plan.modulus, (100003, 100019)
    m = past[0] * past[1]
    f = [c - n * (c * pow(n, -1, m) % m) for c in cert.f[:3]] + list(cert.f[3:])
    assert SCAN_BOUND < min(past)
    for p in past:
        assert _has_triple_root(f, p), p
    screen = screen_triple_roots(f)
    assert screen.found_primes == (2, 17, 19, 37, 41)
    assert screen.residual_cofactor == m
    report = check_hypotheses(f, cert.plan)
    assert report.flag("ss").status == "conditional"
    assert report.verdict.conditional
