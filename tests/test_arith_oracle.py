"""The F_p[x] kernel and the integer resultant against sympy.

Polynomials are drawn small by hypothesis, over p = 2, 3 and a few larger
primes, and include non-squarefree inputs and degrees 0 and 1. The packed
Euclid (fp_gcd, fp_divmod and the squarefree walk) is compared with sympy's
galoistools on pairs that share a drawn factor, among them pairs that
different powers of x divide, and the Taylor shift with Poly.shift. The
packed distinct-degree split (_fp_ddf) is compared with gf_ddf_zassenhaus on
squarefree inputs, and fp_pow_mod with gf_pow_mod, including exponents 0
and 1, bases of degree above the modulus and powers that stay below the
modulus, so that no product needs reducing. Fixed cases cover the sizes of
the irreducible and linear-times-irreducible witnesses, degree n mod p for
(n, p) = (30, 31), (62, 37) and (82, 43), and degree 30 mod 2^127 - 1 and
2^521 - 1, where a packed slot is about 270 and 1,060 bits wide. The
resultant's fixed cases include degree gaps of 2 and 3 inside the
subresultant sequence and a zero resultant.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from golden_data import F0
from gspmax.arith import (
    _fp_ddf,
    fp_divmod,
    fp_factor,
    fp_gcd,
    fp_is_irreducible,
    fp_monic,
    fp_pow_mod,
    fp_squarefree_decomposition,
    poly_add,
    poly_compose_shift,
    poly_derivative,
    poly_mul,
    poly_reduce,
    poly_trim,
    resultant,
)

sympy = pytest.importorskip("sympy")
galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = sympy.polys.domains.ZZ

X = sympy.Symbol("x")
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31)
WITNESS_SIZES = ((30, 31), (62, 37), (82, 43))
# primes whose packed slots are far wider than a machine word
LARGE_PRIMES = (2**127 - 1, 2**521 - 1)
# the first seed whose _random_poly(n, p, seed) sympy calls irreducible
IRREDUCIBLE_SEED = {(30, 31): 23, (62, 37): 3, (82, 43): 43}


def _sympy_poly(f: list[int], p: int | None = None):
    if p is None:
        return sympy.Poly(list(reversed(f)), X)
    return sympy.Poly(list(reversed(f)), X, modulus=p)


def _ascending(poly, p: int) -> tuple[int, ...]:
    """Monic ascending coefficients mod p of a sympy polynomial over F_p."""
    return tuple(fp_monic([int(c) for c in reversed(poly.all_coeffs())], p))


def _oracle_resultant(a: list[int], b: list[int]) -> int:
    """sympy's resultant with the larger degree first.

    sympy 1.14 returns Res(b, a) for Res(a, b) when deg a < deg b, which
    differs in sign when both degrees are odd (Res(x + 1, x^3) comes out 1,
    while the Sylvester determinant is -1). Swapping first, with the sign
    (-1)^(deg a * deg b), keeps the oracle on the path sympy gets right.
    """
    if len(a) < len(b):
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
        return sign * _oracle_resultant(b, a)
    return int(sympy.resultant(_sympy_poly(a), _sympy_poly(b)))


def _oracle_factors(f: list[int], p: int) -> list[tuple[tuple[int, ...], int]]:
    _, factors = _sympy_poly(f, p).factor_list()
    return sorted((_ascending(q, p), e) for q, e in factors)


@st.composite
def nonzero_poly_mod_p(draw):
    """(f, p) with f = a * b^e mod p nonzero; e > 1 makes f non-squarefree."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    coeff = st.integers(0, p - 1)
    lead = st.integers(1, p - 1)
    a = draw(st.lists(coeff, max_size=6)) + [draw(lead)]
    b = draw(st.lists(coeff, max_size=2)) + [draw(lead)]
    e = draw(st.integers(1, 3))
    f = a
    for _ in range(e):
        f = poly_mul(f, b)
    return poly_reduce(f, p), p


def _random_poly(n: int, p: int, seed: int) -> list[int]:
    rng = random.Random(f"{n}/{p}/{seed}")
    return [rng.randrange(p) for _ in range(n)] + [1]


def _gf(f: list[int]) -> list[int]:
    """Descending coefficients, the order of sympy's galoistools."""
    return f[::-1]


def _oracle_sqf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """gf_sqf_list's monic squarefree parts, one per multiplicity, ascending."""
    parts: dict[int, list[int]] = {}
    for g, e in galoistools.gf_sqf_list(_gf(f), p, ZZ)[1]:
        parts[e] = galoistools.gf_mul(parts.get(e, [1]), g, p, ZZ)
    return [(_gf(g), e) for e, g in sorted(parts.items())]


def _assert_euclid_matches_sympy(a: list[int], b: list[int], p: int) -> None:
    assert fp_gcd(a, b, p) == _gf(galoistools.gf_gcd(_gf(a), _gf(b), p, ZZ))
    if b:
        q, r = galoistools.gf_div(_gf(a), _gf(b), p, ZZ)
        assert fp_divmod(a, b, p) == (_gf(q), _gf(r))


@st.composite
def poly_pair_mod_p(draw):
    """(a, b, p), reduced mod p, sharing a drawn factor so that gcds of positive degree occur."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=8)
    common = draw(coeffs)
    a = poly_reduce(poly_mul(draw(coeffs), common), p)
    b = poly_reduce(poly_mul(draw(coeffs), common), p)
    return a, b, p


# ---------------------------------------------------------------------------
# irreducibility


@settings(max_examples=300, deadline=None)
@given(nonzero_poly_mod_p())
def test_fp_is_irreducible_matches_sympy(case):
    f, p = case
    if len(f) == 1:
        assert not fp_is_irreducible(f, p)  # a unit is not irreducible
    else:
        assert fp_is_irreducible(f, p) == _sympy_poly(f, p).is_irreducible


@pytest.mark.parametrize("n, p", WITNESS_SIZES)
def test_fp_is_irreducible_matches_sympy_at_witness_sizes(n, p):
    cases = [_random_poly(n, p, seed) for seed in range(4)]
    cases.append(_random_poly(n, p, IRREDUCIBLE_SEED[n, p]))
    for f in cases:
        assert fp_is_irreducible(f, p) == _sympy_poly(f, p).is_irreducible
    assert fp_is_irreducible(cases[-1], p)


# ---------------------------------------------------------------------------
# factorization


@settings(max_examples=300, deadline=None)
@given(nonzero_poly_mod_p())
def test_fp_factor_matches_sympy(case):
    f, p = case
    fac = fp_factor(f, p)
    assert fac.unit == f[-1]
    assert sorted(fac.factors) == _oracle_factors(f, p)


@pytest.mark.parametrize("n, p", WITNESS_SIZES)
def test_fp_factor_matches_sympy_at_witness_sizes(n, p):
    f = _random_poly(n, p, 0)
    assert sorted(fp_factor(f, p).factors) == _oracle_factors(f, p)


def test_fp_factor_matches_sympy_on_a_square_at_witness_size():
    h = _random_poly(15, 31, 1)
    f = poly_reduce(poly_mul(poly_mul(h, h), [3, 1]), 31)
    assert sorted(fp_factor(f, 31).factors) == _oracle_factors(f, 31)


# ---------------------------------------------------------------------------
# packed Euclid: gcd, division and the squarefree walk


@settings(max_examples=300, deadline=None)
@given(poly_pair_mod_p())
def test_fp_gcd_and_divmod_match_sympy(case):
    a, b, p = case
    _assert_euclid_matches_sympy(a, b, p)
    _assert_euclid_matches_sympy(b, a, p)


@settings(max_examples=300, deadline=None)
@given(nonzero_poly_mod_p())
def test_fp_squarefree_decomposition_matches_sympy(case):
    f, p = case
    assert fp_squarefree_decomposition(f, p) == _oracle_sqf(f, p)


def _euclid_cases(n: int, p: int) -> list[tuple[list[int], list[int]]]:
    """Coprime and non-coprime degree-n pairs, f with f', a division by degree n / 2,
    and a pair that x^2 and x^3 divide, for the powers of x that gcd sets aside."""
    f, h = _random_poly(n, p, 0), _random_poly(n - 1, p, 1)
    common = _random_poly(n // 3, p, 2)
    shared = poly_mul(_random_poly(n - n // 3, p, 3), common, p)
    return [
        (f, h),
        (shared, poly_mul(_random_poly(n - n // 3 - 1, p, 4), common, p)),
        (f, poly_derivative(f, p)),
        (poly_mul(f, h, p), _random_poly(n // 2, p, 5)),
        (poly_mul([0, 0, 1], shared, p), poly_mul([0, 0, 0, 1], common, p)),
    ]


@pytest.mark.parametrize("n, p", WITNESS_SIZES + tuple((30, q) for q in LARGE_PRIMES))
def test_packed_euclid_matches_sympy_at_fixed_sizes(n, p):
    for a, b in _euclid_cases(n, p):
        _assert_euclid_matches_sympy(a, b, p)
    h = _random_poly(n // 2 - 1, p, 6)
    square = poly_mul(poly_mul(h, h, p), [3, 1], p)
    assert fp_squarefree_decomposition(square, p) == _oracle_sqf(square, p)


# ---------------------------------------------------------------------------
# packed distinct-degree split and modular powers


def _assert_ddf_matches_sympy(f: list[int], p: int) -> None:
    """f monic and squarefree mod p: the same (block, degree) pairs in the same order."""
    expected = [(_gf(g), d) for g, d in galoistools.gf_ddf_zassenhaus(_gf(f), p, ZZ)]
    assert list(_fp_ddf(f, p)) == expected


@settings(max_examples=300, deadline=None)
@given(nonzero_poly_mod_p())
def test_fp_ddf_matches_sympy_on_squarefree_parts(case):
    f, p = case
    for part, _ in fp_squarefree_decomposition(f, p):
        _assert_ddf_matches_sympy(part, p)


@pytest.mark.parametrize("n, p", WITNESS_SIZES)
def test_fp_ddf_matches_sympy_at_witness_sizes(n, p):
    linear = [1]
    for r in range(5):
        linear = poly_mul(linear, [p - r, 1], p)
    cases = [_random_poly(n, p, seed) for seed in range(4)]
    cases.append(poly_mul(linear, _random_poly(n - 5, p, IRREDUCIBLE_SEED[n, p]), p))
    cases.append(_random_poly(n, p, IRREDUCIBLE_SEED[n, p]))
    for f in cases:
        if galoistools.gf_sqf_p(_gf(f), p, ZZ):
            _assert_ddf_matches_sympy(f, p)


def _assert_pow_mod_matches_sympy(base: list[int], e: int, mod: list[int], p: int) -> None:
    expected = galoistools.gf_pow_mod(_gf(poly_trim(base)), e, _gf(mod), p, ZZ)
    assert fp_pow_mod(base, e, mod, p) == _gf(expected)


@st.composite
def pow_mod_case(draw):
    """(base, e, mod, p): a base of up to twice the modulus' degree, a nonzero modulus."""
    p = draw(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES))
    coeff = st.integers(0, p - 1)
    mod = draw(st.lists(coeff, max_size=8)) + [draw(st.integers(1, p - 1))]
    base = draw(st.lists(coeff, max_size=2 * len(mod)))
    e = draw(st.integers(0, 3) | st.integers(0, 10**6) | st.just(p))
    return base, e, mod, p


@settings(max_examples=300, deadline=None)
@given(pow_mod_case())
def test_fp_pow_mod_matches_sympy(case):
    _assert_pow_mod_matches_sympy(*case)


@pytest.mark.parametrize("p", SMALL_PRIMES + LARGE_PRIMES)
def test_fp_pow_mod_matches_sympy_at_fixed_cases(p):
    mod = _random_poly(16, p, 7)
    base = _random_poly(23, p, 8)  # degree above the modulus
    for e in (0, 1, 2, p, 2**40 + 3):
        _assert_pow_mod_matches_sympy(base, e, mod, p)
    # powers of degree below 16: no product needs reducing
    for small, e in (([0, 1], 15), ([0, 0, 1], 7), ([1, 1], 9), ([0, 1], p)):
        _assert_pow_mod_matches_sympy(small, e, mod, p)


# ---------------------------------------------------------------------------
# Taylor shift


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), max_size=12),
    st.integers(-10**4, 10**4),
    st.sampled_from((None, 2, 23**2, 37**3, 2**127 - 1)),
)
def test_poly_compose_shift_matches_sympy(a, s, m):
    shifted = [int(c) for c in reversed(_sympy_poly(a or [0]).shift(s).all_coeffs())]
    expected = poly_trim(shifted) if m is None else poly_reduce(shifted, m)
    assert poly_compose_shift(a, s, m) == expected


# ---------------------------------------------------------------------------
# resultants

int_poly = st.lists(st.integers(-20, 20), min_size=1, max_size=7).filter(lambda c: c[-1] != 0)


@settings(max_examples=300, deadline=None)
@given(int_poly, int_poly)
def test_resultant_matches_sympy(a, b):
    assert resultant(a, b) == _oracle_resultant(a, b)


def test_resultant_matches_sympy_on_the_screen_pairs_of_f0():
    d1 = poly_derivative(F0)
    d2 = poly_derivative(d1)
    for a, b in ((F0, d1), (d1, d2), (F0, d2)):
        assert resultant(a, b) == _oracle_resultant(a, b)


def test_resultant_matches_sympy_with_degree_gaps_inside_the_prs():
    # r1 = s r2 + r3 and b = q r1 + r2 with deg r2 = deg r1 - 3 and
    # deg r3 = deg r2 - 2, so the sequence from (b, r1) drops three degrees,
    # then two; a degree gap of 5 opens it
    r3 = [4, -3]
    r2 = [2, 7, -1, 5]
    r1 = poly_add(poly_mul([1, -2, 0, 3], r2), r3)
    b = poly_add(poly_mul([-3, 1, 2], r1), r2)
    a = poly_add(poly_mul([1, 0, -1, 2, 0, 1], b), [6, 0, -5, 1])
    for x, y in ((b, r1), (r1, b), (a, b), (a, r1), (r1, r2)):
        assert resultant(x, y) == _oracle_resultant(x, y)


def test_resultant_is_zero_on_a_common_factor():
    common = [1, 0, 1]
    a = poly_mul(common, [5, -2, 0, 1])
    b = poly_mul(common, [4, -1, 3])
    assert resultant(a, b) == 0 == _oracle_resultant(a, b)
    assert resultant(poly_mul(a, a), b) == 0 == _oracle_resultant(poly_mul(a, a), b)


@pytest.mark.parametrize("n", [30, 62])
def test_resultant_matches_sympy_at_witness_degrees(n):
    rng = random.Random(n)
    f = [rng.randint(-50, 50) for _ in range(n)] + [1]
    d1 = poly_derivative(f)
    assert resultant(f, d1) == _oracle_resultant(f, d1)
