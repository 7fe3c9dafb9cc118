import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gspmax import arith
from gspmax.arith import (
    crt_integers,
    factorize,
    fp_divmod,
    fp_factor,
    fp_gcd,
    fp_is_irreducible,
    fp_pow_mod,
    fp_squarefree_decomposition,
    hensel_lift_factorization,
    is_prime,
    is_primitive_root,
    pollard_factor,
    poly_derivative,
    poly_mul,
    poly_reduce,
    poly_sub,
    poly_trim,
    primes_up_to,
    resultant,
)

# ---------------------------------------------------------------------------
# independent oracles


def sylvester_resultant(a, b):
    """Resultant via fraction-free Bareiss elimination of the Sylvester matrix.

    Entirely separate route from the subresultant PRS in gspmax.arith.
    """
    a, b = poly_trim(list(a)), poly_trim(list(b))
    assert a and b
    m, n = len(a) - 1, len(b) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    M = [[0] * size for _ in range(size)]
    ad, bd = list(reversed(a)), list(reversed(b))
    for i in range(n):
        M[i][i : i + m + 1] = ad
    for i in range(m):
        M[n + i][i : i + n + 1] = bd
    sign, prev = 1, 1
    for k in range(size - 1):
        if M[k][k] == 0:
            for r in range(k + 1, size):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[size - 1][size - 1]


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_force_is_primitive_root(a, q):
    a %= q
    if math.gcd(a, q) != 1:
        return False
    order = 1
    x = a
    while x != 1:
        x = x * a % q
        order += 1
    return order == q - 1


# ---------------------------------------------------------------------------
# primes


def test_primes_up_to_small():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(100)) == 25
    assert primes_up_to(1) == []


def test_primes_up_to_matches_trial_division():
    table = set(primes_up_to(2000))
    for n in range(2001):
        assert (n in table) == trial_division_is_prime(n)


def test_is_prime_agrees_with_trial_division():
    for n in range(3000):
        assert is_prime(n) == trial_division_is_prime(n)


def test_is_prime_known_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    # > 2^64 path
    assert is_prime(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_is_prime_fixture_modulus_plus_one():
    # frozen: composite, with a factor small enough for trial division to see
    n = 2201590757511816436065484801
    assert not is_prime(n)
    assert n % 4603 == 0


def test_pollard_factor_complete():
    factors, cofactor = pollard_factor(19**2 * 41**2, float("inf"))
    assert factors == {19: 2, 41: 2}
    assert cofactor == 1


def test_pollard_factor_budget_zero_leaves_cofactor():
    n = 1000003 * 1000033
    factors, cofactor = pollard_factor(n, 0)
    assert factors == {}
    assert cofactor == n


def test_pollard_factor_mixed():
    n = 2**5 * 3 * 5
    factors, cofactor = pollard_factor(n, 10**5)
    assert cofactor == 1
    assert factors == {2: 5, 3: 1, 5: 1}


@given(st.integers(min_value=2, max_value=10**6))
def test_pollard_factor_reassembles(n):
    factors, cofactor = pollard_factor(n, 10**5)
    prod = cofactor
    for p, e in factors.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_raises_when_budget_exhausted():
    with pytest.raises(ValueError):
        factorize(1000003 * 1000033, budget=0)


def test_is_primitive_root_known():
    assert is_primitive_root(3, 7)
    assert not is_primitive_root(2, 7)
    assert not is_primitive_root(1, 7)
    assert not is_primitive_root(0, 7)
    assert is_primitive_root(1, 2)
    with pytest.raises(ValueError):
        is_primitive_root(3, 8)


def test_is_primitive_root_matches_brute_force():
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, q):
            assert is_primitive_root(a, q) == brute_force_is_primitive_root(a, q)


# ---------------------------------------------------------------------------
# CRT


def test_crt_basic():
    assert crt_integers([(2, 3), (3, 5)]) == 8
    assert crt_integers([(1, 2), (1, 3), (1, 5)]) == 1
    assert crt_integers([(0, 7)]) == 0


def test_crt_inconsistent():
    with pytest.raises(ValueError, match="inconsistent congruence"):
        crt_integers([(1, 4), (0, 2)])


def test_crt_consistent_non_coprime():
    assert crt_integers([(1, 4), (3, 6)]) == 9


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**9), st.sampled_from([3, 4, 5, 7, 11, 13, 169, 1024])),
        min_size=1,
        max_size=5,
    )
)
def test_crt_solution_satisfies_all(congruences):
    try:
        x = crt_integers(congruences)
    except ValueError:
        # inconsistent systems are allowed to raise; nothing more to check
        return
    lcm = 1
    for r, m in congruences:
        assert x % m == r % m
        lcm = lcm * m // math.gcd(lcm, m)
    assert 0 <= x < lcm


# ---------------------------------------------------------------------------
# resultants

poly_strategy = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=7).filter(
    lambda c: poly_trim(c)
)


def test_resultant_known_values():
    # Res(x-2, x^2-1) = (2)^2 - 1 = 3
    assert resultant([-2, 1], [-1, 0, 1]) == 3
    assert resultant([-1, 0, 1], [-4, 0, 1]) == 9
    assert resultant([-1, 0, 1], [-2, 1]) == 3
    # shared root -> 0
    assert resultant([-1, 0, 1], [1, 1]) == 0
    # constants
    assert resultant([5], [2, 0, 0, 1]) == 125
    assert resultant([2, 0, 0, 1], [5]) == 125
    with pytest.raises(ValueError):
        resultant([], [1, 2])


@settings(max_examples=300)
@given(poly_strategy, poly_strategy)
def test_resultant_matches_sylvester_oracle(a, b):
    a, b = poly_trim(a), poly_trim(b)
    assert resultant(a, b) == sylvester_resultant(a, b)


@given(poly_strategy, poly_strategy, poly_strategy)
def test_resultant_multiplicative(a, b, c):
    a, b, c = poly_trim(a), poly_trim(b), poly_trim(c)
    bc = poly_mul(b, c)
    assert resultant(a, bc) == resultant(a, b) * resultant(a, c)


@given(poly_strategy, poly_strategy)
def test_resultant_swap_sign(a, b):
    a, b = poly_trim(a), poly_trim(b)
    da, db = len(a) - 1, len(b) - 1
    assert resultant(a, b) == (-1) ** (da * db) * resultant(b, a)


def test_resultant_discriminant_style_big_inputs():
    # degree-13/12 derivative pair with ~90-bit coefficients stays exact
    rng = random.Random(1)
    f = [rng.randrange(-(10**27), 10**27) for _ in range(14)] + [1]
    fp_ = poly_derivative(f)
    fpp = poly_derivative(fp_)
    assert resultant(fp_, fpp) == sylvester_resultant(fp_, fpp)


# ---------------------------------------------------------------------------
# polynomials over F_p


def test_fp_divmod_roundtrip():
    p = 13
    a = [1, 2, 3, 4, 5]
    b = [7, 0, 2]
    q, r = fp_divmod(a, b, p)
    assert poly_reduce(poly_sub(a, poly_mul(q, b, p)), p) == r
    assert len(r) - 1 < len(b) - 1


def test_fp_gcd_known():
    p = 7
    a = poly_mul([1, 1], [2, 1])  # (x+1)(x+2)
    b = poly_mul([1, 1], [3, 1])
    assert fp_gcd(a, b, p) == [1, 1]
    assert fp_gcd(a, [1], p) == [1]


def test_squarefree_decomposition_known():
    # f = (x+1)^2 * (x+3) * (x+2)^5 over F_5; the power-of-p factor exercises
    # the derivative-vanishing branch
    p = 5
    f = [1]
    for factor, e in (([1, 1], 2), ([3, 1], 1), ([2, 1], 5)):
        for _ in range(e):
            f = poly_mul(f, factor)
    f = poly_reduce(f, p)
    dec = dict((e, g) for g, e in fp_squarefree_decomposition(f, p))
    assert dec[1] == [3, 1]
    assert dec[2] == [1, 1]
    assert dec[5] == [2, 1]


@settings(max_examples=120)
@given(
    st.integers(min_value=0, max_value=len([2, 3, 5, 7, 13]) - 1),
    st.lists(st.tuples(st.integers(0, 30), st.integers(1, 4)), min_size=1, max_size=3),
)
def test_squarefree_decomposition_reconstructs(pi, spec):
    p = [2, 3, 5, 7, 13][pi]
    f = [1]
    for root, mult in spec:
        for _ in range(mult):
            f = poly_mul(f, [root % p, 1], p)
    dec = fp_squarefree_decomposition(f, p)
    rebuilt = [1]
    for g, e in dec:
        assert g[-1] == 1
        # squarefree: gcd(g, g') = 1 (g' vanishes only for constants here)
        gd = poly_derivative(g, p)
        if len(g) > 1:
            assert gd == [] or fp_gcd(g, gd, p) == [1]
        for _ in range(e):
            rebuilt = poly_mul(rebuilt, g, p)
    # pairwise coprime
    polys = [g for g, _ in dec]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert fp_gcd(polys[i], polys[j], p) == [1]
    assert rebuilt == poly_reduce(f, p)


def test_fp_factor_known():
    # x^2 + 1 mod 5 = (x+2)(x+3)
    fac = fp_factor([1, 0, 1], 5)
    assert fac.unit == 1
    assert fac.factors == (((2, 1), 1), ((3, 1), 1))
    # x^2 + 1 mod 7 irreducible
    fac = fp_factor([1, 0, 1], 7)
    assert fac.factors == (((1, 0, 1), 1),)


def test_fp_factor_with_unit_and_multiplicity():
    p = 11
    f = poly_reduce(poly_mul([3], poly_mul(poly_mul([1, 1], [1, 1]), [5, 1])), p)
    fac = fp_factor(f, p)
    assert fac.unit == 3
    assert fac.factors == (((1, 1), 2), ((5, 1), 1))


def test_fp_factor_rejects_bad_input():
    with pytest.raises(ValueError, match="not prime"):
        fp_factor([1, 1], 6)
    with pytest.raises(ValueError, match="zero polynomial"):
        fp_factor([7, 14], 7)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(0, 12), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=6),
)
def test_fp_factor_reconstructs_and_certifies(pi, coeffs, lead):
    p = [2, 3, 5, 13][pi]
    f = poly_reduce(coeffs + [lead], p)
    if not f:
        return
    fac = fp_factor(f, p)
    rebuilt = [fac.unit]
    for poly, e in fac.factors:
        assert fp_is_irreducible(list(poly), p)
        for _ in range(e):
            rebuilt = poly_mul(rebuilt, list(poly), p)
    assert rebuilt == f


def test_fp_is_irreducible_known():
    assert fp_is_irreducible([1, 1, 1], 2)  # x^2+x+1
    assert not fp_is_irreducible([1, 0, 1], 2)  # (x+1)^2
    assert fp_is_irreducible([1, 1], 13)
    assert not fp_is_irreducible([1], 13)


# ---------------------------------------------------------------------------
# the packed modular power and the early-abort irreducibility test


def schoolbook_pow_mod(base, e, mod, p):
    """base^e mod (mod) over F_p by unpacked square and multiply."""
    result = [1]
    base = fp_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = fp_divmod(poly_mul(result, base, p), mod, p)[1]
        base = fp_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


KERNEL_PRIMES = (2, 3, 99991)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(KERNEL_PRIMES),
    st.lists(st.integers(0, 10**5), max_size=10),
    st.lists(st.integers(0, 10**5), min_size=1, max_size=7),
    st.integers(1, 10**5),
    st.one_of(st.integers(0, 70), st.integers(0, 10**15)),
)
def test_fp_pow_mod_matches_schoolbook(p, base, mod_tail, lead, e):
    # non-monic moduli of degree 0..7, bases of any degree including zero
    mod = poly_reduce(mod_tail + [lead], p)
    if not mod:
        return
    assert fp_pow_mod(base, e, mod, p) == schoolbook_pow_mod(base, e, mod, p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_fp_pow_mod_edges(p):
    # leading coefficient p - 1: non-monic for every p > 2
    cubic, linear, constant = [1, 2 % p, 0, p - 1], [3 % p, p - 1], [p - 1]
    long_base = [c % p for c in range(1, 9)]  # degree 7 >= 3
    cases = [
        ([5, 1], 0, cubic),
        ([5, 1], 1, cubic),
        ([], 0, cubic),
        ([], 5, cubic),
        (long_base, 1, cubic),
        (long_base, p**3 + 2, cubic),
        ([4, 7, 1], 10, linear),
        ([4, 7, 1], 10, constant),
        ([4, 7, 1], 0, constant),
    ]
    for base, e, mod in cases:
        assert fp_pow_mod(base, e, mod, p) == schoolbook_pow_mod(base, e, mod, p), (base, e, mod)
    assert fp_pow_mod([5, 1], 0, cubic, p) == [1]
    assert fp_pow_mod([], 5, cubic, p) == []
    assert fp_pow_mod([4, 7, 1], 10, constant, p) == []


def test_fp_pow_mod_rejects_zero_modulus_and_negative_exponent():
    with pytest.raises(ZeroDivisionError):
        fp_pow_mod([1, 1], 3, [7], 7)
    with pytest.raises(ValueError, match="negative exponent"):
        fp_pow_mod([1, 1], -1, [1, 0, 1], 7)


# degree 14 = 2g + 2 for g = 6: the genus-6 fixture's irreducible witness mod 23
IRREDUCIBLE_MOD_23 = [5, 22, 1, 19, 18, 1, 16, 5, 1, 0, 0, 0, 0, 0, 1]


def test_fp_is_irreducible_on_squares_and_repeated_roots():
    p = 23
    h = IRREDUCIBLE_MOD_23
    assert fp_is_irreducible(h, p)
    assert fp_is_irreducible([p - 3, 1], p)  # degree 1
    assert fp_is_irreducible(poly_mul([7], h, p), p)  # not monic
    assert not fp_is_irreducible(poly_mul(h, h, p), p)
    square = poly_mul([p - 3, 1], [p - 3, 1], p)
    assert not fp_is_irreducible(square, p)
    assert not fp_is_irreducible(poly_mul(square, h, p), p)
    assert not fp_is_irreducible([], p)


def test_root_in_f_p_is_rejected_after_one_frobenius_step(monkeypatch):
    calls = []
    real = arith._Slots.pow_mod

    def counting(slots, base, e, mod, n):
        calls.append(e)
        return real(slots, base, e, mod, n)

    monkeypatch.setattr(arith._Slots, "pow_mod", counting)
    p = 23
    with_root = poly_mul([p - 4, 1], IRREDUCIBLE_MOD_23, p)  # root 4, degree 15
    assert not fp_is_irreducible(with_root, p)
    assert calls == [p]
    calls.clear()
    assert fp_is_irreducible(IRREDUCIBLE_MOD_23, p)
    assert calls == [p] * 7  # one Frobenius step per d <= 14 / 2


# ---------------------------------------------------------------------------
# Hensel lifting


def test_hensel_known_square_root_lift():
    # x^2 - 7 = (x-1)(x+1) mod 3; mod 9 the factors become x-4 and x+4
    lifts = hensel_lift_factorization([-7, 0, 1], [[-1, 1], [1, 1]], 3, 2)
    assert lifts == [[5, 1], [4, 1]]


def test_hensel_single_factor_returns_reduction():
    f = [-7, 0, 1]
    assert hensel_lift_factorization(f, [f], 7, 2) == [[42, 0, 1]]


def test_hensel_rejects_non_coprime():
    with pytest.raises(ValueError, match="non-coprime"):
        hensel_lift_factorization([1, 2, 1], [[1, 1], [1, 1]], 5, 2)


def test_hensel_rejects_wrong_product():
    with pytest.raises(ValueError, match="do not multiply"):
        hensel_lift_factorization([1, 0, 1], [[1, 1], [2, 1]], 5, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.sets(st.integers(0, 6), min_size=2, max_size=4),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=3),
)
def test_hensel_lift_properties(pi, roots, m, noise_seed):
    p = [7, 11, 13][pi]
    roots = sorted(roots)
    fbar = [1]
    for r in roots:
        fbar = poly_mul(fbar, [r, 1], p)
    # perturb f above p so the lift has to do real work
    rng = random.Random(noise_seed)
    f = [c + p * rng.randrange(p ** (m - 1)) for c in fbar]
    f[-1] = 1
    factors = [[r, 1] for r in roots]
    lifts = hensel_lift_factorization(f, factors, p, m)
    pm = p**m
    prod = [1]
    for g, orig in zip(lifts, factors):
        assert g[-1] == 1
        assert poly_reduce(g, p) == poly_reduce(orig, p)
        prod = poly_mul(prod, g, pm)
    assert prod == poly_reduce(f, pm)
    # idempotence: lifting the lifts changes nothing
    again = hensel_lift_factorization(poly_reduce(f, pm), lifts, p, m)
    assert again == lifts
