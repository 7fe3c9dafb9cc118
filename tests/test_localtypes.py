"""Tests for local shape recognition and witness construction."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gspmax.arith import (
    fp_divmod,
    fp_factor,
    fp_is_irreducible,
    hensel_lift_factorization,
    poly_compose_shift,
    poly_mul,
    poly_reduce,
    poly_trim,
)
from gspmax import localtypes
from gspmax.localtypes import (
    FIXTURE_WITNESSES_G6,
    LocalSpec,
    good_reduction_at_2,
    is_t_eisenstein,
    multiplicity_profile,
    recognize_type,
    witness_poly,
)

# the eleven hand-pinned genus-6 witnesses, expanded independently
FIXTURES_G6 = {
    7: [28, 0, 17, 0, 26, 35, 32, 16, 38, 5, 2, 0, 42, 0, 1],
    11: [99, 66, 57, 71, 72, 104, 82, 112, 114, 1, 1, 0, 110, 0, 1],
    19: [19, 228, 38, 57, 304, 323, 133, 322, 7, 340, 35, 326, 21, 354, 1],
    41: [41, 1558, 123, 1640, 0, 0, 0, 0, 0, 0, 0, 1639, 3, 1678, 1],
    37: [49284, 49284, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    17: [867, 4624, 0, 4624, 0, 0, 0, 0, 0, 0, 0, 14, 1, 0, 1],
    23: [5, 22, 1, 19, 18, 1, 16, 5, 1, 0, 0, 0, 0, 0, 1],
    29: [27, 5, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],
    3: [0, 5, 5, 0, 4, 4, 1, 0, 4, 7, 6, 5, 4, 8, 1],
    5: [0, 21, 4, 21, 13, 11, 22, 11, 14, 5, 20, 6, 2, 24, 1],
    2: [4096, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1],
}

SPECS_G6 = {
    7: LocalSpec(p=7, kind="type", m=2, t=1, qs=(2,)),
    11: LocalSpec(p=11, kind="type", m=2, t=1, qs=(2,)),
    19: LocalSpec(p=19, kind="type", m=2, t=1, qs=(7, 7)),
    41: LocalSpec(p=41, kind="type", m=2, t=1, qs=(3, 11)),
    37: LocalSpec(p=37, kind="type", m=3, t=2, qs=(13,)),
    17: LocalSpec(p=17, kind="type", m=3, t=2, qs=(11,)),
    23: LocalSpec(p=23, kind="irreducible", m=1),
    29: LocalSpec(p=29, kind="linear_times_irreducible", m=1),
    3: LocalSpec(p=3, kind="double_roots", m=2, count=6),
    5: LocalSpec(p=5, kind="double_roots", m=2, count=6),
    2: LocalSpec(p=2, kind="good_reduction_2", m=14),
}


def _vp(n: int, p: int) -> int:
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def x_power_minus(deg: int, const: int) -> list[int]:
    return [-const] + [0] * (deg - 1) + [1]


def test_fixture_witnesses_match_frozen_expansion():
    assert FIXTURE_WITNESSES_G6 == FIXTURES_G6


def test_eisenstein_examples():
    assert is_t_eisenstein(x_power_minus(7, 19), 19, 1)
    assert is_t_eisenstein(x_power_minus(13, 37**2), 37, 2)
    assert not is_t_eisenstein(x_power_minus(13, 37**2), 37, 1)
    assert not is_t_eisenstein(x_power_minus(2, 5**2), 5, 1)
    assert is_t_eisenstein(x_power_minus(2, 5**2), 5, 2)
    assert is_t_eisenstein([-5, -5, 1], 5, 1)
    assert not is_t_eisenstein([-5, 1, 1], 5, 1)
    assert not is_t_eisenstein([1], 5, 1)


def test_eisenstein_input_checks():
    with pytest.raises(ValueError, match="monic"):
        is_t_eisenstein([-19, 2], 19, 1)
    with pytest.raises(ValueError, match="not prime"):
        is_t_eisenstein([-6, 1], 6, 1)
    with pytest.raises(ValueError, match="t must be"):
        is_t_eisenstein([-19, 1], 19, 0)


def test_eisenstein_against_valuation_definition():
    rng = random.Random(0)
    p, t = 5, 2
    for _ in range(300):
        deg = rng.randrange(2, 7)
        f = [rng.randrange(p ** (t + 1)) for _ in range(deg)] + [1]
        expected = (
            _vp(f[0], p) == t and all(_vp(c, p) >= t for c in f[1:-1])
        )
        assert is_t_eisenstein(f, p, t) == expected, f


def test_multiplicity_profile_merges_across_factors():
    # (x^2 + 1)(x - 3)^2 mod 5 collapses to (x - 2)(x - 3)^3
    f = poly_mul([1, 0, 1], poly_mul([-3, 1], [-3, 1]))
    assert multiplicity_profile(f, 5) == [1, 3]


def test_multiplicity_profile_counts_closure_roots():
    # x^2 (x - 1)^3 (x^2 + 2) mod 7: the irreducible quadratic has two
    # conjugate simple roots
    f = [0, 0, 1]
    for _ in range(3):
        f = poly_mul(f, [-1, 1])
    f = poly_mul(f, [2, 0, 1])
    assert multiplicity_profile(f, 7) == [1, 1, 2, 3]


def test_multiplicity_profile_on_fixtures():
    assert multiplicity_profile(FIXTURES_G6[3], 3) == [1, 1, 2, 2, 2, 2, 2, 2]
    assert multiplicity_profile(FIXTURES_G6[5], 5) == [1, 1, 2, 2, 2, 2, 2, 2]
    assert multiplicity_profile(FIXTURES_G6[19], 19) == [7, 7]
    assert multiplicity_profile(FIXTURES_G6[37], 37) == [1, 13]
    assert multiplicity_profile(FIXTURES_G6[23], 23) == [1] * 14


def test_multiplicity_profile_rejects_zero():
    with pytest.raises(ValueError, match="zero mod p"):
        multiplicity_profile([7, 49], 7)


def test_recognize_type_on_fixtures():
    for p, t, qs, shifts in [
        (7, 1, [2], (0,)),
        (11, 1, [2], (0,)),
        (19, 1, [7, 7], (0, 1)),
        (41, 1, [3, 11], (0, 1)),
        (37, 2, [13], (0,)),
        (17, 2, [11], (0,)),
    ]:
        w = recognize_type(FIXTURES_G6[p], p, t, qs)
        assert w is not None, p
        assert w.p == p and w.t == t
        assert sorted(w.qs) == sorted(qs)
        assert w.shifts == shifts


def test_recognize_type_negative_cases():
    assert recognize_type(FIXTURES_G6[19], 19, 1, [7]) is None
    assert recognize_type(FIXTURES_G6[19], 19, 1, [2, 2]) is None
    assert recognize_type(FIXTURES_G6[19], 19, 2, [7, 7]) is None
    assert recognize_type(FIXTURES_G6[23], 23, 1, [2]) is None
    assert recognize_type(FIXTURES_G6[41], 41, 1, [11, 3]) is not None


def test_recognize_type_depends_only_on_residue():
    f = list(FIXTURES_G6[19])
    rng = random.Random(1)
    base = recognize_type(f, 19, 1, [7, 7])
    for _ in range(10):
        g = [c + 361 * rng.randrange(-50, 50) for c in f[:-1]] + [1]
        assert recognize_type(g, 19, 1, [7, 7]) == base


def test_recognize_type_input_checks():
    with pytest.raises(ValueError, match="odd prime"):
        recognize_type(FIXTURES_G6[2], 2, 1, [2])
    with pytest.raises(ValueError, match="primes"):
        recognize_type(FIXTURES_G6[19], 19, 1, [])
    with pytest.raises(ValueError, match="primes"):
        recognize_type(FIXTURES_G6[19], 19, 1, [4])
    with pytest.raises(ValueError, match="monic"):
        recognize_type([1, 2], 19, 1, [2])


def test_witness_round_trip():
    cases = [
        LocalSpec(p=7, kind="type", m=2, t=1, qs=(2,)),
        LocalSpec(p=19, kind="type", m=2, t=1, qs=(7, 7)),
        LocalSpec(p=37, kind="type", m=3, t=2, qs=(13,)),
        LocalSpec(p=13, kind="type", m=2, t=1, qs=(3, 11)),
    ]
    for spec in cases:
        for seed in range(3):
            w = witness_poly(spec, 6, seed=seed)
            assert w[-1] == 1 and len(w) == 15
            rec = recognize_type(w, spec.p, spec.t, list(spec.qs))
            assert rec is not None, (spec, seed)
            assert rec.t == spec.t
            assert sorted(rec.qs) == sorted(spec.qs)
            assert len(rec.shifts) == len(spec.qs)


def test_witnesses_are_deterministic():
    spec = LocalSpec(p=23, kind="irreducible", m=1)
    assert witness_poly(spec, 6, seed=5) == witness_poly(spec, 6, seed=5)


def test_double_root_witness_profile():
    spec = LocalSpec(p=3, kind="double_roots", m=2, count=6)
    for seed in range(3):
        w = witness_poly(spec, 6, seed=seed)
        assert multiplicity_profile(w, 3) == [1, 1] + [2] * 6


def test_factorization_witnesses():
    w = witness_poly(LocalSpec(p=23, kind="irreducible", m=1), 6, seed=0)
    assert fp_is_irreducible(w, 23)
    w = witness_poly(LocalSpec(p=29, kind="linear_times_irreducible", m=1), 6, seed=0)
    degs = sorted(
        len(q) - 1 for q, _ in fp_factor(w, 29).factors
    )
    assert degs == [1, 13]


def test_good_reduction_2_witness_passes_check():
    w = witness_poly(SPECS_G6[2], 6, seed=0)
    assert w == FIXTURES_G6[2]
    assert good_reduction_at_2(w, 6)


def test_good_reduction_at_2_examples():
    f = x_power_minus(14, 0)
    f[0] = 2**12 + 2**14
    f[13] = 2
    assert good_reduction_at_2(f, 6)
    f[13] = 6
    assert good_reduction_at_2(f, 6)
    f[13] = 4
    assert not good_reduction_at_2(f, 6)
    f[13] = 2
    f[0] = 2**13
    assert not good_reduction_at_2(f, 6)
    f[0] = 2**12
    f[1] = 2**12  # needs divisibility by 2^13
    assert not good_reduction_at_2(f, 6)
    f[1] = 2**13
    assert good_reduction_at_2(f, 6)


def test_good_reduction_at_2_input_checks():
    with pytest.raises(ValueError, match="monic of degree"):
        good_reduction_at_2([2, 1], 6)
    with pytest.raises(ValueError, match="monic of degree"):
        good_reduction_at_2([0] * 14 + [3], 6)


def test_witness_errors(monkeypatch):
    with pytest.raises(ValueError, match="not enough residues"):
        witness_poly(LocalSpec(p=3, kind="double_roots", m=2, count=5), 6)
    with pytest.raises(ValueError, match="not enough residues"):
        witness_poly(LocalSpec(p=3, kind="type", m=2, t=1, qs=(3, 3, 3, 5)), 6)
    with pytest.raises(ValueError, match="exceed"):
        witness_poly(LocalSpec(p=17, kind="type", m=2, t=1, qs=(17,)), 6)
    with pytest.raises(ValueError, match="no witness found"):
        monkeypatch.setattr(localtypes, "WITNESS_BUDGET", 0)
        witness_poly(LocalSpec(p=23, kind="irreducible", m=1), 6, seed=0)


def test_local_spec_validation():
    with pytest.raises(ValueError, match="not prime"):
        LocalSpec(p=6, kind="irreducible", m=1)
    with pytest.raises(ValueError, match="needs t"):
        LocalSpec(p=7, kind="type", m=2)
    with pytest.raises(ValueError, match="t \\+ 1"):
        LocalSpec(p=7, kind="type", m=3, t=1, qs=(2,))
    with pytest.raises(ValueError, match="must be prime"):
        LocalSpec(p=7, kind="type", m=2, t=1, qs=(4,))
    with pytest.raises(ValueError, match="modulus exponent 2"):
        LocalSpec(p=3, kind="double_roots", m=1, count=6)
    with pytest.raises(ValueError, match="live mod p"):
        LocalSpec(p=23, kind="irreducible", m=2)
    with pytest.raises(ValueError, match="requires p = 2"):
        LocalSpec(p=3, kind="good_reduction_2", m=14)
    with pytest.raises(ValueError, match="unknown spec kind"):
        LocalSpec(p=7, kind="mystery", m=1)
    assert SPECS_G6[37].modulus == 37**3
    assert SPECS_G6[2].modulus == 2**14


def test_trim_and_reduce_on_fixture_lifts():
    # a fixture lifted to big integers still recognizes
    f = [c + 19**2 * 10**6 for c in FIXTURES_G6[19][:-1]] + [1]
    f = poly_trim(f)
    w = recognize_type(f, 19, 1, [7, 7])
    assert w is not None and w.shifts == (0, 1)


def _lifted_block_type(f: list[int], p: int, t: int, s: int, q: int) -> bool:
    """The type test at a rational root s of multiplicity q of f mod p, by Hensel lifting.

    The reference for recognize_type's Taylor-shift criterion: lift
    (x - s)^q times its separable cofactor from mod p to mod p^(t+1), move
    the lifted block to the origin and test it for t-Eisenstein.
    """
    block = [1]
    for _ in range(q):
        block = poly_mul(block, [-s, 1], p)
    cofactor = fp_divmod(poly_reduce(f, p), block, p)[0]
    parts = [block] + ([cofactor] if len(cofactor) > 1 else [])
    lifted = hensel_lift_factorization(f, parts, p, t + 1)[0]
    return is_t_eisenstein(poly_compose_shift(lifted, s, p ** (t + 1)), p, t)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([3, 5, 7, 11]), st.integers(1, 3), st.data())
def test_taylor_shift_criterion_matches_the_lifted_block_test(p, t, data):
    # f(x) = g(x - s) mod p^(t+1) with g = (c_0 + ... + c_(q-1) x^(q-1)) + x^q H,
    # every c_i divisible by p and H monic, separable mod p with H(0) a unit,
    # so s is the only repeated root of f mod p and has multiplicity q
    modulus = p ** (t + 1)
    q = data.draw(st.sampled_from([q for q in (2, 3, 5) if q < p]))
    s = data.draw(st.integers(0, p - 1))
    digits = st.integers(0, modulus - 1)
    low = [p ** data.draw(st.integers(1, t + 1)) * data.draw(digits) % modulus for _ in range(q)]
    h = data.draw(st.lists(digits, max_size=4)) + [1]
    assume(h[0] % p)
    f = poly_compose_shift(low + h, -s, modulus)
    assume(multiplicity_profile(f, p) == sorted([1] * (len(h) - 1) + [q]))
    assert (recognize_type(f, p, t, [q]) is not None) == _lifted_block_type(f, p, t, s, q)
