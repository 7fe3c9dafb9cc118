"""Tests for cluster pictures, tame eigenvalues, and reduction criteria."""

import itertools
import random
from fractions import Fraction

import pytest

from golden_data import F0
from gspmax.arith import is_prime, poly_mul
from gspmax.localtypes import multiplicity_profile
from gspmax.inertia import (
    cluster_invariants,
    clusters_from_double_roots,
    clusters_from_type,
    etale_decomposition,
    is_totally_toric,
    semistable_from_reduction,
    tame_eigenvalues,
)

# ---------------------------------------------------------------------------
# small dense matrices over F_ell, for the executable linear-algebra lemmas


def mat_mul(a, b, ell):
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) % ell for j in range(m)]
        for i in range(n)
    ]


def mat_eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_pow(a, e, ell):
    out = mat_eye(len(a))
    base = [row[:] for row in a]
    while e:
        if e & 1:
            out = mat_mul(out, base, ell)
        base = mat_mul(base, base, ell)
        e >>= 1
    return out


def mat_det(a, ell):
    a = [row[:] for row in a]
    n = len(a)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % ell), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col] % ell
        inv = pow(a[col][col], -1, ell)
        for r in range(col + 1, n):
            factor = a[r][col] * inv % ell
            a[r] = [(x - factor * y) % ell for x, y in zip(a[r], a[col])]
    return det % ell


def charpoly(a, ell):
    """det(xI - a) over F_ell by interpolation; needs ell > len(a)."""
    n = len(a)
    assert ell > n
    xs = list(range(n + 1))
    ys = []
    for x0 in xs:
        m = [[(x0 * (i == j) - a[i][j]) % ell for j in range(n)] for i in range(n)]
        ys.append(mat_det(m, ell))
    coeffs = [0] * (n + 1)
    for i, x0 in enumerate(xs):
        num = [1]
        denom = 1
        for j, x1 in enumerate(xs):
            if i == j:
                continue
            num = [
                (c1 - x1 * c0) % ell
                for c0, c1 in itertools.zip_longest(num, [0] + num, fillvalue=0)
            ]
            denom = denom * (x0 - x1) % ell
        scale = ys[i] * pow(denom, -1, ell) % ell
        for d, c in enumerate(num):
            coeffs[d] = (coeffs[d] + scale * c) % ell
    return coeffs


def random_invertible(n, ell, rng):
    while True:
        m = [[rng.randrange(ell) for _ in range(n)] for _ in range(n)]
        if mat_det(m, ell):
            return m


# ---------------------------------------------------------------------------
# cluster pictures


def test_type_picture_shapes():
    pic = clusters_from_type(1, [7, 7], 14)
    sizes = sorted(c.size for c in pic.clusters)
    assert sizes == [1] * 14 + [7, 7, 14]
    top = pic.clusters[0]
    assert top.depth == 0 and top.parent_index is None
    blocks = [c for c in pic.clusters if c.size == 7]
    assert all(c.depth == Fraction(1, 7) and c.parent_index == 0 for c in blocks)

    pic = clusters_from_type(2, [13], 14)
    blocks = [c for c in pic.clusters if c.size == 13]
    assert len(blocks) == 1 and blocks[0].depth == Fraction(2, 13)
    assert sum(1 for c in pic.clusters if c.size == 1 and c.parent_index == 0) == 1

    pic = clusters_from_type(1, [], 14)
    assert sorted(c.size for c in pic.clusters) == [1] * 14 + [14]


def test_type_picture_preconditions():
    with pytest.raises(ValueError, match="odd primes"):
        clusters_from_type(1, [2], 14)
    with pytest.raises(ValueError, match="odd primes"):
        clusters_from_type(1, [9], 14)
    with pytest.raises(ValueError, match="coprime"):
        clusters_from_type(3, [3], 14)
    with pytest.raises(ValueError, match="exceed"):
        clusters_from_type(1, [7, 11], 14)
    with pytest.raises(ValueError, match="outside supported"):
        clusters_from_type(1, [13], 13)


def test_double_root_picture_shapes():
    pic = clusters_from_double_roots(6, 14)
    assert sorted(c.size for c in pic.clusters) == [1] * 14 + [2] * 6 + [14]
    pairs = [c for c in pic.clusters if c.size == 2]
    assert all(c.depth is None and c.parent_index == 0 for c in pairs)
    with pytest.raises(ValueError, match="too many double roots"):
        clusters_from_double_roots(8, 14)
    with pytest.raises(ValueError, match="outside supported"):
        clusters_from_double_roots(1, 2)


def test_cluster_invariants_top_and_blocks():
    pic = clusters_from_type(1, [7, 7], 14)
    top = cluster_invariants(pic, 0, 1)
    assert top.mu_s == 0 and top.lambda_s == 0
    assert top.epsilon_kind == "trivial" and top.gamma_order == 1
    assert top.v_dim == 0  # two odd children minus one minus the character
    block_idx = next(i for i, c in enumerate(pic.clusters) if c.size == 7)
    block = cluster_invariants(pic, block_idx, 1)
    assert block.d_s == Fraction(1, 7)
    assert block.lambda_s == Fraction(1, 2) and block.gamma_order == 2
    assert block.epsilon_kind == "zero" and block.v_dim == 6

    pic = clusters_from_type(2, [13], 14)
    block_idx = next(i for i, c in enumerate(pic.clusters) if c.size == 13)
    block = cluster_invariants(pic, block_idx, 2)
    assert block.lambda_s == 1 and block.gamma_order == 1
    assert block.v_dim == 12


def test_cluster_invariants_double_root_pairs():
    pic = clusters_from_double_roots(6, 14)
    pair_idx = next(i for i, c in enumerate(pic.clusters) if c.size == 2)
    inv = cluster_invariants(pic, pair_idx, 1)
    assert inv.epsilon_kind == "trivial" and inv.v_dim == 0
    assert inv.d_s is None and inv.lambda_s is None and inv.gamma_order is None


def test_cluster_invariants_errors():
    pic = clusters_from_type(1, [7, 7], 14)
    singleton = next(i for i, c in enumerate(pic.clusters) if c.size == 1)
    with pytest.raises(ValueError, match="size >= 2"):
        cluster_invariants(pic, singleton, 1)
    block_idx = next(i for i, c in enumerate(pic.clusters) if c.size == 7)
    with pytest.raises(ValueError, match="does not match"):
        cluster_invariants(pic, block_idx, 2)
    with pytest.raises(ValueError, match="no such cluster"):
        cluster_invariants(pic, 99, 1)


def test_etale_decomposition_examples():
    for g, d in [(6, 0), (6, 3), (6, 6), (4, 2)]:
        dec = etale_decomposition(clusters_from_double_roots(d, 2 * g + 2), 1, g)
        assert (dec.dim_h1_ab, dec.dim_h1_t) == (2 * g - 2 * d, d)
    # all roots doubled: purely toric
    for g in (2, 3, 6):
        dec = etale_decomposition(clusters_from_double_roots(g + 1, 2 * g + 2), 1, g)
        assert (dec.dim_h1_ab, dec.dim_h1_t) == (0, g)
    # block patterns have no toric part
    for t, qs, g in [(1, [7, 7], 6), (2, [13], 6), (1, [3, 11], 6), (1, [], 6)]:
        dec = etale_decomposition(clusters_from_type(t, qs, 2 * g + 2), t, g)
        assert dec.dim_h1_t == 0
        assert dec.dim_h1_ab == 2 * g


def test_etale_decomposition_identity_exhaustive():
    small_primes = [3, 5, 7, 11, 13]
    for g in range(1, 9):
        deg = 2 * g + 2
        for d in range(0, g + 2):
            etale_decomposition(clusters_from_double_roots(d, deg), 1, g)
        for t in (1, 2, 3):
            for k in range(0, 3):
                for qs in itertools.combinations_with_replacement(small_primes, k):
                    if sum(qs) > deg or (k == 1 and qs[0] == deg):
                        continue
                    if any(q % t == 0 for q in qs if t > 1):
                        continue
                    etale_decomposition(clusters_from_type(t, list(qs), deg), t, g)


def test_etale_decomposition_rejects_wrong_genus():
    with pytest.raises(ValueError, match="does not match the genus"):
        etale_decomposition(clusters_from_type(1, [7, 7], 14), 1, 5)


# ---------------------------------------------------------------------------
# tame eigenvalues


def test_tame_eigenvalues_examples():
    ev = tame_eigenvalues(1, [7, 7], 6)
    assert ev.trivial_count == 0
    assert ev.inertia_order_divisor == 98
    expected = tuple(
        (-1, 7, j) for j in [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    )
    assert tuple(sorted(ev.entries)) == tuple(sorted(expected))

    ev = tame_eigenvalues(2, [13], 6)
    assert ev.entries == tuple((1, 13, j) for j in range(1, 13))
    assert ev.trivial_count == 0 and ev.inertia_order_divisor == 26

    ev = tame_eigenvalues(1, [], 6)
    assert ev.entries == () and ev.trivial_count == 12
    assert ev.inertia_order_divisor == 2


def test_tame_eigenvalues_counts_and_orders():
    small_primes = [3, 5, 7, 11, 13]
    for g in range(1, 9):
        for t in (1, 2, 3):
            for k in range(0, 3):
                for qs in itertools.combinations_with_replacement(small_primes, k):
                    if any(q % t == 0 for q in qs if t > 1):
                        continue
                    if sum(q - 1 for q in qs) > 2 * g:
                        continue
                    ev = tame_eigenvalues(t, list(qs), g)
                    assert len(ev.entries) + ev.trivial_count == 2 * g
                    assert all(
                        ev.inertia_order_divisor % (2 * q) == 0
                        for _, q, _ in ev.entries
                    )
                    sign = -1 if t % 2 else 1
                    assert all(s == sign for s, _, _ in ev.entries)


def test_tame_eigenvalues_match_cluster_bookkeeping():
    # trivial eigenvalues live on the top cluster, nontrivial ones on blocks
    for t, qs, g in [(1, [7, 7], 6), (2, [13], 6), (1, [3, 11], 6), (3, [5], 4)]:
        pic = clusters_from_type(t, qs, 2 * g + 2)
        ev = tame_eigenvalues(t, qs, g)
        top = cluster_invariants(pic, 0, t)
        assert ev.trivial_count == top.v_dim
        block_dims = [
            cluster_invariants(pic, i, t).v_dim
            for i, c in enumerate(pic.clusters)
            if c.size > 1 and c.parent_index == 0
        ]
        assert sum(block_dims) == len(ev.entries)


def test_tame_eigenvalues_preconditions():
    with pytest.raises(ValueError, match="odd primes"):
        tame_eigenvalues(1, [2], 6)
    with pytest.raises(ValueError, match="coprime"):
        tame_eigenvalues(7, [7], 6)
    with pytest.raises(ValueError, match="exceed"):
        tame_eigenvalues(1, [13], 5)


# ---------------------------------------------------------------------------
# executable linear-algebra lemmas


def test_block_cyclic_charpoly_identity():
    rng = random.Random(0)
    cases = [(13, 2), (13, 3), (13, 4), (31, 5), (31, 3), (61, 4), (61, 6)]
    for ell, k in cases:
        assert (ell - 1) % k == 0
        for m in (1, 2):
            n = k * m
            blocks = [random_invertible(m, ell, rng) for _ in range(k)]
            t_mat = [[0] * n for _ in range(n)]
            for b in range(k):
                dest = (b + 1) % k
                for i in range(m):
                    for j in range(m):
                        t_mat[dest * m + i][b * m + j] = blocks[b][i][j]
            prod_mat = mat_eye(m)
            for b in range(k):
                prod_mat = mat_mul(blocks[b], prod_mat, ell)
            left = charpoly(t_mat, ell)
            right_small = charpoly(prod_mat, ell)
            right = [0] * (n + 1)
            for d, c in enumerate(right_small):
                right[d * k] = c
            assert left == right, (ell, k, m)


def test_unipotent_square_zero_has_order_one_or_ell():
    rng = random.Random(1)
    for ell in (3, 5, 13):
        for n in (2, 4, 6):
            for _ in range(20):
                u = [rng.randrange(ell) for _ in range(n)]
                if not any(u):
                    continue
                i0 = next(i for i, c in enumerate(u) if c)
                v = [rng.randrange(ell) for _ in range(n)]
                rest = sum(u[j] * v[j] for j in range(n) if j != i0)
                v[i0] = (-rest * pow(u[i0], -1, ell)) % ell
                nil = [[u[i] * v[j] % ell for j in range(n)] for i in range(n)]
                assert mat_mul(nil, nil, ell) == [[0] * n for _ in range(n)]
                m = [[(nil[i][j] + (i == j)) % ell for j in range(n)] for i in range(n)]
                assert mat_pow(m, ell, ell) == mat_eye(n)
                if any(any(row) for row in nil):
                    for j in range(1, ell):
                        assert mat_pow(m, j, ell) != mat_eye(n)


# ---------------------------------------------------------------------------
# reduction criteria on the golden polynomial


def test_semistable_from_reduction_on_golden():
    status = semistable_from_reduction(F0, 3, 6)
    assert status.status == "semistable" and status.toric_dim == 6
    status = semistable_from_reduction(F0, 5, 6)
    assert status.status == "semistable" and status.toric_dim == 6
    status = semistable_from_reduction(F0, 19, 6)
    assert status.status == "unknown" and status.toric_dim is None
    status = semistable_from_reduction(F0, 101, 6)
    assert status.status == "semistable" and status.toric_dim == 0


def test_semistable_from_reduction_validation():
    with pytest.raises(ValueError, match="odd prime"):
        semistable_from_reduction(F0, 2, 6)
    with pytest.raises(ValueError, match="monic of degree"):
        semistable_from_reduction([0, 1], 3, 6)
    with pytest.raises(ValueError, match="squarefree"):
        semistable_from_reduction(_square_poly(), 3, 6)


def _square_poly():
    h = [1, 1, 0, 1, 0, 0, 1, 1]  # degree 7
    return poly_mul(h, h)


def test_totally_toric_on_golden():
    assert is_totally_toric(F0, 3, 6)
    assert is_totally_toric(F0, 5, 6)
    assert not is_totally_toric(F0, 101, 6)


def _certifies_toric_dimension_g(f, ell, g):
    status = semistable_from_reduction(f, ell, g)
    return status.status == "semistable" and status.toric_dim == g


def test_totally_toric_with_more_than_g_double_roots():
    # h is squarefree mod 5, so f = h^2 + 5 has g + 1 = 7 double roots mod 5
    h = [0, 1]
    for factor in ([-1, 1], [-2, 1], [-3, 1], [-4, 1], [2, 0, 1]):
        h = poly_mul(h, factor)
    f = poly_mul(h, h)
    f[0] += 5
    assert semistable_from_reduction(f, 5, 6).toric_dim == 6
    assert is_totally_toric(f, 5, 6) and _certifies_toric_dimension_g(f, 5, 6)


def test_totally_toric_fails_on_a_triple_root():
    # (x - 1)^3 (x^11 + x + 2) + 3 has a triple root at 1 mod 3
    f = poly_mul([-1, 3, -3, 1], [2, 1] + [0] * 9 + [1])
    f[0] += 3
    assert max(multiplicity_profile(f, 3)) == 3
    assert not is_totally_toric(f, 3, 6)
    assert not _certifies_toric_dimension_g(f, 3, 6)


@pytest.mark.parametrize("ell", [p for p in range(3, 51) if is_prime(p)])
def test_totally_toric_agrees_with_reduction_criterion_on_golden(ell):
    assert is_totally_toric(F0, ell, 6) == _certifies_toric_dimension_g(F0, ell, 6)
