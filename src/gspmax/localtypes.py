"""Local polynomial shapes at a prime.

A monic g with coefficients in Z_p is t-Eisenstein when v_p(a_0) = t exactly
and v_p(a_i) >= t for the middle coefficients. A polynomial has type
t-{q1,...,qk} at p when, after reduction mod p, it factors as a separable
cofactor times distinct rational roots of multiplicities q1..qk whose
Hensel-lifted blocks are shifted t-Eisenstein polynomials. Membership in
either class only depends on the polynomial mod p^(t+1); recognize_type
reads the type off the Taylor coefficients of f at each repeated root.

This module recognizes those shapes, manufactures witness polynomials
realizing a requested shape, and checks the 2-adic congruence family that
forces good reduction of the curve y^2 = f(x) at 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import (
    fp_factor,
    fp_gcd,
    fp_is_irreducible,
    fp_squarefree_decomposition,
    is_prime,
    poly_compose_shift,
    poly_deg,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_reduce,
    poly_trim,
)

# sentinel seed selecting the hard-coded genus-6 witness table
FIXTURE_SEED = -1

WITNESS_BUDGET = 10**5


class ConstructionError(ValueError):
    """A construction step failed on valid input, such as a witness search."""


@dataclass(frozen=True)
class LocalSpec:
    """One congruence requirement: a shape for f mod p^m.

    kind is one of "type" (t-Eisenstein block pattern, m = t+1),
    "double_roots" (count double roots, rest simple, m = 2),
    "irreducible" / "linear_times_irreducible" (factorization pattern mod p,
    m = 1), or "good_reduction_2" (the 2-adic congruence family, p = 2,
    m = 2g+2).
    """

    p: int
    kind: str
    m: int
    t: int | None = None
    qs: tuple[int, ...] = ()
    count: int | None = None

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.kind == "type":
            if self.t is None or self.t < 1 or not self.qs:
                raise ValueError("type spec needs t >= 1 and a nonempty qs")
            if self.m != self.t + 1:
                raise ValueError("type spec must use modulus exponent t + 1")
            if any(not is_prime(q) for q in self.qs):
                raise ValueError("type block degrees must be prime")
        elif self.kind == "double_roots":
            if self.count is None or self.count < 0 or self.m != 2:
                raise ValueError("double_roots spec needs a count and modulus exponent 2")
        elif self.kind in ("irreducible", "linear_times_irreducible"):
            if self.m != 1:
                raise ValueError("factorization specs live mod p")
        elif self.kind == "good_reduction_2":
            if self.p != 2:
                raise ValueError("good_reduction_2 spec requires p = 2")
        else:
            raise ValueError(f"unknown spec kind {self.kind!r}")

    @property
    def modulus(self) -> int:
        return self.p**self.m


@dataclass(frozen=True)
class TypeWitness:
    """Certificate that f has type t-{q1,...,qk} at p.

    shifts[i] is a rational root of f mod p of multiplicity qs[i], in
    increasing order of shift, and the Hensel block of f at shifts[i],
    moved to the origin, is t-Eisenstein.
    """

    p: int
    t: int
    shifts: tuple[int, ...]
    qs: tuple[int, ...]


def is_t_eisenstein(f: list[int], p: int, t: int) -> bool:
    """True iff monic f is t-Eisenstein at p.

    Decidable from the coefficients mod p^(t+1), so f may be given exactly or
    as residues mod any multiple of p^(t+1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    pt = p**t
    f = poly_trim(list(f))
    if poly_deg(f) < 1:
        return False
    if f[-1] % (pt * p) != 1:
        raise ValueError("f must be monic")
    return f[0] % (pt * p) != 0 and all(c % pt == 0 for c in f[:-1])


def multiplicity_profile(f: list[int], p: int) -> list[int]:
    """Sorted multiset of root multiplicities of f mod p (over the closure).

    Each root contributes one entry equal to its multiplicity; entries sum to
    deg(f mod p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = poly_reduce(f, p)
    if not fbar:
        raise ValueError("f is zero mod p")
    prof: list[int] = []
    for piece, e in fp_squarefree_decomposition(fbar, p):
        prof.extend([e] * poly_deg(piece))
    return sorted(prof)


def recognize_type(f: list[int], p: int, t: int, qs: list[int]) -> TypeWitness | None:
    """Recognize type t-{qs} at p, returning a witness or None.

    The reduction mod p must factor as a separable part times rational
    repeated roots whose multiplicity multiset equals qs. The block at such
    a root s of multiplicity q is t-Eisenstein exactly when the coefficients
    a_0 ... a_(q-1) of f(x + s) are 0 mod p^t and a_0 is not 0 mod p^(t+1).
    This is exact: the Hensel (Weierstrass) factor P of f(x + s) at 0 is
    monic of degree q with P = x^q mod p; by the uniqueness of that
    factorization over Z/p^t, P = x^q mod p^t exactly when a_0 ... a_(q-1)
    are 0 mod p^t, and v(P(0)) = v(a_0) as the cofactor is a unit at 0.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not qs or any(not is_prime(q) for q in qs):
        raise ValueError("qs must be a nonempty list of primes")
    f = poly_trim(list(f))
    if not f or f[-1] != 1:
        raise ValueError("f must be monic")
    modulus = p ** (t + 1)
    fm = poly_reduce(f, modulus)
    found: list[tuple[int, int]] = []  # (shift, multiplicity)
    for piece, e in fp_squarefree_decomposition(poly_reduce(fm, p), p):
        if e == 1:
            continue
        # every repeated factor must be linear (an F_p-rational root)
        for irr, _ in fp_factor(piece, p).factors:
            if len(irr) != 2:
                return None
            found.append(((-irr[0]) % p, e))
    if sorted(e for _, e in found) != sorted(qs):
        return None
    found.sort()
    for shift, q in found:
        taylor = poly_compose_shift(fm, shift, modulus)
        if not is_t_eisenstein(taylor[:q] + [1], p, t):
            return None
    return TypeWitness(p, t, tuple(s for s, _ in found), tuple(q for _, q in found))


def good_reduction_at_2(f: list[int], g: int) -> bool:
    """2-adic congruence family forcing good reduction of y^2 = f(x) at 2.

    Requires a_0 ≡ 2^(2g) mod 2^(2g+2), a_(2g+1) ≡ 2 mod 4, and
    a_i ≡ 0 mod 2^(2g+2-i) for 1 <= i <= 2g; f monic of degree 2g+2.
    """
    n = 2 * g + 2
    f = poly_trim(list(f))
    if poly_deg(f) != n or f[-1] != 1:
        raise ValueError("f must be monic of degree 2g + 2")
    if f[0] % (1 << n) != 1 << (n - 2):
        return False
    if f[n - 1] % 4 != 2:
        return False
    return all(f[i] % (1 << (n - i)) == 0 for i in range(1, n - 1))


# ---------------------------------------------------------------------------
# witness construction

def _draw(deg: int, p: int, rng: random.Random, budget: int, accept) -> list[int]:
    """The first of at most budget random monic degree-deg polynomials mod p that accept takes."""
    for _ in range(budget):
        cand = [rng.randrange(p) for _ in range(deg)] + [1]
        if accept(cand):
            return cand
    raise ConstructionError("no witness found")


def _separable_avoiding(f: list[int], p: int, points: int) -> bool:
    """f is separable mod p and has no root among 0, 1, ..., points - 1."""
    fd = poly_derivative(f, p)
    if not fd:
        return poly_deg(f) <= 0
    return fp_gcd(f, fd, p) == [1] and all(poly_eval(f, r, p) for r in range(points))


def _type_witness(spec: LocalSpec, g: int, seed: int, budget: int) -> list[int]:
    p, t, qs = spec.p, spec.t, list(spec.qs)
    deg = 2 * g + 2
    total = sum(qs)
    if total > deg:
        raise ValueError("block degrees exceed 2g + 2")
    k = len(qs)
    if k > p:
        raise ValueError("not enough residues for distinct shifts")
    blocks = []
    for i, q in enumerate(qs):
        # (x - i)^q - p^t, placing block i at shift i
        block = [1]
        for _ in range(q):
            block = poly_mul(block, [-i, 1])
        block[0] -= p**t
        blocks.append(block)
    cof_deg = deg - total
    out = [1]
    if cof_deg:
        rng = random.Random(seed)
        out = _draw(cof_deg, p, rng, budget, lambda h: _separable_avoiding(h, p, k))
    for block in blocks:
        out = poly_mul(out, block)
    return poly_reduce(out, spec.modulus)


def _double_roots_witness(spec: LocalSpec, g: int, seed: int, budget: int) -> list[int]:
    p, d = spec.p, spec.count
    deg = 2 * g + 2
    simple = deg - 2 * d
    if simple < 0:
        raise ValueError("too many double roots for the degree")
    if simple > p:
        raise ValueError("not enough residues for distinct simple roots")
    base = [1]
    for r in range(simple):
        base = poly_mul(base, [-r, 1])
    h = _draw(d, p, random.Random(seed), budget, lambda h: _separable_avoiding(h, p, simple))
    return poly_reduce(poly_mul(base, poly_mul(h, h)), p * p)


def _irreducible_witness(spec: LocalSpec, g: int, seed: int, budget: int) -> list[int]:
    p = spec.p
    return _draw(2 * g + 2, p, random.Random(seed), budget, lambda f: fp_is_irreducible(f, p))


def _linear_times_irreducible_witness(spec: LocalSpec, g: int, seed: int, budget: int) -> list[int]:
    p = spec.p
    rng = random.Random(seed)
    root = rng.randrange(p)
    # an irreducible of degree 2g+1 >= 3 has no rational root, so the
    # linear factor is automatically coprime to it
    cand = _draw(2 * g + 1, p, rng, budget, lambda f: fp_is_irreducible(f, p))
    return poly_reduce(poly_mul([-root, 1], cand), p)


def _good_reduction_2_witness(spec: LocalSpec, g: int) -> list[int]:
    n = 2 * g + 2
    out = [0] * (n + 1)
    out[0] = 1 << (n - 2)
    out[n - 1] = 2
    out[n] = 1
    return out


def _fixture_table_g6() -> dict[int, list[int]]:
    """The eleven hand-picked genus-6 witnesses, keyed by prime."""

    def shifted_power_block(shift: int, q: int, sub: int) -> list[int]:
        block = [1]
        for _ in range(q):
            block = poly_mul(block, [-shift, 1])
        block[0] -= sub
        return block

    table: dict[int, list[int]] = {}
    table[7] = poly_reduce(
        poly_mul([3, 0, 5, 0, 4, 2, 3, 5, 2, 0, 0, 0, 1], [-7, 0, 1]), 49
    )
    table[11] = poly_reduce(
        poly_mul([2, 5, 6, 5, 5, 2, 4, 1, 1, 0, 0, 0, 1], [-11, 0, 1]), 121
    )
    table[19] = poly_reduce(
        poly_mul(shifted_power_block(0, 7, 19), shifted_power_block(1, 7, 19)), 19**2
    )
    table[41] = poly_reduce(
        poly_mul(shifted_power_block(0, 11, 41), shifted_power_block(1, 3, 41)), 41**2
    )
    table[37] = poly_reduce(poly_mul(shifted_power_block(0, 13, 37**2), [1, 1]), 37**3)
    table[17] = poly_reduce(
        poly_mul(shifted_power_block(0, 11, 17**2), [14, 1, 0, 1]), 17**3
    )
    table[23] = [5, 22, 1, 19, 18, 1, 16, 5, 1, 0, 0, 0, 0, 0, 1]
    table[29] = poly_reduce(poly_mul([1, 1], [27, 7] + [0] * 11 + [1]), 29)
    h3 = [2, 2, 1, 0, 2, 0, 1]
    table[3] = poly_reduce(poly_mul(poly_mul([-1, 1], [0, 1]), poly_mul(h3, h3)), 9)
    h5 = [2, 0, 1, 4, 1, 0, 1]
    table[5] = poly_reduce(poly_mul(poly_mul([-1, 1], [0, 1]), poly_mul(h5, h5)), 25)
    table[2] = [1 << 12] + [0] * 12 + [2, 1]
    return table


_FIXTURE_G6 = _fixture_table_g6()


def witness_poly(spec: LocalSpec, g: int, seed: int = 0, budget: int = WITNESS_BUDGET) -> list[int]:
    """Monic degree-(2g+2) residue polynomial mod p^m realizing the spec.

    Deterministic for a fixed seed. Passing seed = FIXTURE_SEED selects the
    hand-pinned genus-6 witness table (only for g = 6 and its eleven specs).
    Raises ConstructionError("no witness found") if the seeded search
    exhausts its budget.
    """
    if seed == FIXTURE_SEED:
        if g != 6 or spec.p not in _FIXTURE_G6:
            raise ValueError("no fixture witness for this spec")
        return list(_FIXTURE_G6[spec.p])
    if spec.kind == "type":
        return _type_witness(spec, g, seed, budget)
    if spec.kind == "double_roots":
        return _double_roots_witness(spec, g, seed, budget)
    if spec.kind == "irreducible":
        return _irreducible_witness(spec, g, seed, budget)
    if spec.kind == "linear_times_irreducible":
        return _linear_times_irreducible_witness(spec, g, seed, budget)
    if spec.kind == "good_reduction_2":
        return _good_reduction_2_witness(spec, g)
    raise ValueError(f"unknown spec kind {spec.kind!r}")
