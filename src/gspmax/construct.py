"""Assembly of integer polynomials from menus of local congruences.

Plans the auxiliary primes for a genus, lays out one congruence per prime,
combines witness polynomials into a single monic integer polynomial by the
Chinese remainder theorem, and repairs residual triple roots so that only the
planned primes see roots of multiplicity three or more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .arith import (
    crt_integers,
    is_prime,
    is_primitive_root,
    poly_deg,
    poly_derivative,
    poly_trim,
    primes_up_to,
    resultant,
)
from .goldbach import GoldbachTuple, two_g_eps_tuples
from .localtypes import (
    FIXTURE_SEED,
    WITNESS_BUDGET,
    ConstructionError,
    LocalSpec,
    multiplicity_profile,
    witness_poly,
)

PLAN_SCAN_BOUND = 10**6

DEFAULT_SCAN_BOUND = 10**5

# The tuple primes mod which each block-pattern prime must be a primitive
# root, keyed by its PrimePlan field, in the order plan_primes fills them.
GENERATORS = {
    "p_2": ("q1", "q2", "q3"),
    "p_3": ("q3",),
    "p_2_prime": ("q3", "q4", "q5"),
    "p_3_prime": ("q5",),
}

# The block-pattern primes that must also be 1 mod 3.
ONE_MOD_3 = ("p_2", "p_3")


def generator_moduli(tup: GoldbachTuple, slot: str) -> tuple[int, ...]:
    """The primes mod which the block-pattern prime in this plan field must be a generator."""
    return tuple(getattr(tup, q) for q in GENERATORS[slot])


class ExceptionalGenusError(ValueError):
    """Raised for the genera whose degree admits no valid prime tuple."""


def _fixture_plan_g6(tup: GoldbachTuple) -> "PrimePlan":
    """The frozen prime plan behind the genus-6 reference certificate."""
    return PrimePlan(
        g=6,
        prime_tuple=tup,
        p_t=7,
        p_t_prime=11,
        p_2=19,
        p_2_prime=41,
        p_3=37,
        p_3_prime=17,
        p_irr=23,
        p_lin=29,
    )


@dataclass(frozen=True)
class PrimePlan:
    """The eight auxiliary primes driving one construction.

    p_t and p_t_prime force transvections, the four large primes force the
    block patterns tied to the prime tuple, and p_irr / p_lin force an
    irreducible and a linear-times-irreducible reduction. Creation checks
    that the primes are distinct and avoid 2 and the primes <= g, that the
    block-pattern primes exceed 2g + 2, and that each one is a primitive
    root mod its GENERATORS and, for ONE_MOD_3, is 1 mod 3.
    """

    g: int
    prime_tuple: GoldbachTuple
    p_t: int
    p_t_prime: int
    p_2: int
    p_2_prime: int
    p_3: int
    p_3_prime: int
    p_irr: int
    p_lin: int

    def __post_init__(self) -> None:
        g, tup = self.g, self.prime_tuple
        if tup.g != g:
            raise ValueError("prime tuple belongs to a different genus")
        primes = self.all_primes
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        if len(set(primes)) != 8:
            raise ValueError("plan primes must be pairwise distinct")
        if any(p == 2 or p <= g for p in primes):
            raise ValueError("plan primes must avoid 2 and the odd primes <= g")
        for slot in GENERATORS:
            p = getattr(self, slot)
            if p <= 2 * g + 2:
                raise ValueError("block-pattern primes must exceed 2g + 2")
            for q in generator_moduli(tup, slot):
                if not is_primitive_root(p, q):
                    raise ValueError(f"{p} is not a primitive root mod {q}")
        if any(getattr(self, slot) % 3 != 1 for slot in ONE_MOD_3):
            raise ValueError(f"{' and '.join(ONE_MOD_3)} must be 1 mod 3")

    @property
    def all_primes(self) -> tuple[int, ...]:
        return (
            self.p_t,
            self.p_t_prime,
            self.p_2,
            self.p_2_prime,
            self.p_3,
            self.p_3_prime,
            self.p_irr,
            self.p_lin,
        )

    @property
    def exceptions(self) -> tuple[int, ...]:
        """The primes allowed to keep roots of multiplicity three or more."""
        return tuple(sorted((self.p_2, self.p_2_prime, self.p_3, self.p_3_prime)))


def _scan_prime(lower: int, used: set[int], ok) -> int:
    """Smallest unused prime > lower satisfying the predicate."""
    for n in range(lower + 1, PLAN_SCAN_BOUND):
        if n in used or not is_prime(n):
            continue
        if ok(n):
            return n
    raise ValueError(f"no suitable prime in ({lower}, {PLAN_SCAN_BOUND})")


def plan_primes(g: int, tup: GoldbachTuple, seed: int = 0) -> PrimePlan:
    """Choose the eight auxiliary primes for a genus and its prime tuple.

    The scan is deterministic: each slot takes the smallest prime above g
    meeting its constraints, in the order p_t, p_t', then the GENERATORS
    slots p_2, p_3, p_2', p_3' (above 2g + 2), then p_irr, p_lin, skipping 2
    and primes already assigned. The seed only selects the frozen reference
    plan (available for genus 6).
    """
    if seed == FIXTURE_SEED:
        if g != 6 or tup.qs != (7, 7, 3, 11, 13):
            raise ValueError("no reference plan for this genus and tuple")
        return _fixture_plan_g6(tup)
    used = {2}

    def take(lower: int, ok=lambda n: True) -> int:
        p = _scan_prime(lower, used, ok)
        used.add(p)
        return p

    def block_prime(slot: str) -> int:
        moduli = generator_moduli(tup, slot)
        return take(
            2 * g + 2,
            lambda n: (slot not in ONE_MOD_3 or n % 3 == 1)
            and all(is_primitive_root(n, q) for q in moduli),
        )

    p_t = take(g)
    p_t_prime = take(g)
    blocks = {slot: block_prime(slot) for slot in GENERATORS}
    return PrimePlan(
        g=g,
        prime_tuple=tup,
        p_t=p_t,
        p_t_prime=p_t_prime,
        **blocks,
        p_irr=take(g),
        p_lin=take(g),
    )


def local_spec_list(plan: PrimePlan) -> list[LocalSpec]:
    """The full congruence menu for a prime plan, one spec per modulus."""
    g, tup = plan.g, plan.prime_tuple
    specs = [
        LocalSpec(p=plan.p_t, kind="type", m=2, t=1, qs=(2,)),
        LocalSpec(p=plan.p_t_prime, kind="type", m=2, t=1, qs=(2,)),
    ]
    for ell in primes_up_to(g):
        if ell % 2 == 1:
            specs.append(LocalSpec(p=ell, kind="double_roots", m=2, count=g))
    specs.extend(
        [
            LocalSpec(p=plan.p_2, kind="type", m=2, t=1, qs=(tup.q1, tup.q2)),
            LocalSpec(p=plan.p_2_prime, kind="type", m=2, t=1, qs=(tup.q4, tup.q5)),
            LocalSpec(p=plan.p_3, kind="type", m=3, t=2, qs=(tup.q3,)),
            LocalSpec(p=plan.p_3_prime, kind="type", m=3, t=2, qs=(tup.q5,)),
            LocalSpec(p=plan.p_irr, kind="irreducible", m=1),
            LocalSpec(p=plan.p_lin, kind="linear_times_irreducible", m=1),
            LocalSpec(p=2, kind="good_reduction_2", m=2 * g + 2),
        ]
    )
    return specs


def assemble(items: list[tuple[LocalSpec, list[int]]], g: int) -> tuple[list[int], int]:
    """Combine per-modulus witness polynomials into one monic polynomial.

    Each item pairs a spec with a residue polynomial mod the spec's modulus.
    Returns (f0, N) where N is the product of the moduli and f0 is the unique
    monic degree 2g+2 polynomial with coefficients in [0, N) matching every
    witness. The result does not depend on the order of the items.
    """
    if not items:
        raise ValueError("no congruences given")
    deg = 2 * g + 2
    moduli = [spec.modulus for spec, _ in items]
    for (m1, m2) in itertools.combinations(moduli, 2):
        if math.gcd(m1, m2) != 1:
            raise ValueError("moduli must be pairwise coprime")
    reduced: list[list[int]] = []
    for spec, wit in items:
        w = [c % spec.modulus for c in wit]
        if poly_deg(poly_trim(list(wit))) != deg or w[-1] != 1:
            raise ValueError("inconsistent degrees in the witness list")
        reduced.append(w)
    f0 = [
        crt_integers([(w[i], m) for w, m in zip(reduced, moduli)])
        for i in range(deg)
    ]
    f0.append(1)
    return f0, math.prod(moduli)


@dataclass(frozen=True)
class TripleRootScreen:
    """Primes at which a polynomial could have a root of multiplicity >= 3.

    Every such prime divides candidate_gcd, so once the screen is complete
    the found prime divisors are the only candidates. A residual_cofactor
    above 1 is the composite part of candidate_gcd left unfactored above the
    scan bound.
    """

    candidate_gcd: int
    found_primes: tuple[int, ...]
    residual_cofactor: int
    scan_bound: int

    @property
    def complete(self) -> bool:
        return self.residual_cofactor == 1


def screen_triple_roots(f: list[int], scan_bound: int = DEFAULT_SCAN_BOUND) -> TripleRootScreen:
    """Locate every prime at which the monic f could have a root of multiplicity >= 3.

    Such a root of f mod p is a common root of f, f' and f'' mod p. The
    Sylvester matrix of two integer polynomials, taken with their formal
    degrees, reduces mod p to that of their reductions, whose determinant
    vanishes when the reductions share a root. So p divides Res(f', f'') and
    Res(f, f''), and hence G = gcd(|Res(f', f'')|, |Res(f, f'')|). When
    Res(f, f'') = 0, G is |Res(f', f'')|, which p still divides.

    G is trial-divided by the primes up to scan_bound until the cofactor
    reaches 1. A cofactor left above 1 is a found prime when it is prime,
    and otherwise the residual cofactor of an incomplete screen.
    """
    d1 = poly_derivative(f)
    d2 = poly_derivative(d1)
    res = resultant(d1, d2)
    if res == 0:
        raise ValueError("the first two derivatives share a root over the rationals")
    common = math.gcd(res, resultant(f, d2))
    found = []
    cofactor = common
    for p in primes_up_to(scan_bound):
        if cofactor == 1:
            break
        if cofactor % p == 0:
            found.append(p)
            while cofactor % p == 0:
                cofactor //= p
    if cofactor > 1 and is_prime(cofactor):
        found.append(cofactor)
        cofactor = 1
    return TripleRootScreen(
        candidate_gcd=common,
        found_primes=tuple(found),
        residual_cofactor=cofactor,
        scan_bound=scan_bound,
    )


@dataclass(frozen=True)
class RepairRecord:
    """Outcome of the triple-root repair pass.

    f is the adjusted polynomial, congruent to the input mod N. pre_stage
    lists (p, u, w) adjustments by N*(u*x + w) applied at small primes,
    linear_nudges counts how many times n_tilde was added to the linear
    coefficient, and z is the final constant shift in units of n_tilde.
    found_primes, residual_cofactor and status come from the triple-root
    screen of the final f: status is "clean" when that screen was complete
    and "conditional" when a composite cofactor remains.
    """

    f: tuple[int, ...]
    n_tilde: int
    pre_stage: tuple[tuple[int, int, int], ...]
    linear_nudges: int
    z: int
    repaired_primes: tuple[int, ...]
    found_primes: tuple[int, ...]
    scan_bound: int
    residual_cofactor: int
    status: str


def _clear_small_prime(f: list[int], n: int, p: int) -> tuple[int, int]:
    """(u, w) in F_p x F_p such that f + n*(u*x + w) loses its triple roots mod p."""
    for u, w in itertools.product(range(p), repeat=2):
        candidate = list(f)
        candidate[1] += n * u
        candidate[0] += n * w
        if max(multiplicity_profile(candidate, p)) < 3:
            return u, w
    raise ConstructionError(f"no linear adjustment clears the multiplicity-3 roots mod {p}")


def _clearing_shift(f: list[int], p: int, g: int) -> int:
    """Smallest c in F_p such that f + c has no triple root mod p.

    A triple root of f + c is a common root of f + c and f''. When f'' is
    nonzero mod p it has at most 2g roots, so at most 2g residues c are
    forbidden and, for p > 2g, a valid c is among the first 2g + 1. When
    f'' = 0 mod p and p = 2g + 1 > 2, f = x^(p+1) + a*x^p + b*x + d mod p,
    so f' = (x + b)^p and only c = -f(-b) leaves a repeated root. Only
    p = 2 (reachable for g = 1) can leave every shift with a triple root.
    """
    for c in range(min(p, 2 * g + 2)):
        shifted = list(f)
        shifted[0] += c
        if max(multiplicity_profile(shifted, p)) < 3:
            return c
    raise ConstructionError(f"no constant shift clears the multiplicity-3 roots mod {p}")


def fix_multiplicities(
    f0: list[int],
    n: int,
    g: int,
    exceptions: tuple[int, ...] = (),
    scan_bound: int = DEFAULT_SCAN_BOUND,
) -> RepairRecord:
    """Adjust f0 within its congruence class mod n to remove stray triple roots.

    After the repair, f has no roots of multiplicity three or more modulo any
    found candidate prime outside the exceptions, while f stays congruent to
    f0 mod n. The exceptions must divide n; primes dividing n but not listed
    are required to be clean already, since no shift by a multiple of n can
    change f modulo them. A triple root is a root of multiplicity >= 3 in
    multiplicity_profile, the test of verify's ss flag.

    Raises ConstructionError when a triple root sits at an unlisted prime
    dividing n, or when no linear or constant shift clears one.
    """
    deg = 2 * g + 2
    f = list(f0)
    if poly_deg(poly_trim(f)) != deg or f[-1] != 1:
        raise ValueError("f0 must be monic of degree 2g + 2")
    if n < 1:
        raise ValueError("n must be positive")
    for p in exceptions:
        if not is_prime(p) or n % p != 0:
            raise ValueError("exceptions must be primes dividing n")

    small = [p for p in primes_up_to(2 * g - 1) if n % p != 0]
    pre_fixes = [
        (p, *_clear_small_prime(f, n, p)) for p in small if max(multiplicity_profile(f, p)) >= 3
    ]
    if pre_fixes:
        u = crt_integers([(u_p, p) for p, u_p, _ in pre_fixes])
        w = crt_integers([(w_p, p) for p, _, w_p in pre_fixes])
        f[1] += n * u
        f[0] += n * w

    # Res(f' + c, f'') is a polynomial in c of degree 2g with a nonzero
    # leading coefficient, so one of the first 2g + 1 nudges makes it nonzero.
    n_tilde = n * math.prod(small)
    skip = set(exceptions) | {2}
    nudges = 0
    while True:
        try:
            screen = screen_triple_roots(f, scan_bound)
            break
        except ValueError:
            f[1] += n_tilde
            nudges += 1
    for p in screen.found_primes:
        if n % p == 0 and p not in skip and max(multiplicity_profile(f, p)) >= 3:
            raise ConstructionError(f"unrepairable multiplicity-3 root at {p} dividing n")

    # Shifting the constant term by z * n_tilde leaves f' and f'' alone, so
    # every prime that turns bad divides the fixed nonzero Res(f', f''). Each
    # round pins one more of those primes clean (z = c / n_tilde mod p keeps
    # f + c there), so the loop ends. Every prime <= 2g - 1 divides n_tilde,
    # so a bad prime exceeds 2g, or is 2 when g = 1.
    constrained: dict[int, int] = {}
    z = 0
    shifted = f
    while True:
        bad = [
            p for p in screen.found_primes
            if n_tilde % p and max(multiplicity_profile(shifted, p)) >= 3
        ]
        if not bad:
            break
        for p in bad:
            constrained[p] = _clearing_shift(f, p, g)
        z = crt_integers(
            [((c * pow(n_tilde, -1, p)) % p, p) for p, c in constrained.items()]
        )
        shifted = list(f)
        shifted[0] += z * n_tilde
        screen = screen_triple_roots(shifted, scan_bound)
    return RepairRecord(
        f=tuple(shifted),
        n_tilde=n_tilde,
        pre_stage=tuple(pre_fixes),
        linear_nudges=nudges,
        z=z,
        repaired_primes=tuple(sorted(constrained)),
        found_primes=screen.found_primes,
        scan_bound=scan_bound,
        residual_cofactor=screen.residual_cofactor,
        status="clean" if screen.complete else "conditional",
    )


@dataclass(frozen=True)
class Certificate:
    """A constructed polynomial with the plan and evidence behind it."""

    g: int
    plan: PrimePlan
    specs: tuple[LocalSpec, ...]
    witnesses: tuple[tuple[int, ...], ...]
    f0: tuple[int, ...]
    modulus: int
    repair: RepairRecord

    @property
    def f(self) -> tuple[int, ...]:
        """The final polynomial, after the triple-root repair."""
        return self.repair.f


def build_certificate(
    g: int,
    seed: int = 0,
    scan_bound: int = DEFAULT_SCAN_BOUND,
    budget: int = WITNESS_BUDGET,
) -> Certificate:
    """Construct a certified polynomial for one genus, end to end.

    Picks the first prime tuple for the genus, plans the auxiliary primes,
    generates witness polynomials, assembles them and repairs stray triple
    roots. The congruences are not re-checked here: each one depends only on
    f mod N, and verify.check_hypotheses evaluates all of them on the final f.
    """
    tuples = two_g_eps_tuples(g)
    if not tuples:
        raise ExceptionalGenusError(
            f"genus {g} admits no prime tuple: {2 * g + 2} has no two prime-pair "
            "splittings q1 + q2 = q4 + q5 with a fifth prime between q5 and 2g + 2"
        )
    tup = tuples[0]
    plan = plan_primes(g, tup, seed)
    specs = local_spec_list(plan)
    witnesses = [witness_poly(spec, g, seed=seed, budget=budget) for spec in specs]
    f0, modulus = assemble(list(zip(specs, witnesses)), g)
    repair = fix_multiplicities(
        f0,
        modulus,
        g,
        exceptions=plan.exceptions,
        scan_bound=scan_bound,
    )
    if any((a - b) % modulus != 0 for a, b in zip(repair.f, f0)):
        raise RuntimeError("internal error: repair left the congruence class")
    return Certificate(
        g=g,
        plan=plan,
        specs=tuple(specs),
        witnesses=tuple(tuple(w) for w in witnesses),
        f0=tuple(f0),
        modulus=modulus,
        repair=repair,
    )
