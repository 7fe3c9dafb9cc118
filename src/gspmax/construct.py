"""Assembly of integer polynomials from menus of local congruences.

Plans the auxiliary primes for a genus, lays out one congruence per prime,
combines witness polynomials into a single monic integer polynomial by the
Chinese remainder theorem, and repairs residual triple roots so that only the
planned primes see roots of multiplicity three or more.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .arith import (
    crt_integers,
    is_prime,
    is_primitive_root,
    iter_primes,
    poly_deg,
    poly_derivative,
    poly_trim,
    primes_up_to,
    resultant,
)
from .goldbach import GoldbachTuple, two_g_eps_tuples
from .localtypes import (
    FIXTURE_WITNESSES_G6,
    ConstructionError,
    LocalSpec,
    multiplicity_profile,
    witness_poly,
)

# sentinel seed selecting the frozen genus-6 plan and witness table
FIXTURE_SEED = -1

PLAN_SCAN_BOUND = 10**6

# screen_triple_roots trial-divides its gcd by the primes up to this bound
SCAN_BOUND = 10**5

# The eight PrimePlan fields that hold its auxiliary primes, in field order.
PLAN_FIELDS = ("p_t", "p_t_prime", "p_2", "p_2_prime", "p_3", "p_3_prime", "p_irr", "p_lin")

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


def _broken_rule(slot: str, p: int, g: int, tup: GoldbachTuple) -> str | None:
    """The first rule for the plan field slot that p breaks, or None when p may fill it.

    Every plan prime is a prime other than 2 above g. A GENERATORS slot also
    needs p > 2g + 2, p = 1 mod 3 when it is in ONE_MOD_3, and p a primitive
    root mod each of its generator_moduli.
    """
    if not is_prime(p):
        return f"{p} is not prime"
    if p == 2 or p <= g:
        return "plan primes must avoid 2 and the odd primes <= g"
    if slot not in GENERATORS:
        return None
    if p <= 2 * g + 2:
        return "block-pattern primes must exceed 2g + 2"
    if slot in ONE_MOD_3 and p % 3 != 1:
        return f"{' and '.join(ONE_MOD_3)} must be 1 mod 3"
    for q in generator_moduli(tup, slot):
        if not is_primitive_root(p, q):
            return f"{p} is not a primitive root mod {q}"
    return None


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
    that the tuple has genus g, that each prime meets the rules of its field
    (_broken_rule) and that the primes are distinct. specs, the plan's
    congruence menu, is built once, on first use.
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
        if self.prime_tuple.g != self.g:
            raise ValueError("prime tuple belongs to a different genus")
        for slot in PLAN_FIELDS:
            if rule := _broken_rule(slot, getattr(self, slot), self.g, self.prime_tuple):
                raise ValueError(rule)
        if len(set(self.all_primes)) != 8:
            raise ValueError("plan primes must be pairwise distinct")

    @property
    def all_primes(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in PLAN_FIELDS)

    @property
    def exceptions(self) -> tuple[int, ...]:
        """The primes allowed to keep roots of multiplicity three or more."""
        return tuple(sorted((self.p_2, self.p_2_prime, self.p_3, self.p_3_prime)))

    @functools.cached_property
    def specs(self) -> tuple[LocalSpec, ...]:
        """The full congruence menu of the plan, one spec per modulus."""
        g, tup = self.g, self.prime_tuple
        specs = [
            LocalSpec(p=self.p_t, kind="type", m=2, t=1, qs=(2,)),
            LocalSpec(p=self.p_t_prime, kind="type", m=2, t=1, qs=(2,)),
        ]
        for ell in primes_up_to(g):
            if ell % 2 == 1:
                specs.append(LocalSpec(p=ell, kind="double_roots", m=2, count=g))
        specs.extend(
            [
                LocalSpec(p=self.p_2, kind="type", m=2, t=1, qs=(tup.q1, tup.q2)),
                LocalSpec(p=self.p_2_prime, kind="type", m=2, t=1, qs=(tup.q4, tup.q5)),
                LocalSpec(p=self.p_3, kind="type", m=3, t=2, qs=(tup.q3,)),
                LocalSpec(p=self.p_3_prime, kind="type", m=3, t=2, qs=(tup.q5,)),
                LocalSpec(p=self.p_irr, kind="irreducible", m=1),
                LocalSpec(p=self.p_lin, kind="linear_times_irreducible", m=1),
                LocalSpec(p=2, kind="good_reduction_2", m=2 * g + 2),
            ]
        )
        return tuple(specs)

    @functools.cached_property
    def modulus(self) -> int:
        """N, the product of the spec moduli."""
        return math.prod(spec.modulus for spec in self.specs)


def plan_primes(g: int, tup: GoldbachTuple) -> PrimePlan:
    """Choose the eight auxiliary primes for a genus and its prime tuple.

    The scan is deterministic: each slot, in the order p_t, p_t', then the
    GENERATORS slots p_2, p_3, p_2', p_3', then p_irr, p_lin, takes the
    smallest prime that no earlier slot took and that breaks none of its
    rules (_broken_rule).
    """
    used: set[int] = set()

    def take(slot: str) -> int:
        for n in range(g + 1, PLAN_SCAN_BOUND):
            if n not in used and _broken_rule(slot, n, g, tup) is None:
                used.add(n)
                return n
        raise ValueError(f"no suitable prime for {slot} below {PLAN_SCAN_BOUND}")

    slots = ("p_t", "p_t_prime", *GENERATORS, "p_irr", "p_lin")
    return PrimePlan(g=g, prime_tuple=tup, **{slot: take(slot) for slot in slots})


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

    Every such prime divides G = gcd(|Res(f', f'')|, |Res(f, f'')|), whose
    prime divisors up to scan_bound (and a prime cofactor above it) are the
    found_primes; scan_bound records the SCAN_BOUND the screen was taken to.
    A residual_cofactor above 1 is the composite part of G left unfactored
    above the scan bound; 0 marks the unavailable screen
    TripleRootScreen((), 0, scan_bound), taken when f' and f'' share a root.
    Only a complete screen, with residual_cofactor 1, rules out every other
    prime.
    """

    found_primes: tuple[int, ...]
    residual_cofactor: int
    scan_bound: int

    @property
    def complete(self) -> bool:
        return self.residual_cofactor == 1


def _derivatives(f: list[int]) -> tuple[list[int], list[int]]:
    """(f', f'')."""
    d1 = poly_derivative(f)
    return d1, poly_derivative(d1)


def screen_triple_roots(f: list[int], res_derivatives: int | None = None) -> TripleRootScreen:
    """Locate every prime at which the monic f could have a root of multiplicity >= 3.

    Such a root of f mod p is a common root of f, f' and f'' mod p. The
    Sylvester matrix of two integer polynomials, taken with their formal
    degrees, reduces mod p to that of their reductions, whose determinant
    vanishes when the reductions share a root. So p divides Res(f', f'') and
    Res(f, f''), and hence G = gcd(|Res(f', f'')|, |Res(f, f'')|). When
    Res(f, f'') = 0, G is |Res(f', f'')|, which p still divides.

    G is trial-divided by the primes up to SCAN_BOUND, read at call time and
    drawn in increasing order, and the division stops at the first of: the
    cofactor reaches 1, the primes pass SCAN_BOUND, or the next prime p has
    p^2 > cofactor (all prime factors of the cofactor are then >= p, so it
    is prime). A cofactor left above 1 is a found prime when it is prime,
    and otherwise the residual cofactor of an incomplete screen. The result
    is the same as dividing by every prime up to SCAN_BOUND.

    When Res(f', f'') = 0, f' and f'' share a root over the rationals, every
    prime divides it, and the unavailable screen (no primes, residual
    cofactor 0) is returned. A caller that already holds Res(f', f'') passes
    it as res_derivatives, and only Res(f, f'') is computed.
    """
    d1, d2 = _derivatives(f)
    res = resultant(d1, d2) if res_derivatives is None else res_derivatives
    if res == 0:
        return TripleRootScreen(found_primes=(), residual_cofactor=0, scan_bound=SCAN_BOUND)
    cofactor = math.gcd(res, resultant(f, d2))
    found = []
    for p in iter_primes(SCAN_BOUND):
        if p * p > cofactor:
            break
        if cofactor % p == 0:
            found.append(p)
            while cofactor % p == 0:
                cofactor //= p
            if cofactor == 1:
                break
    if cofactor > 1 and is_prime(cofactor):
        found.append(cofactor)
        cofactor = 1
    return TripleRootScreen(
        found_primes=tuple(found), residual_cofactor=cofactor, scan_bound=SCAN_BOUND
    )


@dataclass(frozen=True)
class RepairRecord:
    """Outcome of the triple-root repair pass.

    f is the adjusted polynomial, congruent to the input mod N. pre_stage
    lists (p, u, w) adjustments by N*(u*x + w) applied at small primes,
    linear_nudges counts how many times n_tilde was added to the linear
    coefficient, and z is the final constant shift in units of n_tilde; f
    and n_tilde follow from these actions by repaired_poly.
    screen is the triple-root screen of the final f; construct's report
    reuses it, and a certificate stores its fields. status is "clean" when
    that screen is complete and "conditional" when a composite cofactor
    remains.
    """

    f: tuple[int, ...]
    n_tilde: int
    pre_stage: tuple[tuple[int, int, int], ...]
    linear_nudges: int
    z: int
    repaired_primes: tuple[int, ...]
    screen: TripleRootScreen

    @property
    def status(self) -> str:
        return "clean" if self.screen.complete else "conditional"


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


def repaired_poly(
    f0: tuple[int, ...] | list[int], n: int, g: int, pre_stage: tuple, linear_nudges: int, z: int
) -> tuple[list[int], int]:
    """The polynomial that a repair's actions make of f0, and their step n_tilde.

    n_tilde is n times every prime p <= 2g - 1 that does not divide n, and
    f = f0 + n*(u*x + w) + linear_nudges*n_tilde*x + z*n_tilde, where (u, w)
    is the CRT of the pre-stage entries (p, u_p, w_p), or (0, 0) without any.
    """
    n_tilde = n * math.prod(p for p in primes_up_to(2 * g - 1) if n % p != 0)
    f = list(f0)
    if pre_stage:
        f[1] += n * crt_integers([(u, p) for p, u, _ in pre_stage])
        f[0] += n * crt_integers([(w, p) for p, _, w in pre_stage])
    f[1] += linear_nudges * n_tilde
    f[0] += z * n_tilde
    return f, n_tilde


def fix_multiplicities(
    f0: list[int], n: int, g: int, exceptions: tuple[int, ...] = ()
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
    f = list(f0)
    if poly_deg(poly_trim(f)) != 2 * g + 2 or f[-1] != 1:
        raise ValueError("f0 must be monic of degree 2g + 2")
    if n < 1:
        raise ValueError("n must be positive")
    for p in exceptions:
        if not is_prime(p) or n % p != 0:
            raise ValueError("exceptions must be primes dividing n")

    pre_fixes = tuple(
        (p, *_clear_small_prime(f, n, p))
        for p in primes_up_to(2 * g - 1)
        if n % p != 0 and max(multiplicity_profile(f, p)) >= 3
    )

    # Res(f' + c, f'') is a polynomial in c of degree 2g with a nonzero
    # leading coefficient, so one of the first 2g + 1 nudges makes it nonzero.
    f, n_tilde = repaired_poly(f0, n, g, pre_fixes, 0, 0)
    skip = set(exceptions) | {2}
    nudges = 0
    while not (res_derivatives := resultant(*_derivatives(f))):
        nudges += 1
        f, _ = repaired_poly(f0, n, g, pre_fixes, nudges, 0)
    screen = screen_triple_roots(f, res_derivatives)
    for p in screen.found_primes:
        if n % p == 0 and p not in skip and max(multiplicity_profile(f, p)) >= 3:
            raise ConstructionError(f"unrepairable multiplicity-3 root at {p} dividing n")

    # Shifting the constant term by z * n_tilde leaves f' and f'' alone, so
    # every prime that turns bad divides the fixed nonzero Res(f', f''), which
    # each round's screen reuses. Each round pins one more of those primes
    # clean (z = c / n_tilde mod p keeps f + c there), so the loop ends. Every
    # prime <= 2g - 1 divides n_tilde, so a bad prime exceeds 2g, or is 2
    # when g = 1.
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
        shifted, _ = repaired_poly(f0, n, g, pre_fixes, nudges, z)
        screen = screen_triple_roots(shifted, res_derivatives)
    return RepairRecord(
        f=tuple(shifted),
        n_tilde=n_tilde,
        pre_stage=pre_fixes,
        linear_nudges=nudges,
        z=z,
        repaired_primes=tuple(sorted(constrained)),
        screen=screen,
    )


@dataclass(frozen=True)
class Certificate:
    """A constructed polynomial with the plan and evidence behind it.

    The genus is plan.g and N is plan.modulus. f0 is the CRT assembly of one
    witness per spec of plan.specs, so each witness is f0 mod its modulus.
    """

    plan: PrimePlan
    f0: tuple[int, ...]
    repair: RepairRecord

    @property
    def f(self) -> tuple[int, ...]:
        """The final polynomial, after the triple-root repair."""
        return self.repair.f


def build_certificate(g: int, seed: int = 0) -> Certificate:
    """Construct a certified polynomial for one genus, end to end.

    Picks the first prime tuple for the genus, plans the auxiliary primes,
    generates witness polynomials, assembles them and repairs stray triple
    roots. seed = FIXTURE_SEED takes the frozen genus-6 plan and witness
    table (FIXTURE_WITNESSES_G6) in place of the scan and the seeded search.
    The congruences are not re-checked here: each one depends only on f mod
    N, and verify.check_hypotheses evaluates all of them on the final f.
    """
    tuples = two_g_eps_tuples(g)
    if not tuples:
        raise ExceptionalGenusError(
            f"genus {g} admits no prime tuple: {2 * g + 2} has no two prime-pair "
            "splittings q1 + q2 = q4 + q5 with a fifth prime between q5 and 2g + 2"
        )
    tup = tuples[0]
    if seed == FIXTURE_SEED:
        if g != 6:
            raise ValueError("no reference plan for this genus and tuple")
        plan = _fixture_plan_g6(tup)
        witnesses = [FIXTURE_WITNESSES_G6[spec.p] for spec in plan.specs]
    else:
        plan = plan_primes(g, tup)
        witnesses = [witness_poly(spec, g, seed=seed) for spec in plan.specs]
    f0, modulus = assemble(list(zip(plan.specs, witnesses)), g)
    repair = fix_multiplicities(f0, modulus, g, exceptions=plan.exceptions)
    return Certificate(plan=plan, f0=tuple(f0), repair=repair)
