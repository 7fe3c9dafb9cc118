"""Hypothesis checking and verdicts for constructed polynomials.

Evaluates the full hypothesis list on a polynomial and its prime plan, runs
the triple-root screen, and turns the outcome into a verdict on how large the
mod-l monodromy groups are guaranteed to be.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    fp_factor,
    fp_is_irreducible,
    poly_deg,
    poly_derivative,
    poly_reduce,
    poly_trim,
    resultant,
)
from .construct import (
    ONE_MOD_3,
    PrimePlan,
    TripleRootScreen,
    generator_moduli,
    screen_triple_roots,
)
from .inertia import is_totally_toric
from .localtypes import LocalSpec, good_reduction_at_2, multiplicity_profile, recognize_type

FLAG_NAMES = ("2G+eps", "2T", "TT", "p2", "p3", "p2'", "p3'", "3", "S_2g+2", "ss")

# Primes that stay out of reach for the genera without a prime tuple, by genus.
EXCEPTIONAL_EXCLUDED = {
    2: {3, 5},
    3: {3, 5, 7},
    4: {5, 7},
    5: {5, 7, 11},
    7: {5, 11, 13},
    13: {11, 17, 23},
}


@dataclass(frozen=True)
class HypothesisFlag:
    """One checked hypothesis: pass, fail, or conditional, with evidence."""

    name: str
    status: str
    detail: str

    def __post_init__(self) -> None:
        if not all(isinstance(v, str) for v in (self.name, self.status, self.detail)):
            raise ValueError("flag name, status and detail must be strings")
        if self.name not in FLAG_NAMES:
            raise ValueError(f"unknown flag name {self.name!r}")
        if self.status not in ("pass", "fail", "conditional"):
            raise ValueError(f"unknown flag status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class SymmetricGroupEvidence:
    """The three ingredients forcing the full symmetric mod-2 group."""

    full_cycle: bool
    near_cycle: bool
    transposition: bool

    @property
    def complete(self) -> bool:
        return self.full_cycle and self.near_cycle and self.transposition


@dataclass(frozen=True)
class Verdict:
    """What the hypothesis outcome guarantees about the mod-l images."""

    kind: str
    excluded: tuple[int, ...]
    conditional: bool
    basis: str
    text: str


@dataclass(frozen=True)
class VerificationReport:
    """All hypothesis flags and the triple-root evidence behind a verdict.

    The genus is plan.g. screen is the triple-root screen behind the "ss"
    flag, with residual_cofactor 0 when it could not be taken; bad_primes
    pairs each of its found primes that carries a root of multiplicity >= 3
    with that maximal multiplicity. The verdict and the admissibility of the
    block-pattern primes are read from the flags, so a report copied with
    other flags is judged again.
    """

    plan: PrimePlan
    flags: tuple[HypothesisFlag, ...]
    screen: TripleRootScreen
    bad_primes: tuple[tuple[int, int], ...]
    mod_2: SymmetricGroupEvidence
    partial_admissible: bool

    def __post_init__(self) -> None:
        if tuple(fl.name for fl in self.flags) != FLAG_NAMES:
            raise ValueError(f"flags must be {', '.join(FLAG_NAMES)}, in that order")

    @property
    def admissible_derived(self) -> bool:
        return all(self.flag(name).ok for name in ("p2", "p3", "p2'", "p3'", "ss"))

    @property
    def verdict(self) -> Verdict:
        return verdict(self)

    def flag(self, name: str) -> HypothesisFlag:
        for fl in self.flags:
            if fl.name == name:
                return fl
        raise KeyError(name)


# The plan field whose type spec each block-pattern flag evaluates.
_BLOCK_FLAGS = (("p2", "p_2"), ("p3", "p_3"), ("p2'", "p_2_prime"), ("p3'", "p_3_prime"))


def _type_text(spec: LocalSpec, typed: bool) -> str:
    blocks = ",".join(str(q) for q in spec.qs)
    return f"type {spec.t}-{{{blocks}}} at {spec.p}: {'yes' if typed else 'no'}"


def check_hypotheses(
    f: list[int],
    plan: PrimePlan,
    screen: TripleRootScreen | None = None,
) -> VerificationReport:
    """Evaluate every hypothesis flag for f against its prime plan.

    A flag reads "pass" only when this checker can certify the hypothesis;
    "fail" means not certified. The semistability flag is "conditional" when
    all located candidate primes are clean but a composite cofactor of the
    triple-root screen's gcd remains above the scan bound. The local
    conditions come from the plan's menu, plan.specs: 2T and the block flags
    evaluate its type specs, TT its double_roots primes. The parts of a flag
    that depend on the plan alone (the tuple, distinct transvection primes
    above g, sizes, primitive roots, residues mod 3) are validated when the
    PrimePlan is created and only described here.

    screen, when given, must be screen_triple_roots(f), and is used instead
    of computing that screen again. construct passes the screen its repair
    ended with; verify passes none, so the screen is computed here. When f' and f''
    share a root no screen can be taken: the report holds one with no
    primes and residual cofactor 0, and "ss" fails.

    Raises ValueError unless f is monic of degree 2g + 2 and squarefree.
    Squarefreeness is taken from the S_2g+2 test when f is irreducible mod
    p_irr (so squarefree mod p_irr, and disc(f) != 0 as f is monic); only
    otherwise is the discriminant Res(f, f') computed.
    """
    g = plan.g
    deg = 2 * g + 2
    f = list(f)
    if poly_deg(poly_trim(f)) != deg or f[-1] != 1:
        raise ValueError("f must be monic of degree 2g + 2")
    irreducible = fp_is_irreducible(poly_reduce(f, plan.p_irr), plan.p_irr)
    if not irreducible and resultant(f, poly_derivative(f)) == 0:
        raise ValueError("f must be squarefree")
    tup = plan.prime_tuple
    type_specs = {spec.p: spec for spec in plan.specs if spec.kind == "type"}
    typed = {
        p: recognize_type(f, p, spec.t, list(spec.qs)) is not None
        for p, spec in type_specs.items()
    }

    flag_tuple = HypothesisFlag(
        "2G+eps",
        "pass",
        f"{deg} = {tup.q1}+{tup.q2} = {tup.q4}+{tup.q5}, q3 = {tup.q3}",
    )

    t_at, t_at_prime = typed[plan.p_t], typed[plan.p_t_prime]
    flag_2t = HypothesisFlag(
        "2T",
        "pass" if t_at and t_at_prime else "fail",
        f"{_type_text(type_specs[plan.p_t], t_at)}; "
        f"at {plan.p_t_prime}: {'yes' if t_at_prime else 'no'}",
    )

    toric = {
        spec.p: is_totally_toric(f, spec.p, g)
        for spec in plan.specs
        if spec.kind == "double_roots"
    }
    flag_tt = HypothesisFlag(
        "TT",
        "pass" if all(toric.values()) else "fail",
        "; ".join(
            f"totally toric at {ell}: {'yes' if ok else 'no'}"
            for ell, ok in toric.items()
        )
        or "no odd primes <= g",
    )

    block_flags = {}
    for name, slot in _BLOCK_FLAGS:
        p = getattr(plan, slot)
        moduli = ", ".join(str(q) for q in generator_moduli(tup, slot))
        block_flags[name] = HypothesisFlag(
            name,
            "pass" if typed[p] else "fail",
            f"{_type_text(type_specs[p], typed[p])}; generator mod {moduli}: yes",
        )

    flag_3 = HypothesisFlag(
        "3", "pass", ", ".join(f"{getattr(plan, slot)} = 1 mod 3" for slot in ONE_MOD_3)
    )

    lin_fac = fp_factor(poly_reduce(f, plan.p_lin), plan.p_lin)
    lin_shape = sorted(len(poly) - 1 for poly, _ in lin_fac.factors) == [
        1,
        deg - 1,
    ] and all(e == 1 for _, e in lin_fac.factors)
    mod_2 = SymmetricGroupEvidence(
        full_cycle=irreducible, near_cycle=lin_shape, transposition=t_at or t_at_prime
    )
    flag_s = HypothesisFlag(
        "S_2g+2",
        "pass" if irreducible and lin_shape else "fail",
        f"irreducible mod {plan.p_irr}: {'yes' if irreducible else 'no'}; "
        f"linear times irreducible mod {plan.p_lin}: {'yes' if lin_shape else 'no'}",
    )

    exceptions = set(plan.exceptions)
    good_2 = good_reduction_at_2(f, g)
    if screen is None:
        screen = screen_triple_roots(f)
    bad_primes = tuple(
        (p, mult)
        for p in screen.found_primes
        if (mult := max(multiplicity_profile(f, p))) >= 3
    )
    stray = [p for p, _ in bad_primes if p not in exceptions and p != 2]
    if not good_2 or stray or not screen.residual_cofactor:
        status = "fail"
    elif screen.complete:
        status = "pass"
    else:
        status = "conditional"
    detail = (
        f"2-adic good-reduction family: {'yes' if good_2 else 'no'}; "
        f"stray triple-root primes to {screen.scan_bound}: "
        f"{sorted(stray) if stray else 'none'}"
    )
    if not screen.residual_cofactor:
        detail = "triple-root screen unavailable: derivatives share a root"
    elif not screen.complete:
        detail += (
            f"; composite cofactor of {screen.residual_cofactor.bit_length()} "
            "bits remains above the scan bound"
        )
    flag_ss = HypothesisFlag("ss", status, detail)

    flags = (flag_tuple, flag_2t, flag_tt, *block_flags.values(), flag_3, flag_s, flag_ss)
    stray_partial = [p for p, _ in bad_primes if p != 2 and p not in (plan.p_2, plan.p_3)]
    partial_admissible = (
        good_2
        and screen.residual_cofactor != 0
        and all(
            (p == plan.p_2_prime and block_flags["p2'"].ok)
            or (p == plan.p_3_prime and block_flags["p3'"].ok)
            for p in stray_partial
        )
    )
    return VerificationReport(
        plan=plan,
        flags=flags,
        screen=screen,
        bad_primes=bad_primes,
        mod_2=mod_2,
        partial_admissible=partial_admissible,
    )


def verdict(report: VerificationReport) -> Verdict:
    """Turn a hypothesis report into the strongest supported verdict.

    The full flag set certifies maximality at every prime. The core set
    without the mod-3 or symmetric-group flags certifies all primes outside
    {3} or {2}. A passing partial set (2T, p2, p3, tuple, derivable
    admissibility) certifies all primes outside {2, 3, q1, q2, q3, p2, p3}
    subject to its per-prime case conditions. Anything less is "none". The
    verdict reads the flags, partial_admissible and the plan alone.
    """
    by_name = {fl.name: fl for fl in report.flags}
    conditional = by_name["ss"].status == "conditional"
    core = all(
        by_name[n].ok for n in ("2G+eps", "2T", "TT", "p2", "p3", "p2'", "p3'", "ss")
    )
    tail = " (conditional on no triple roots above the scan bound)" if conditional else ""
    if core and by_name["3"].ok and by_name["S_2g+2"].ok:
        return Verdict(
            kind="maximal-all-ell",
            excluded=(),
            conditional=conditional,
            basis="full-hypothesis-set",
            text="mod-l image maximal for every prime l" + tail,
        )
    if core:
        excluded = tuple(
            sorted(
                ({2} if not by_name["S_2g+2"].ok else set())
                | ({3} if not by_name["3"].ok else set())
            )
        )
        inside = ", ".join(str(p) for p in excluded)
        return Verdict(
            kind="maximal-except",
            excluded=excluded,
            conditional=conditional,
            basis="full-hypothesis-set",
            text=f"mod-l image maximal for every prime l outside {{{inside}}}" + tail,
        )
    partial = (
        by_name["2G+eps"].ok
        and by_name["2T"].ok
        and by_name["p2"].ok
        and by_name["p3"].ok
        and report.partial_admissible
    )
    if partial:
        plan = report.plan
        tup = plan.prime_tuple
        excluded = tuple(sorted({2, 3, tup.q1, tup.q2, tup.q3, plan.p_2, plan.p_3}))
        inside = ", ".join(str(p) for p in excluded)
        return Verdict(
            kind="maximal-except",
            excluded=excluded,
            conditional=conditional,
            basis="partial-hypothesis-set",
            text=(
                f"mod-l image maximal for primes l outside {{{inside}}} that are "
                "semistable above the genus, totally toric, or generators mod "
                f"{tup.q3}" + tail
            ),
        )
    return Verdict(
        kind="none",
        excluded=(),
        conditional=conditional,
        basis="insufficient",
        text="hypothesis set insufficient for a maximality conclusion",
    )
