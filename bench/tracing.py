"""In-memory spans around calls into gspmax's layers, recorded from outside.

The program is not edited: a traced run replaces each target function, under
every name a gspmax module binds it to, with a wrapper that records a span,
and puts the originals back afterwards. Because Python resolves a module's
global names at call time, this catches calls between modules and calls
within one module alike.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from .workloads import LADDER_GENERA, SWEEP_GENERA

# Target functions, as (module, function), in the order metrics are listed.
# cli.main is the span the benchmark opens around each call; the rest are
# wrapped.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "cmd_construct"),
    ("cli", "cmd_verify"),
    ("cli", "write_certificate"),
    ("cli", "read_certificate"),
    ("cli", "read_poly_file"),
    ("goldbach", "two_g_eps_tuples"),
    ("construct", "build_certificate"),
    ("construct", "plan_primes"),
    ("construct", "assemble"),
    ("construct", "fix_multiplicities"),
    ("construct", "screen_triple_roots"),
    ("localtypes", "witness_poly"),
    ("localtypes", "recognize_type"),
    ("localtypes", "multiplicity_profile"),
    ("arith", "pollard_factor"),
    ("arith", "fp_is_irreducible"),
    ("arith", "resultant"),
    ("arith", "fp_factor"),
    ("arith", "hensel_lift_factorization"),
    ("inertia", "is_totally_toric"),
    ("verify", "check_hypotheses"),
)

WITNESS_KINDS = (
    "type",
    "double_roots",
    "irreducible",
    "linear_times_irreducible",
    "good_reduction_2",
)

# Genera of every construct workload, for the per-genus build times.
BUILD_GENERA = tuple(sorted(set(LADDER_GENERA) | set(SWEEP_GENERA)))

# Hypothesis flags that call a kernel, named as metric names allow. The
# "2G+eps" and "3" flags read only the prime plan and call none.
FLAGS = ("2T", "TT", "p2", "p3", "p2prime", "p3prime", "S_2g_2", "ss")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _plan_flags(args, kwargs, result) -> dict:
    plan = _arg(args, kwargs, 1, "plan")
    return {
        "flag_of_prime": {
            plan.p_t: "2T",
            plan.p_t_prime: "2T",
            plan.p_2: "p2",
            plan.p_3: "p3",
            plan.p_2_prime: "p2prime",
            plan.p_3_prime: "p3prime",
        }
    }


def _repair_actions(args, kwargs, result) -> dict:
    actions = len(result.pre_stage) + result.linear_nudges + len(result.repaired_primes)
    return {"actions": actions}


def _screen_counts(args, kwargs, result) -> dict:
    return {
        "found_primes": len(result.found_primes),
        "residual_bits": result.residual_cofactor.bit_length(),
    }


# Extra facts recorded on a span from its arguments and result.
TAGGERS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "construct.build_certificate": lambda a, k, r: {"g": _arg(a, k, 0, "g")},
    "construct.fix_multiplicities": _repair_actions,
    "construct.screen_triple_roots": _screen_counts,
    "localtypes.witness_poly": lambda a, k, r: {"kind": _arg(a, k, 0, "spec").kind},
    "localtypes.recognize_type": lambda a, k, r: {"p": _arg(a, k, 1, "p")},
    "arith.resultant": lambda a, k, r: {"bits": abs(r).bit_length()},
    "verify.check_hypotheses": _plan_flags,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    input_id: str
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced run, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.input_id = ""
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.input_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, input_id: str) -> Iterator[None]:
        """A top-level span for one input; spans opened inside belong to it."""
        self.input_id = input_id
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tagger = TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if tagger is not None:
                self.spans[index].tags.update(tagger(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "input": s.input_id,
                    "tags": s.tags,
                }
                handle.write(json.dumps(record, default=str) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, package) -> Iterator[None]:
    """Wrap every target name in every module of the package; restore on exit."""
    modules = [getattr(package, name) for name in sorted({m for m, _ in FUNCTIONS})]
    saved: list[tuple[object, str, Callable]] = []
    try:
        for module_name, fn_name in FUNCTIONS:
            if (module_name, fn_name) == ("cli", "main"):
                continue
            original = getattr(getattr(package, module_name), fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                if vars(module).get(fn_name) is original:
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
        yield
    finally:
        for module, fn_name, original in reversed(saved):
            setattr(module, fn_name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    names: list[tuple[str, str]] = []
    for module_name, fn_name in FUNCTIONS:
        base = f"{module_name}.{fn_name}"
        names += [(f"{base}.s", "s"), (f"{base}.self_s", "s"), (f"{base}.calls", "count")]
    names += [(f"localtypes.witness_poly.s.{kind}", "s") for kind in WITNESS_KINDS]
    names += [
        ("localtypes.witness.tests", "count"),
        ("localtypes.witness.yield", "ratio"),
        ("arith.resultant.bits", "bits"),
        ("construct.screen_triple_roots.fix_multiplicities.s", "s"),
        ("construct.screen_triple_roots.check_hypotheses.s", "s"),
        ("construct.screen.found_primes", "count"),
        ("construct.screen.residual_bits", "bits"),
        ("construct.repair.actions", "count"),
    ]
    names += [(f"construct.build_certificate.g{g}.s", "s") for g in BUILD_GENERA]
    names += [(f"verify.flag.{flag}.s", "s") for flag in FLAGS]
    names += [
        ("verify.squarefree.s", "s"),
        ("conditional_share", "ratio"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
    return names


# Which flag a kernel called directly by check_hypotheses serves.
_FLAG_OF_KERNEL = {
    "inertia.is_totally_toric": "TT",
    "arith.fp_is_irreducible": "S_2g_2",
    "arith.fp_factor": "S_2g_2",
    "construct.screen_triple_roots": "ss",
    "localtypes.multiplicity_profile": "ss",
}


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced pass, except the run-level ones.

    A function's time counts only its outermost spans, so a function that
    reaches itself again is not counted twice. A span whose call raised has
    no tags; its time still counts, under no split.
    """
    selfs = self_times(spans)
    values: dict[str, float] = {}
    for module_name, fn_name in FUNCTIONS:
        base = f"{module_name}.{fn_name}"
        values[f"{base}.s"] = values[f"{base}.self_s"] = values[f"{base}.calls"] = 0

    def ancestors(s: Span) -> Iterator[Span]:
        while s.parent is not None:
            s = spans[s.parent]
            yield s

    def bump(name: str, amount: float) -> None:
        values[name] = values.get(name, 0) + amount

    witnesses = tests = 0
    bits = residual_bits = 0
    for s, own in zip(spans, selfs):
        name = s.name
        bump(f"{name}.self_s", own)
        bump(f"{name}.calls", 1)
        if all(a.name != name for a in ancestors(s)):
            bump(f"{name}.s", s.duration)
        parent = spans[s.parent] if s.parent is not None else None
        if name == "localtypes.witness_poly":
            kind = s.tags.get("kind")
            bump(f"{name}.s.{kind}", s.duration)
            witnesses += kind in ("irreducible", "linear_times_irreducible")
        elif name == "arith.fp_is_irreducible":
            tests += any(a.name == "localtypes.witness_poly" for a in ancestors(s))
        elif name == "arith.resultant":
            bits = max(bits, s.tags.get("bits", 0))
        elif name == "construct.build_certificate":
            bump(f"{name}.g{s.tags.get('g')}.s", s.duration)
        elif name == "construct.fix_multiplicities":
            bump("construct.repair.actions", s.tags.get("actions", 0))
        if name == "construct.screen_triple_roots":
            bump("construct.screen.found_primes", s.tags.get("found_primes", 0))
            residual_bits = max(residual_bits, s.tags.get("residual_bits", 0))
            if parent is not None:
                caller = parent.name.split(".")[-1]
                bump(f"{name}.{caller}.s", s.duration)
        if parent is not None and parent.name == "verify.check_hypotheses":
            if name == "localtypes.recognize_type":
                flag = parent.tags.get("flag_of_prime", {}).get(s.tags.get("p"))
                bump(f"verify.flag.{flag}.s", s.duration)
            elif name == "arith.resultant":
                bump("verify.squarefree.s", s.duration)
            elif name in _FLAG_OF_KERNEL:
                bump(f"verify.flag.{_FLAG_OF_KERNEL[name]}.s", s.duration)
    values["localtypes.witness.tests"] = tests
    values["localtypes.witness.yield"] = witnesses / tests if tests else 0.0
    values["arith.resultant.bits"] = bits
    values["construct.screen.residual_bits"] = residual_bits
    return values
