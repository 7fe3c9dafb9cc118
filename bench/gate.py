"""Correctness gate, run after the timed loop on every call's outputs.

Facts about the polynomials are re-derived with sympy, independently of
gspmax's own arithmetic: irreducibility mod p_irr, the linear-times-
irreducible shape mod p_lin, and, for a class member that verify rejects,
the stray triple root the report names.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

_STRAY = re.compile(r"stray triple-root primes to \d+: \[([\d, ]+)\]")


def digest(f0: list[int], n: int, f: list[int]) -> str:
    """Digest of a certificate's (f0, N, f), pinned for seed-0 constructs."""
    text = json.dumps([[str(c) for c in f0], str(n), [str(c) for c in f]])
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict[int, str]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return {int(g): d for g, d in json.load(handle).items()}


class Oracle:
    """sympy's factorization over F_p."""

    def __init__(self) -> None:
        import sympy

        self._sympy = sympy
        self._x = sympy.Symbol("x")

    def _poly(self, f: list[int], p: int):
        return self._sympy.Poly(list(reversed(f)), self._x, modulus=p)

    def irreducible(self, f: list[int], p: int) -> bool:
        return self._poly(f, p).is_irreducible

    def linear_times_irreducible(self, f: list[int], p: int) -> bool:
        _, factors = self._poly(f, p).factor_list()
        shape = sorted(fac.degree() for fac, _ in factors)
        return shape == [1, len(f) - 2] and all(e == 1 for _, e in factors)

    def has_triple_root(self, f: list[int], p: int) -> bool:
        _, parts = self._poly(f, p).sqf_list()
        return any(e >= 3 and part.degree() >= 1 for part, e in parts)


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _check_class(oracle: Oracle, f: list[int], g: int, cert: dict) -> list[str]:
    """What is wrong with f as a member of the certificate's class, if anything."""
    problems = []
    f0, n = _ints(cert["f0"]), int(cert["N"])
    if len(f) != 2 * g + 3 or f[-1] != 1:
        problems.append("not monic of degree 2g + 2")
    elif any((a - b) % n for a, b in zip(f, f0)):
        problems.append("not congruent to f0 mod N")
    plan = cert["plan"]
    if not oracle.irreducible(f, plan["p_irr"]):
        problems.append(f"reducible mod p_irr = {plan['p_irr']}")
    if not oracle.linear_times_irreducible(f, plan["p_lin"]):
        problems.append(f"not linear times irreducible mod p_lin = {plan['p_lin']}")
    return problems


def _check_construct(oracle: Oracle, call, pins: dict[int, str]) -> list[str]:
    cert = _read(call.cert)
    f = _ints(_read(call.poly)["coeffs"])
    problems = []
    if cert["genus"] != call.genus or _ints(cert["repair"]["f"]) != f:
        problems.append("certificate and polynomial file disagree")
    f0, n = _ints(cert["f0"]), int(cert["N"])
    moduli = [int(s["modulus"]) for s in cert["specs"]]
    if math.prod(moduli) != n:
        problems.append("N is not the product of the spec moduli")
    for spec, m in zip(cert["specs"], moduli):
        if any((a - b) % m for a, b in zip(f0, _ints(spec["witness"]))):
            problems.append(f"f0 misses the witness mod {m}")
    problems += _check_class(oracle, f, call.genus, cert)
    if call.seed == 0 and call.genus in pins and digest(f0, n, f) != pins[call.genus]:
        problems.append("seed-0 certificate differs from its pinned digest")
    return problems


def _check_verify(oracle: Oracle, call) -> list[str]:
    cert = _read(call.cert)
    f = _ints(_read(call.poly)["coeffs"])
    problems = _check_class(oracle, f, call.genus, cert)
    lines = call.stdout.splitlines()
    if "congruent to the certified class mod N: yes" not in lines:
        problems.append("verify did not confirm the congruence")
    if call.code == 1:
        failing = [line.split()[0] for line in lines if line.split()[1:2] == ["fail"]]
        stray = _STRAY.search(call.stdout)
        if failing != ["ss"] or stray is None:
            problems.append(f"exit 1 with failing flags {failing}, no stray prime named")
        else:
            for p in _ints(stray.group(1).split(",")):
                if not oracle.has_triple_root(f, p):
                    problems.append(f"named stray prime {p} has no triple root")
    return problems


def check(calls) -> None:
    """Append each call's problems to its notes; calls that already failed are skipped."""
    oracle = Oracle()
    pins = load_pins()
    for call in calls:
        if call.error or call.code is None:
            continue
        if call.command == "construct":
            call.notes += _check_construct(oracle, call, pins)
        else:
            call.notes += _check_verify(oracle, call)
