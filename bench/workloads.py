"""Workload inputs and the closed loop that feeds them to gspmax's CLI.

One caller, no threads: each CLI call starts when the previous one returns.
Inputs come from the workload seed alone, so the same seed gives the same
inputs; the program sees only the generated arguments and files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from itertools import zip_longest
from time import perf_counter

WORKLOADS = ("ladder", "small-sweep", "verify-class")

# The north-star genera up to 14. Genus 20 alone takes about 47 s to
# construct and 19 s to verify, longer than one run of the benchmark may last.
LADDER_GENERA = (6, 8, 10, 14)

# Many small certificates, where per-certificate fixed costs show. Genus 12
# would add 10 s to every run.
SWEEP_GENERA = (6, 8, 9, 10, 11)

# Class members verified per pass, by the genus of their default-seed
# certificate. The genus-6 members share one prime plan; about one in twenty
# of them leaves a prime rho cofactor and takes some 20 s instead of 2 s.
CLASS_MEMBERS = {6: 3, 8: 1, 10: 1}

# Construct seeds drawn for the sweep; the fixture seed (-1) is never drawn.
SEED_RANGE = 1 << 31


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


@dataclass(frozen=True)
class Construct:
    """One `gspmax construct` input."""

    genus: int
    seed: int

    @property
    def input_id(self) -> str:
        return f"g{self.genus}-s{self.seed}"


def construct_inputs(workload: str, seed: int, index: int) -> list[Construct]:
    """The constructs of pass `index`: for verify-class, its certificates."""
    if workload == "ladder":
        s = seed if index == 0 else _rng(workload, seed, index).randrange(SEED_RANGE)
        return [Construct(g, s) for g in LADDER_GENERA]
    if workload == "small-sweep":
        rng = _rng(workload, seed, index)
        return [Construct(g, rng.randrange(SEED_RANGE)) for g in SWEEP_GENERA]
    if workload == "verify-class":
        return [Construct(g, 0) for g in CLASS_MEMBERS]
    raise ValueError(f"unknown workload {workload!r}")


def class_member(f: list[int], n: int, h: list[int]) -> list[int]:
    """f + n*h; with h of lower degree than f the result stays monic."""
    return [a + n * b for a, b in zip_longest(f, h, fillvalue=0)]


def class_members(seed: int, index: int, certs: dict[int, tuple[list[int], int]]):
    """(genus, member) pairs of pass `index`, from certs: genus -> (f, N)."""
    rng = _rng("verify-class", seed, index)
    out = []
    for g, count in CLASS_MEMBERS.items():
        f, n = certs[g]
        for _ in range(count):
            h = [rng.randrange(n) for _ in range(2 * g + 2)]
            out.append((g, class_member(f, n, h)))
    return out


def write_poly(path: str, f: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"degree": len(f) - 1, "coeffs": [str(c) for c in f]}, handle)


@dataclass
class Call:
    """One CLI call, its outcome, and what the correctness gate needs."""

    command: str
    genus: int
    input_id: str
    argv: list[str]
    allowed: frozenset[int]
    cert: str
    poly: str
    seed: int | None = None
    code: int | None = None
    seconds: float = 0.0
    stdout: str = ""
    error: str = ""
    notes: list[str] = field(default_factory=list)


class Session:
    """The single caller: runs calls in order and keeps every outcome."""

    def __init__(self, cli, workdir: str) -> None:
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self.calls: list[Call] = []
        self._count = 0

    def path(self, stem: str) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"{self._count:04d}-{stem}.json")

    def invoke(self, call: Call) -> Call:
        out, err = io.StringIO(), io.StringIO()
        span = (
            self.tracer.span("cli.main", call.input_id)
            if self.tracer is not None
            else contextlib.nullcontext()
        )
        start = perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                call.code = self.cli.main(call.argv)
        except SystemExit as exc:
            call.code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            call.error = traceback.format_exc()
        call.seconds = perf_counter() - start
        call.stdout = out.getvalue()
        if call.code is not None and call.code not in call.allowed:
            call.error = f"exit {call.code}, allowed {sorted(call.allowed)}: {err.getvalue()}"
        self.calls.append(call)
        return call

    def construct(self, c: Construct) -> Call:
        cert, poly = self.path(f"cert-{c.input_id}"), self.path(f"f-{c.input_id}")
        argv = ["construct", "--genus", str(c.genus), "--seed", str(c.seed)]
        argv += ["--out", cert, "--poly-out", poly]
        call = Call("construct", c.genus, c.input_id, argv, frozenset({0, 3}), cert, poly, c.seed)
        return self.invoke(call)

    def verify(self, genus: int, input_id: str, cert: str, poly: str, allowed) -> Call:
        argv = ["verify", "--poly", poly, "--cert", cert]
        return self.invoke(Call("verify", genus, input_id, argv, frozenset(allowed), cert, poly))


def run_pass(session: Session, workload: str, seed: int, index: int, certs=None) -> list[Call]:
    """One pass over the workload's inputs; returns the calls it made.

    ladder and small-sweep construct each input and then verify the
    polynomial it wrote, which must earn the same exit code. verify-class
    verifies class members of the certificates in `certs`, genus -> Call of
    their construct; a member may legitimately fail (exit 1).
    """
    calls = []
    if workload in ("ladder", "small-sweep"):
        for c in construct_inputs(workload, seed, index):
            made = session.construct(c)
            calls.append(made)
            if made.code in made.allowed and not made.error:
                calls.append(
                    session.verify(c.genus, c.input_id, made.cert, made.poly, {made.code})
                )
        return calls
    members = class_members(seed, index, {g: cert_poly(call) for g, call in certs.items()})
    for i, (g, member) in enumerate(members):
        input_id = f"g{g}-m{index}.{i}"
        poly = session.path(f"member-{input_id}")
        write_poly(poly, member)
        calls.append(session.verify(g, input_id, certs[g].cert, poly, {0, 1, 3}))
    return calls


def cert_poly(call: Call) -> tuple[list[int], int]:
    """(f, N) of the certificate a construct call wrote."""
    with open(call.cert, encoding="utf-8") as handle:
        data = json.load(handle)
    return [int(c) for c in data["repair"]["f"]], int(data["N"])
