"""Command-line interface over the prime-tuple, certificate, and inertia tools."""

from __future__ import annotations

import argparse
import collections
import json
import sys

from .arith import is_prime, poly_deg
from .construct import (
    FIXTURE_SEED,
    PLAN_FIELDS,
    Certificate,
    ExceptionalGenusError,
    PrimePlan,
    RepairRecord,
    TripleRootScreen,
    build_certificate,
    repaired_poly,
)
from .goldbach import GoldbachTuple, two_g_eps_tuples, verify_range
from .inertia import (
    EigenvalueMultiset,
    clusters_from_double_roots,
    clusters_from_type,
    etale_decomposition,
    semistable_from_reduction,
    tame_eigenvalues,
)
from .localtypes import ConstructionError, multiplicity_profile, recognize_type
from .verify import (
    EXCEPTIONAL_EXCLUDED,
    HypothesisFlag,
    SymmetricGroupEvidence,
    VerificationReport,
    check_hypotheses,
)

SCHEMA_VERSION = 1
# Largest accepted goldbach --max, so that its sieve does not grow without
# limit; sieving to it takes under a second.
MAX_GOLDBACH_BOUND = 10**7

# goldbach --genus 314 lists 11,599 prime tuples, more than any smaller genus;
# the tuple search grows with the genus, so larger ones are refused.
MAX_GENUS = 314

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONDITIONAL = 3
EXIT_EXCEPTIONAL = 4
EXIT_CONSTRUCTION = 5


class _CliError(Exception):
    """A reportable command failure carrying its exit code."""

    def __init__(self, exit_code: int, message: str) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def _shown(value: object) -> str:
    """A JSON value as a message shows it: a scalar as JSON text, a list or object by its kind."""
    return {dict: "an object", list: "a list"}.get(type(value)) or json.dumps(value)


def _parse_int(value: object) -> int:
    """Accept a native int or a decimal string, rejecting everything else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        body = value[1:] if value.startswith("-") else value
        if body.isascii() and body.isdigit():
            return int(value)
    raise ValueError(f"not a decimal integer: {_shown(value)}")


def _read_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {err}") from err
    except ValueError as err:  # also bad UTF-8 and numbers past the int digit limit
        raise _CliError(EXIT_USAGE, f"{path} is not valid JSON: {err}") from err


def _write_json(path: str, data: dict) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise _CliError(EXIT_USAGE, f"cannot write {path}: {err}") from err


def _read_object(path: str, kind: str) -> dict:
    """A JSON file whose top level must be an object."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise _CliError(EXIT_USAGE, f"malformed {kind} file {path}: not a JSON object")
    return data


def read_poly_file(path: str) -> list[int]:
    """Load a polynomial file: ascending decimal coefficients, monic."""
    data = _read_object(path, "polynomial")
    try:
        degree = _parse_int(data["degree"])
        coeffs = [_parse_int(c) for c in data["coeffs"]]
    except (KeyError, TypeError, ValueError) as err:
        raise _CliError(EXIT_USAGE, f"malformed polynomial file {path}: {err}") from err
    if len(coeffs) != degree + 1:
        raise _CliError(
            EXIT_USAGE,
            f"malformed polynomial file {path}: {len(coeffs)} coefficients for degree {degree}",
        )
    if not coeffs or coeffs[-1] != 1:
        raise _CliError(
            EXIT_USAGE, f"malformed polynomial file {path}: leading coefficient must be 1"
        )
    return coeffs


def write_poly_file(path: str, f: list[int]) -> None:
    """Write a polynomial file with ascending decimal-string coefficients."""
    _write_json(path, {"degree": poly_deg(list(f)), "coeffs": [str(c) for c in f]})


def _report_to_json(report: VerificationReport) -> dict:
    v = report.verdict
    return {
        "flags": [
            {"name": fl.name, "status": fl.status, "detail": fl.detail}
            for fl in report.flags
        ],
        "scan": {
            "bound": report.screen.scan_bound,
            "found_primes": [str(p) for p in report.screen.found_primes],
            "bad_primes": [{"prime": str(p), "multiplicity": m} for p, m in report.bad_primes],
            "residual_cofactor": str(report.screen.residual_cofactor),
        },
        "mod_2": {
            "full_cycle": report.mod_2.full_cycle,
            "near_cycle": report.mod_2.near_cycle,
            "transposition": report.mod_2.transposition,
        },
        "admissible_derived": report.admissible_derived,
        "partial_admissible": report.partial_admissible,
        "verdict": {
            "kind": v.kind,
            "excluded": list(v.excluded),
            "conditional": v.conditional,
            "basis": v.basis,
            "text": v.text,
        },
    }


def _report_from_json(
    data: dict, plan: PrimePlan, screen: TripleRootScreen
) -> VerificationReport:
    """Parse what a report cannot derive; its screen is the repair's."""
    return VerificationReport(
        plan=plan,
        flags=tuple(HypothesisFlag(**e) for e in data["flags"]),
        screen=screen,
        bad_primes=tuple(
            (_parse_int(e["prime"]), _parse_int(e["multiplicity"]))
            for e in data["scan"]["bad_primes"]
        ),
        mod_2=SymmetricGroupEvidence(**{k: bool(v) for k, v in data["mod_2"].items()}),
        partial_admissible=bool(data["partial_admissible"]),
    )


def certificate_to_json(cert: Certificate, report: VerificationReport) -> dict:
    """Serialize a certificate and its report with big integers as strings."""
    tup = cert.plan.prime_tuple
    plan = cert.plan
    repair = cert.repair
    return {
        "schema": SCHEMA_VERSION,
        "genus": plan.g,
        "tuple": {"q1": tup.q1, "q2": tup.q2, "q3": tup.q3, "q4": tup.q4, "q5": tup.q5},
        "plan": {name: getattr(plan, name) for name in PLAN_FIELDS},
        "specs": [
            {
                "prime": spec.p,
                "kind": spec.kind,
                "m": spec.m,
                "modulus": str(spec.modulus),
                "t": spec.t,
                "qs": list(spec.qs),
                "count": spec.count,
                "witness": [str(c % spec.modulus) for c in cert.f0],
            }
            for spec in plan.specs
        ],
        "f0": [str(c) for c in cert.f0],
        "N": str(plan.modulus),
        "repair": {
            "f": [str(c) for c in repair.f],
            "n_tilde": str(repair.n_tilde),
            "pre_stage": [
                {"prime": p, "u": u, "w": w} for p, u, w in repair.pre_stage
            ],
            "linear_nudges": repair.linear_nudges,
            "z": str(repair.z),
            "repaired_primes": [str(p) for p in repair.repaired_primes],
            "found_primes": [str(p) for p in repair.screen.found_primes],
            "scan_bound": repair.screen.scan_bound,
            "residual_cofactor": str(repair.screen.residual_cofactor),
            "status": repair.status,
        },
        "report": _report_to_json(report),
    }


def _first_difference(stored: object, expected: object, path: str = "") -> str | None:
    """The first path, in sorted-key order, at which two JSON values differ, or None.

    Scalars are compared as JSON text, so true is not 1, 3 is not 3.0 and 6
    is not "6"; a list or object is named by its kind or length, never shown.
    """
    if isinstance(stored, dict) and isinstance(expected, dict):
        for key in sorted(stored.keys() | expected.keys()):
            inner = f"{path}.{key}" if path else key
            if key not in stored or key not in expected:
                return f"{inner}: {'missing' if key in expected else 'unexpected'}"
            if (found := _first_difference(stored[key], expected[key], inner)) is not None:
                return found
        return None
    if isinstance(stored, list) and isinstance(expected, list):
        if len(stored) != len(expected):
            return f"{path}: stored {len(stored)} entries, expected {len(expected)}"
        for i, (a, b) in enumerate(zip(stored, expected)):
            if (found := _first_difference(a, b, f"{path}[{i}]")) is not None:
                return found
        return None
    shown = [_shown(v) for v in (stored, expected)]
    return None if shown[0] == shown[1] else f"{path}: stored {shown[0]}, expected {shown[1]}"


def _check_primes(path: str, primes: tuple[int, ...], n: int, name: str) -> None:
    """Require strictly increasing primes that do not divide n, called name in the message."""
    if any(a >= b for a, b in zip(primes, primes[1:])):
        raise ValueError(f"{path}: primes must be strictly increasing")
    for i, p in enumerate(primes):
        if p < 2 or n % p == 0 or not is_prime(p):
            raise ValueError(f"{path}[{i}]: {p} is not a prime that does not divide {name}")


def certificate_from_json(data: dict) -> tuple[Certificate, VerificationReport]:
    """Rebuild the certificate and report objects from their JSON form.

    Only what cannot be derived is parsed: the genus, tuple, plan and f0,
    the repair's actions, repaired primes and screen, and the report's
    flags, bad primes, mod-2 evidence and partial admissibility. One rule
    then covers the rest: as JSON text, the file must be exactly what
    certificate_to_json writes for these objects (so true is not 1 and 6 is
    not "6"), or the first differing path is named. So the specs are the
    plan's menu, each witness is f0 mod its spec's modulus, N is the plan's
    modulus, the repaired f and n_tilde follow from f0, N and the repair's
    actions (repaired_poly), the status, verdict and admissibility follow
    from their evidence, and the report's screen is the repair's.

    Outside that rule, f0 must have 2g + 3 coefficients, checked before the
    plan is built, each in [0, N) as assemble makes them. The repair's
    actions must be ones fix_multiplicities takes: pre-stage entries at
    strictly increasing primes p <= 2g - 1 that do not divide N, each with
    0 <= u, w < p, and strictly increasing repaired primes that do not
    divide n_tilde. Every modulus comes from the plan's menu, never from
    the file, so the work stays bounded by the size of the file.
    """
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate schema {data.get('schema')!r}")
    g = _parse_int(data["genus"])
    f0 = tuple(_parse_int(c) for c in data["f0"])
    if len(f0) != 2 * g + 3:
        raise ValueError("f0 must have 2g + 3 coefficients")
    tup = GoldbachTuple(g=g, **{q: _parse_int(v) for q, v in data["tuple"].items()})
    plan = PrimePlan(g=g, prime_tuple=tup, **{k: _parse_int(v) for k, v in data["plan"].items()})
    n = plan.modulus
    for i, c in enumerate(f0):
        if not 0 <= c < n:
            raise ValueError(f"f0[{i}]: need 0 <= coefficient < N")
    rd = data["repair"]
    pre_stage = tuple(
        (_parse_int(e["prime"]), _parse_int(e["u"]), _parse_int(e["w"])) for e in rd["pre_stage"]
    )
    for i, (p, u, w) in enumerate(pre_stage):
        if not (p <= 2 * g - 1 and 0 <= u < p and 0 <= w < p):
            raise ValueError(f"repair.pre_stage[{i}]: need prime <= 2g - 1 and 0 <= u, w < prime")
    _check_primes("repair.pre_stage", tuple(p for p, _, _ in pre_stage), n, "N")
    nudges, z = _parse_int(rd["linear_nudges"]), _parse_int(rd["z"])
    f, n_tilde = repaired_poly(f0, n, g, pre_stage, nudges, z)
    repaired_primes = tuple(_parse_int(p) for p in rd["repaired_primes"])
    _check_primes("repair.repaired_primes", repaired_primes, n_tilde, "n_tilde")
    repair = RepairRecord(
        f=tuple(f),
        n_tilde=n_tilde,
        pre_stage=pre_stage,
        linear_nudges=nudges,
        z=z,
        repaired_primes=repaired_primes,
        screen=TripleRootScreen(
            found_primes=tuple(_parse_int(p) for p in rd["found_primes"]),
            residual_cofactor=_parse_int(rd["residual_cofactor"]),
            scan_bound=_parse_int(rd["scan_bound"]),
        ),
    )
    cert = Certificate(plan=plan, f0=f0, repair=repair)
    report = _report_from_json(data["report"], plan, repair.screen)
    expected = certificate_to_json(cert, report)
    if json.dumps(data, sort_keys=True) != json.dumps(expected, sort_keys=True):
        raise ValueError(_first_difference(data, expected))
    return cert, report


def read_certificate(path: str) -> tuple[Certificate, VerificationReport]:
    data = _read_object(path, "certificate")
    try:
        return certificate_from_json(data)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise _CliError(EXIT_USAGE, f"malformed certificate file {path}: {err}") from err


def write_certificate(path: str, cert: Certificate, report: VerificationReport) -> None:
    _write_json(path, certificate_to_json(cert, report))


def _resolve_genus(value: int) -> int:
    """The --genus value, once it is checked to lie in [1, MAX_GENUS]."""
    if not 1 <= value <= MAX_GENUS:
        raise _CliError(EXIT_USAGE, f"genus must be between 1 and {MAX_GENUS}, got {value}")
    return value


def _report_exit(report: VerificationReport) -> int:
    if any(fl.status == "fail" for fl in report.flags) or report.verdict.kind == "none":
        return EXIT_FAIL
    if report.verdict.conditional:
        return EXIT_CONDITIONAL
    return EXIT_PASS


def _print_report(report: VerificationReport) -> None:
    for fl in report.flags:
        print(f"{fl.name:<8} {fl.status:<12} {fl.detail}")
    if report.screen.residual_cofactor:
        bad = ", ".join(f"{p} (multiplicity {m})" for p, m in report.bad_primes) or "none"
        print(f"triple-root candidates to {report.screen.scan_bound}: {bad}")
    ev = report.mod_2
    print(
        "mod-2 ingredients: "
        f"full cycle {'yes' if ev.full_cycle else 'no'}, "
        f"near cycle {'yes' if ev.near_cycle else 'no'}, "
        f"transposition {'yes' if ev.transposition else 'no'}"
    )
    print(f"admissible (derived): {'yes' if report.admissible_derived else 'no'}")
    print(f"verdict: {report.verdict.kind} [{report.verdict.basis}]")
    print(report.verdict.text)


def _excluded_line(g: int) -> str | None:
    """The known excluded primes of an exceptional genus as one line, or None without a row."""
    row = EXCEPTIONAL_EXCLUDED.get(g)
    if row is None:
        return None
    return f"known excluded primes for genus {g}: {', '.join(str(p) for p in sorted(row))}"


def cmd_goldbach(args: argparse.Namespace) -> int:
    if args.max is not None:
        if args.max > MAX_GOLDBACH_BOUND:
            raise _CliError(
                EXIT_USAGE, f"--max must be at most {MAX_GOLDBACH_BOUND}, got {args.max}"
            )
        try:
            exceptions = verify_range(args.max)
        except ValueError as err:
            raise _CliError(EXIT_USAGE, str(err)) from err
        listed = ", ".join(str(n) for n in exceptions) or "none"
        print(f"exceptions up to {args.max}: {listed}")
        return EXIT_PASS
    g = _resolve_genus(args.genus)
    tuples = two_g_eps_tuples(g)
    n = 2 * g + 2
    if not tuples:
        print(f"genus {g} is exceptional: no qualifying prime tuple for {n}")
        if (line := _excluded_line(g)) is not None:
            print(line)
        return EXIT_PASS
    for tup in tuples:
        print(f"{n} = {tup.q1} + {tup.q2} = {tup.q4} + {tup.q5}, q3 = {tup.q3}")
    return EXIT_PASS


def cmd_construct(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise _CliError(EXIT_USAGE, f"--seed must be non-negative, got {args.seed}")
    seed = FIXTURE_SEED if args.fixture else args.seed
    g = _resolve_genus(args.genus)
    try:
        cert = build_certificate(g, seed=seed)
    except ExceptionalGenusError as err:
        print(f"gspmax: {err}", file=sys.stderr)
        if (line := _excluded_line(g)) is not None:
            print(line, file=sys.stderr)
        return EXIT_EXCEPTIONAL
    except ConstructionError as err:
        raise _CliError(EXIT_CONSTRUCTION, f"construction failed: {err}") from err
    except ValueError as err:
        raise _CliError(EXIT_USAGE, str(err)) from err
    report = check_hypotheses(list(cert.f), cert.plan, screen=cert.repair.screen)
    write_certificate(args.out, cert, report)
    if args.poly_out is not None:
        write_poly_file(args.poly_out, list(cert.f))
    print(f"certificate for genus {g} written to {args.out}")
    print(report.verdict.text)
    return _report_exit(report)


def cmd_verify(args: argparse.Namespace) -> int:
    cert, _ = read_certificate(args.cert)
    f = read_poly_file(args.poly)
    f0 = list(cert.f0)
    n = cert.plan.modulus
    congruent = len(f) == len(f0) and all((a - b) % n == 0 for a, b in zip(f, f0))
    print(f"congruent to the certified class mod N: {'yes' if congruent else 'no'}")
    if not congruent:
        print("verification failed: polynomial leaves the certified congruence class")
        return EXIT_FAIL
    try:
        report = check_hypotheses(f, cert.plan)
    except ValueError as err:
        print(f"verification failed: {err}")
        return EXIT_FAIL
    _print_report(report)
    return _report_exit(report)


def _cluster_summary(picture) -> str:
    proper = [c for c in picture.clusters[1:] if c.size >= 2]
    if not proper:
        return "no proper clusters of size 2 or more"
    counted = collections.Counter(
        (c.size, None if c.depth is None else str(c.depth)) for c in proper
    )
    parts = []
    for (size, depth), k in sorted(
        counted.items(), key=lambda item: (-item[0][0], item[0][1] or "")
    ):
        text = f"size {size}" + (f" at depth {depth}" if depth is not None else "")
        if k > 1:
            text = f"{k} x {text}"
        parts.append(text)
    return "; ".join(parts)


def _eigenvalue_lines(eig: EigenvalueMultiset) -> list[str]:
    by_symbol: dict[tuple[int, int], list[int]] = {}
    for s, q, j in eig.entries:
        by_symbol.setdefault((s, q), []).append(j)
    lines = []
    for (s, q), exps in sorted(by_symbol.items(), key=lambda item: (item[0][1], -item[0][0])):
        sign = "-" if s < 0 else ""
        counts = collections.Counter(exps)
        multiplicities = set(counts.values())
        if sorted(counts) == list(range(1, q)) and len(multiplicities) == 1:
            mult = multiplicities.pop()
            suffix = "" if mult == 1 else f", each {mult} times"
            lines.append(f"{sign}zeta_{q}^j for j = 1..{q - 1}{suffix}")
        else:
            lines.append(", ".join(f"{sign}zeta_{q}^{j}" for j in sorted(exps)))
    if eig.trivial_count:
        lines.append(f"eigenvalue 1 with multiplicity {eig.trivial_count}")
    return lines


def cmd_inertia(args: argparse.Namespace) -> int:
    f = read_poly_file(args.poly)
    p = args.prime
    if p == 2 or not is_prime(p):
        raise _CliError(EXIT_USAGE, "--prime must be an odd prime")
    deg = poly_deg(f)
    if deg < 4 or deg % 2:
        raise _CliError(EXIT_USAGE, "polynomial degree must be even and at least 4")
    g = (deg - 2) // 2
    if (args.t is None) != (args.qs is None):
        raise _CliError(EXIT_USAGE, "--t and --qs must be given together")
    profile = sorted(multiplicity_profile(f, p))
    print(f"genus {g} polynomial at p = {p}")
    print(f"multiplicity profile mod {p}: {profile}")
    if args.t is not None:
        candidates = [(args.t, tuple(args.qs))]
    else:
        blocks = tuple(m for m in profile if m >= 2)
        candidates = [(t, blocks) for t in (1, 2)] if blocks else []
    witness = None
    for t, qs in candidates:
        try:
            witness = recognize_type(f, p, t, list(qs))
        except ValueError as err:
            raise _CliError(EXIT_USAGE, str(err)) from err
        if witness is not None:
            break
    if witness is not None:
        label = ",".join(str(q) for q in qs)
        print(f"type {t}-{{{label}}} recognized at {p}")
        print(f"block shifts: {', '.join(str(s) for s in witness.shifts)}")
        if p in qs:
            print(
                "cluster picture, etale H^1 and tame eigenvalues not derived: "
                f"block size {p} equals p, so inertia is wild"
            )
        elif 2 in qs:
            print(
                "cluster picture, etale H^1 and tame eigenvalues not derived: "
                "block size 2 is a twin, outside the odd prime block sizes of the type formulas"
            )
        else:
            try:
                picture = clusters_from_type(t, list(qs), deg)
            except ValueError as err:
                raise _CliError(EXIT_USAGE, str(err)) from err
            print(f"cluster picture: {_cluster_summary(picture)}")
            decomposition = etale_decomposition(picture, t, g)
            print(
                f"etale H^1: abelian dimension {decomposition.dim_h1_ab}, "
                f"toric dimension {decomposition.dim_h1_t}"
            )
            eig = tame_eigenvalues(t, list(qs), g)
            print(f"tame eigenvalues: {'; '.join(_eigenvalue_lines(eig))}")
            print(f"tame inertia order divides {eig.inertia_order_divisor}")
    else:
        print(f"no t-Eisenstein block pattern recognized at {p}")
    try:
        status = semistable_from_reduction(f, p, g)
    except ValueError as err:
        raise _CliError(EXIT_USAGE, str(err)) from err
    if status.status == "semistable":
        extra = " (totally toric)" if status.toric_dim == g else ""
        print(f"reduction: semistable at {p}, toric dimension {status.toric_dim}{extra}")
        doubles = profile.count(2)
        if witness is None and doubles:
            picture = clusters_from_double_roots(doubles, deg)
            print(f"cluster picture: {_cluster_summary(picture)}")
    else:
        print(f"reduction: semistability not certified by the reduction criterion at {p}")
    return EXIT_PASS


def _qs_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspmax",
        description="Construct and verify polynomials with forced large monodromy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gold = sub.add_parser(
        "goldbach", help="prime pair splittings of 2g + 2, or exceptions up to a bound"
    )
    group = p_gold.add_mutually_exclusive_group(required=True)
    group.add_argument("--max", type=int, help="list even numbers <= MAX with no splitting")
    group.add_argument("--genus", type=int, help="list prime tuples for one genus")
    p_gold.set_defaults(func=cmd_goldbach)

    p_con = sub.add_parser("construct", help="build a certificate for one genus")
    p_con.add_argument("--genus", type=int, required=True)
    p_con.add_argument(
        "--fixture", action="store_true", help="use the reference witness choices"
    )
    p_con.add_argument("--seed", type=int, default=0, help="witness search seed")
    p_con.add_argument("--out", required=True, help="certificate JSON path")
    p_con.add_argument(
        "--poly-out", default=None, help="also write the final polynomial here"
    )
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="check a polynomial against a certificate")
    p_ver.add_argument("--poly", required=True, help="polynomial JSON path")
    p_ver.add_argument("--cert", required=True, help="certificate JSON path")
    p_ver.set_defaults(func=cmd_verify)

    p_in = sub.add_parser("inertia", help="local reduction data at one odd prime")
    p_in.add_argument("--poly", required=True, help="polynomial JSON path")
    p_in.add_argument("--prime", type=int, required=True)
    p_in.add_argument("--t", type=int, default=None, help="block depth parameter")
    p_in.add_argument("--qs", type=_qs_arg, default=None, help="comma-separated block sizes")
    p_in.set_defaults(func=cmd_inertia)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"gspmax: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
