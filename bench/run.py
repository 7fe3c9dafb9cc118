"""Benchmark of gspmax's construct and verify command paths.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 a traced pass gives the per-layer ones. Workloads,
metrics and their reasons are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import gate, tracing, workloads  # noqa: E402

# The program reads this at run time; the benchmark measures its defaults.
SCAN_BOUND_ENV = "GSPMAX_SCAN_BOUND"

# Fresh interpreters timed for setup_s; one more runs first to warm the
# bytecode cache, which a user's installation also keeps.
SETUP_REPEATS = 7

_READY = (
    "import time, gspmax.cli; gspmax.cli.build_parser(); "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def measure_setup(repeats: int) -> float:
    """Median seconds from starting a fresh interpreter to gspmax.cli ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(SCAN_BOUND_ENV, None)
    samples = []
    for i in range(repeats + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _READY],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            samples.append(float(done.stdout) - start)
    return statistics.median(samples)


def one_pass_seconds(calls, command: str) -> float:
    """Seconds of one pass of a command: per genus, the median over the run's calls.

    The median keeps a rare slow call, such as a class member whose rho
    cofactor is prime, from setting the figure on its own.
    """
    by_genus: dict[int, list[float]] = {}
    for call in calls:
        if call.command == command:
            by_genus.setdefault(call.genus, []).append(call.seconds)
    return sum(statistics.median(seconds) for seconds in by_genus.values())


def _report(session) -> None:
    for call in session.calls:
        status = "ok" if not (call.error or call.notes) else "FAILED"
        print(
            f"{call.command} {call.input_id}: exit {call.code}, "
            f"{call.seconds:.3f} s, {status}",
            file=sys.stderr,
        )
        for text in [call.error] + call.notes if call.error else call.notes:
            print(f"  {text.strip()}", file=sys.stderr)


def _outcome(session, metrics: dict) -> dict:
    failed = sum(1 for call in session.calls if call.error or call.notes)
    return {
        "correct": failed == 0 and bool(session.calls),
        "attempted": max(1, len(session.calls)),
        "failed": failed,
        "metrics": metrics,
    }


def _certificates(session, workload: str, seed: int):
    """verify-class's certificates, genus -> construct Call, or None if one failed."""
    if workload != "verify-class":
        return None
    made = {c.genus: session.construct(c) for c in workloads.construct_inputs(workload, seed, 0)}
    return None if any(call.error for call in made.values()) else made


def timed_run(cli, workload: str, seed: int, seconds: int, workdir: str) -> dict:
    setup_s = measure_setup(SETUP_REPEATS)
    session = workloads.Session(cli, workdir)
    certs = _certificates(session, workload, seed)
    pass_seconds = []
    start = time.perf_counter()
    while workload != "verify-class" or certs:
        began = time.perf_counter()
        workloads.run_pass(session, workload, seed, len(pass_seconds), certs)
        pass_seconds.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_seconds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate.check(session.calls)
    _report(session)
    return _outcome(
        session,
        {
            "setup_s": {"value": setup_s, "unit": "s"},
            "construct_s": {"value": one_pass_seconds(session.calls, "construct"), "unit": "s"},
            "verify_s": {"value": one_pass_seconds(session.calls, "verify"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    )


def traced_run(package, workload: str, seed: int, workdir: str) -> dict:
    """One untraced pass, then the same pass traced; per-layer metrics from the latter."""
    session = workloads.Session(package.cli, workdir)
    certs = _certificates(session, workload, seed)
    untraced = traced = []
    if workload != "verify-class" or certs:
        untraced = workloads.run_pass(session, workload, seed, 0, certs)
        session.tracer = tracing.Tracer()
        with tracing.installed(session.tracer, package):
            traced = workloads.run_pass(session, workload, seed, 0, certs)
    gate.check(session.calls)
    _report(session)
    values = tracing.layer_values(session.tracer.spans) if traced else {}
    untraced_s = sum(c.seconds for c in untraced)
    overhead_s = sum(c.seconds for c in traced) - untraced_s
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_s / untraced_s if untraced_s else 0.0
    values["conditional_share"] = (
        sum(c.code == 3 for c in traced) / len(traced) if traced else 0.0
    )
    if traced:
        session.tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in tracing.per_layer_names()
    }
    return _outcome(session, metrics)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    def natural(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a non-negative integer")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=natural)
    parser.add_argument("--seconds", required=True, type=natural)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gspmax" / "cli.py").is_file():
        print(f"bench: no gspmax sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(SCAN_BOUND_ENV, None)
    sys.path.insert(0, str(SRC))
    import gspmax.cli

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            result = traced_run(sys.modules["gspmax"], args.workload, args.seed, workdir)
        else:
            result = timed_run(gspmax.cli, args.workload, args.seed, args.seconds, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
