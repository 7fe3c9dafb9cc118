"""Tests of the benchmark's own machinery; run with python3 -m pytest bench/tests."""

import json

import gspmax
import gspmax.cli
import pytest

from bench import gate, tracing, workloads
from bench.run import ROOT, one_pass_seconds


def test_inputs_are_deterministic_per_seed():
    for workload in ("ladder", "small-sweep"):
        for index in (0, 1):
            first = workloads.construct_inputs(workload, 7, index)
            assert first == workloads.construct_inputs(workload, 7, index)
            assert first != workloads.construct_inputs(workload, 8, index)
    assert {c.seed for c in workloads.construct_inputs("ladder", 7, 0)} == {7}
    sweep = workloads.construct_inputs("small-sweep", 7, 0)
    assert all(0 <= c.seed < workloads.SEED_RANGE for c in sweep)
    assert [c.genus for c in sweep] == list(workloads.SWEEP_GENERA)


def _synthetic_certs():
    return {g: ([3] * (2 * g + 2) + [1], 1000 + g) for g in workloads.CLASS_MEMBERS}


def test_class_members_are_deterministic_monic_and_congruent():
    certs = _synthetic_certs()
    members = workloads.class_members(5, 0, certs)
    assert members == workloads.class_members(5, 0, certs)
    assert members != workloads.class_members(6, 0, certs)
    assert len(members) == sum(workloads.CLASS_MEMBERS.values())
    for g, member in members:
        f, n = certs[g]
        assert len(member) == len(f) and member[-1] == 1
        assert all((a - b) % n == 0 for a, b in zip(member, f))
        assert member != f


def test_one_pass_takes_the_median_per_genus():
    def call(command, genus, seconds):
        c = workloads.Call(command, genus, "x", [], frozenset({3}), "", "")
        c.seconds = seconds
        return c

    calls = [
        call("construct", 6, 1.0),
        call("verify", 6, 2.0),
        call("verify", 6, 20.0),
        call("verify", 6, 2.2),
        call("verify", 8, 4.0),
    ]
    assert one_pass_seconds(calls, "verify") == pytest.approx(6.2)
    assert one_pass_seconds(calls, "construct") == 1.0


def _span(name, start, end, parent=None, **tags):
    return tracing.Span(name, start, end, parent, "x", dict(tags))


def test_self_time_subtracts_child_coverage():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 6.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("leaf", 7.0, 7.5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.0, 0.5])


def test_layer_values_attribute_flags_and_screen_callers():
    flags = {7: "2T", 19: "p2"}
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("verify.check_hypotheses", 0.0, 9.0, 0, flag_of_prime=flags),
        _span("arith.resultant", 0.0, 1.0, 1, bits=100),
        _span("localtypes.recognize_type", 1.0, 1.5, 1, p=7),
        _span("localtypes.recognize_type", 1.5, 2.5, 1, p=19),
        _span("construct.screen_triple_roots", 3.0, 8.0, 1, found_primes=4, residual_bits=64),
        _span("arith.pollard_factor", 4.0, 7.0, 5),
    ]
    values = tracing.layer_values(spans)
    assert values["verify.squarefree.s"] == 1.0
    assert values["verify.flag.2T.s"] == 0.5
    assert values["verify.flag.p2.s"] == 1.0
    assert values["verify.flag.ss.s"] == 5.0
    assert values["construct.screen_triple_roots.check_hypotheses.s"] == 5.0
    assert values["construct.screen.found_primes"] == 4
    assert values["construct.screen.residual_bits"] == 64
    assert values["arith.resultant.bits"] == 100
    assert values["construct.screen_triple_roots.self_s"] == 2.0
    assert values["arith.pollard_factor.self_s"] == 3.0
    assert values["localtypes.recognize_type.calls"] == 2


def _bindings():
    modules = [getattr(gspmax, m) for m, _ in tracing.FUNCTIONS]
    return {(m.__name__, n): v for m in modules for n, v in vars(m).items() if callable(v)}


def test_traced_run_records_spans_and_restores_every_name():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, gspmax):
        assert gspmax.cli.two_g_eps_tuples is not before[("gspmax.cli", "two_g_eps_tuples")]
        assert gspmax.construct.resultant is gspmax.verify.resultant
        with tracer.span("cli.main", "g6"):
            assert gspmax.cli.main(["goldbach", "--genus", "6"]) == 0
    assert _bindings() == before
    assert [s.name for s in tracer.spans] == ["cli.main", "goldbach.two_g_eps_tuples"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].input_id == "g6"


def test_names_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), gspmax):
            raise RuntimeError("stop")
    assert _bindings() == before


def test_per_layer_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == tracing.per_layer_names()


def test_oracle_agrees_on_small_cases():
    oracle = gate.Oracle()
    assert oracle.irreducible([1, 0, 1], 3)
    assert not oracle.irreducible([1, 0, 1], 5)
    # (x + 1)(x^2 + 1) mod 3
    assert oracle.linear_times_irreducible([1, 1, 1, 1], 3)
    # (x - 1)^3 (x - 2) mod 5
    assert oracle.has_triple_root([2, 3, 4, 0, 1], 5)
    assert not oracle.has_triple_root([1, 0, 1], 3)
