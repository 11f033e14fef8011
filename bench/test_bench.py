"""Fast self-test of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q

Runs one tiny op per workload untraced and traced, checks the metric names
and units against BENCHMARK.json, and checks the failed-op accounting with a
forced deadline miss and a forced wrong answer.
"""

import dataclasses
import json
from time import perf_counter

import pytest

import run as R
import workloads as W

SPEC = json.loads((R.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "socle-lp": "socle:pair4:f2",
    "ideals": "minimal:t2Z2:u0:f2",
    "oracle": "oracle:class03:f2",
    "graph": "graph-socle:diamond10",
}
FAR = 1e12  # a hard stop that never arrives


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def sb():
    R.prepare_environment()
    return R.load_steinberg()


@pytest.fixture(scope="module")
def workloads(sb, tmp_path_factory):
    return {w: W.build(w, 7, sb, tmp_path_factory.mktemp(w)) for w in W.WORKLOADS}


def tiny(workloads, workload: str) -> W.Op:
    return next(op for op in workloads[workload] if op.name == TINY[workload])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert units("end_to_end") == R.END_TO_END
    assert units("per_layer") == R.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_op_lists(workloads, workload):
    ops = workloads[workload]
    assert len(ops) >= 100  # p90 has ten ops beyond it
    assert len({op.name for op in ops}) == len(ops)
    assert {op.kind for op in ops} <= set(R.KINDS)
    digests = R.load_digests(workload)
    assert {op.name for op in ops if R.digested(op)} == set(digests)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_op_end_to_end(workloads, workload):
    op = tiny(workloads, workload)
    twin = dataclasses.replace(op, name=op.name + "#2")
    digests = R.load_digests(workload)
    outcomes = R.run_pass([op, twin], FAR)
    correct, problems = R.tally(outcomes, digests | {twin.name: digests[op.name]})
    assert correct and not problems
    metrics = R.end_to_end([0.1], [outcomes])
    assert metrics.keys() == units("end_to_end").keys()
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_op_traced(sb, workloads, workload):
    op = tiny(workloads, workload)
    ops = [op, dataclasses.replace(op, name=op.name + "#2")]
    untraced = R.run_pass(ops, FAR)
    traced = [R.traced_pass(ops, sb, FAR) for _ in range(2)]
    assert not R.traced_mismatches(untraced, traced)
    metrics = R.per_layer([untraced], traced, untraced + traced[0][0])
    assert metrics.keys() == units("per_layer").keys()
    assert metrics["cli.self_s"] > 0 and metrics["cli.stdout_bytes"] == 2 * len(untraced[0].out)
    assert metrics["ops"] == 2
    assert metrics["failed_frac"] == 0
    # the wrappers are gone again: the module attribute is the original
    assert not hasattr(sb.cli.main, "__wrapped__")


def test_layer_counters(sb, workloads):
    op = tiny(workloads, "socle-lp")
    _, per_op = R.traced_pass([op], sb, FAR)
    counts = per_op[op.name][1]
    # pair(4): one orbit of 4 units, the socle is all 16 basis vectors
    assert counts["socle.homogeneous_component_calls"] == 1
    assert counts["socle.left_ideal_calls"] == 4
    assert counts["socle.two_sided_ideal_calls"] == 1
    assert 0 < counts["linalg.insert_grew"] < counts["linalg.insert_calls"]
    assert counts["groupoid.elements"] == 16


def test_forced_deadline_miss_counts_as_failed(workloads):
    cap = next(op for op in workloads["socle-lp"] if op.name == "socle:pair22:q")
    assert cap.known_failure is not None
    slow = dataclasses.replace(cap, known_failure=None, deadline_s=0.05)
    started = perf_counter()
    outcome = R.run_op(slow)
    assert outcome.deadline_missed and perf_counter() - started < 1.0
    ok = R.run_op(tiny(workloads, "socle-lp"))
    correct, problems = R.tally([outcome, ok], R.load_digests("socle-lp"))
    assert correct  # a miss is a failed op, not a wrong answer
    assert [o.failed for o in (outcome, ok)] == [True, False]
    assert problems == [f"{slow.name}: missed its 0.05 s deadline"]


def test_known_failure_is_reported_but_not_failed(workloads):
    cap = next(op for op in workloads["socle-lp"] if op.name == "socle:pair22:q")
    outcome = R.run_op(dataclasses.replace(cap, deadline_s=0.05))
    correct, problems = R.tally([outcome], {})
    assert correct and not problems
    assert outcome.known and not outcome.failed and outcome.failure


def test_wrong_answer_fails_the_run(workloads):
    op = tiny(workloads, "graph")
    wrong = dataclasses.replace(op, run=lambda: (0, '{"line_points": []}'))
    outcome = R.run_op(wrong)
    correct, problems = R.tally([outcome], R.load_digests("graph"))
    assert not correct and outcome.failed and len(problems) == 1
