"""Time-to-answer benchmark for steinberg.

    python3 bench/run.py --workload socle-lp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client, one thread, closed loop: each op starts when the
previous one has returned.  An op is ``steinberg.cli.main(argv)`` in process
with stdout captured, or one public library call, on JSON files generated
from ``--seed`` during set-up.  Every op has a fixed deadline enforced with
``signal.setitimer``; an op past it counts as failed.  Every output is
checked against closed forms and, for inputs that do not depend on the seed,
against stdout digests recorded at the seed commit.

Passes over the op list repeat until ``--seconds`` would be exceeded (at
least one).  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
of the traced passes are reported.  The last stdout line is the result
object; the line before it is the run record.  ``--record-digests`` runs one
pass and stores the digests of the seed-independent ops.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import expected as X
import workloads as W
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

KINDS = ("validate", "socle", "minimal", "is_minimal", "oracle", "graph_socle", "graph_materialize")
SETUP_REPEATS = 5
# Ops that produced no output run once per run; ops slower than this run in
# the first two passes; the rest repeat until --seconds is used up.  Each op
# reports the median of its samples.
REPEAT_LIMIT_S = 2.0
# Ops still waiting when this much time has passed are failed unrun, so a
# run ends within 180 s whatever the program does.
RUN_BUDGET_S = 140.0

END_TO_END = {
    "wall_s": "s",
    "max_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SPAN_METRICS = {
    "cli": "cli.self_s",
    **{
        name: name + "_s"
        for name in (
            "groupoid.validate", "groupoid.orbit_classes", "groupoid.isotropy",
            "algebra.action_tables", "algebra.left_action", "algebra.right_action", "algebra.convolve",
            "linalg.insert", "linalg.contains",
            "socle.check_lp", "socle.homogeneous_component", "socle.two_sided_ideal", "socle.assembly",
            "socle.left_ideal", "socle.minimal_ideal_generator", "socle.is_minimal", "socle.leftideal_contains",
            "oracle.minimal_ideals", "oracle.socle", "oracle.semiprime",
            "graphs.from_json_obj", "graphs.line_points", "graphs.orbit_size", "graphs.lpa_socle",
            "graphs.boundary_paths", "graphs.materialize",
        )
    },
}
COUNTERS = (
    "cli.stdout_bytes",
    "groupoid.validate_calls", "groupoid.elements",
    "algebra.left_action_calls", "algebra.right_action_calls", "algebra.convolve_calls",
    "linalg.insert_calls", "linalg.insert_grew", "linalg.contains_calls",
    "socle.homogeneous_component_calls", "socle.two_sided_ideal_calls", "socle.left_ideal_calls",
    "socle.is_minimal_vectors", "socle.leftideal_contains_calls",
    "oracle.lines_enumerated", "oracle.semiprime_vectors", "oracle.minimal_ideals_found", "oracle.refused",
    "graphs.orbit_size_calls", "graphs.paths_counted", "graphs.vertices", "graphs.edges",
)
PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **{name: "count" for name in COUNTERS},
    "linalg.insert_useful_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac",
    **{f"{kind}_s": "s" for kind in KINDS},
    "op_p50_s": "s",
    "op_p90_s": "s",
    "failed_frac": "frac",
    "known_failures": "count",
    "ops": "count",
}


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    op: W.Op
    seconds: float
    code: int | None
    out: str
    error: str | None  # why the op did not produce an output
    deadline_missed: bool = False
    failure: str | None = None  # filled in by judge()

    @property
    def known(self) -> bool:
        return self.deadline_missed and self.op.known_failure is not None

    @property
    def failed(self) -> bool:
        return self.failure is not None and not self.known


# -- set-up -------------------------------------------------------------------------


def prepare_environment():
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("STEINBERG_MAX_ENUM", None)
    signal.signal(signal.SIGALRM, _alarm)


def load_steinberg(root: Path = ROOT) -> SimpleNamespace:
    """A fresh import of the package from root/src (never an installed copy)."""
    src = (root / "src").resolve()
    if not (src / "steinberg" / "__init__.py").is_file():
        raise FileNotFoundError(f"no steinberg package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "steinberg" or m.startswith("steinberg.")]:
        del sys.modules[name]
    modules = {
        name: importlib.import_module(f"steinberg.{name}")
        for name in ("cli", "builders", "groupoid", "algebra", "fields", "linalg",
                     "limits", "socle", "oracle", "graphs")
    }
    if not Path(modules["cli"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"steinberg was imported from {modules['cli'].__file__}, not {src}")
    return SimpleNamespace(**modules)


def set_up(workload: str, seed: int, directory: Path):
    started = perf_counter()
    sb = load_steinberg()
    ops = W.build(workload, seed, sb, directory)
    return perf_counter() - started, sb, ops


# -- running and judging ops --------------------------------------------------------


def run_op(op: W.Op) -> Outcome:
    saved = sys.stdout, sys.stderr
    code, out, error, missed = None, "", None, False
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    started = perf_counter()
    try:
        code, out = op.run()
    except DeadlineExceeded:
        error, missed = f"missed its {op.deadline_s:g} s deadline", True
    except Exception as exc:  # the op's failure is recorded; the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - started
        sys.stdout, sys.stderr = saved
    return Outcome(op, seconds, code, out, error, missed)


def skipped(op: W.Op) -> Outcome:
    return Outcome(op, 0.0, None, "", "not run: the run's time budget was spent", deadline_missed=True)


def run_pass(ops: list[W.Op], hard_stop: float) -> list[Outcome]:
    gc.collect()  # start every pass from the same heap state, outside any op
    return [run_op(op) if perf_counter() <= hard_stop else skipped(op) for op in ops]


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def digested(op: W.Op) -> bool:
    return not op.seeded and op.known_failure is None


def judge(outcome: Outcome, digests: dict[str, str] | None) -> None:
    """Set outcome.failure when the op failed; digests=None skips digests."""
    op = outcome.op
    if outcome.error is not None:
        outcome.failure = outcome.error
        return
    try:
        op.check(outcome.code, outcome.out)
    except X.Mismatch as exc:
        outcome.failure = f"wrong answer: {exc}"
        return
    except (KeyError, TypeError, ValueError) as exc:
        outcome.failure = f"malformed output: {exc!r}"
        return
    if digests is not None and digested(op):
        want = digests.get(op.name)
        if want is None:
            outcome.failure = "no stdout digest recorded for this op"
        elif digest(outcome.out) != want:
            outcome.failure = "stdout differs from the digest recorded at the seed commit"


def load_digests(workload: str) -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


# -- metrics ------------------------------------------------------------------------


def op_medians(passes: list[list[Outcome]]) -> dict[str, float]:
    """Each op's median latency over the passes that ran it."""
    samples: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            samples.setdefault(o.op.name, []).append(o.seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def end_to_end(setups: list[float], passes: list[list[Outcome]]) -> dict[str, float]:
    times = op_medians(passes).values()
    return {
        "wall_s": sum(times),
        "max_op_s": max(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(ops: list[W.Op], sb, hard_stop: float):
    """One pass with every layer wrapped.

    Returns the outcomes and, per op, its self time in each layer and its
    counters.  An op that produced no output (a missed deadline) reports no
    counters: how much work it did depends on where the deadline cut it.
    """
    tracer = Tracer()
    tracer.install(sb)
    outcomes, per_op = [], {}
    gc.collect()
    try:
        for op in ops:
            tracer.reset()
            outcome = run_op(op) if perf_counter() <= hard_stop else skipped(op)
            self_times = tracer.self_times()
            layer = {metric: self_times.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
            layer["trace.unattributed_s"] = outcome.seconds - sum(self_times.values())
            counts = {}
            if outcome.error is None:
                counts = {name: tracer.counters[name] for name in COUNTERS}
                counts["cli.stdout_bytes"] = len(outcome.out)
            per_op[op.name] = (layer, counts)
            outcomes.append(outcome)
    finally:
        tracer.uninstall()
    return outcomes, per_op


# -- the run --------------------------------------------------------------------------


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    # numpy loads here, before the first set-up: setup_s times the import of
    # steinberg, not of its one dependency.
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_average_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    hard_stop = perf_counter() + RUN_BUDGET_S
    machine = machine_record()
    elapsed, sb, ops = set_up(workload, seed, work / "setup0")
    setups = [elapsed]
    digests = load_digests(workload)

    untraced: list[list[Outcome]] = []
    traced: list[tuple[list[Outcome], dict]] = []
    todo = ops
    started = perf_counter()
    while todo:
        untraced.append(run_pass(todo, hard_stop))
        if trace:
            traced.append(traced_pass(todo, sb, hard_stop))
        todo = [
            o.op for o in untraced[0]
            if o.error is None and (len(untraced) == 1 or o.seconds < REPEAT_LIMIT_S)
        ]
        if not trace and len(setups) < SETUP_REPEATS:
            setups.append(set_up(workload, seed, work / f"setup{len(setups)}")[0])
        last = {o.op.name: o.seconds for o in untraced[-1] + (traced[-1][0] if trace else [])}
        next_round = sum(last.get(op.name, 0.0) for op in todo) * (2 if trace else 1)
        if perf_counter() - started + next_round > seconds or perf_counter() > hard_stop:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload, seed, work / f"setup{len(setups)}")[0])

    all_outcomes = [o for outcomes in untraced for o in outcomes]
    all_outcomes += [o for outcomes, _ in traced for o in outcomes]
    correct, problems = tally(all_outcomes, digests)
    if trace:
        mismatches = traced_mismatches(untraced[0], traced)
        correct = correct and not mismatches
        problems += mismatches
        metrics = per_layer(untraced, traced, all_outcomes)
    else:
        metrics = end_to_end(setups, untraced)

    known = sorted({(o.op.name, o.op.known_failure, o.error) for o in all_outcomes if o.op.known_failure})
    samples = [sum(1 for p in untraced for o in p if o.op.name == op.name) for op in ops]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "ops_per_pass": len(ops),
        "ops_by_kind": {k: sum(1 for op in ops if op.kind == k) for k in KINDS if any(op.kind == k for op in ops)},
        "passes": len(untraced),
        "samples_per_op": [min(samples), max(samples)],
        "setups": len(setups),
        "deadline_s": W.DEADLINE_S,
        "heavy_deadline_s": W.HEAVY_DEADLINE_S,
        "known_seed_failures": [
            {"op": name, "note": note, "outcome": error or "answered"} for name, note, error in known
        ],
        "problems": problems[:20],
        **machine,
    }
    result = {
        "correct": correct,
        "attempted": len(all_outcomes),
        "failed": sum(1 for o in all_outcomes if o.failed),
        "metrics": metrics,
    }
    return record, result


def tally(outcomes: list[Outcome], digests: dict[str, str]) -> tuple[bool, list[str]]:
    """Judge every outcome.  A wrong answer makes the run incorrect; a missed
    deadline fails the op but says nothing about correctness."""
    correct = True
    for o in outcomes:
        judge(o, digests)
        correct = correct and (o.failure is None or o.deadline_missed)
    return correct, sorted({f"{o.op.name}: {o.failure}" for o in outcomes if o.failed})


def traced_mismatches(untraced: list[Outcome], traced) -> list[str]:
    """Tracing must not change stdout, and each op's counters must repeat."""
    reference = {o.op.name: (o.code, o.out) for o in untraced if o.error is None}
    first_counts = traced[0][1]
    problems = []
    for outcomes, per_op in traced:
        problems += [
            f"{o.op.name}: traced stdout differs from untraced"
            for o in outcomes
            if o.error is None and reference.get(o.op.name, (o.code, o.out)) != (o.code, o.out)
        ]
        problems += [
            f"{name}: integer counters differ between traced passes"
            for name, (_, counts) in per_op.items()
            if counts and first_counts[name][1] and counts != first_counts[name][1]
        ]
    return problems


def per_layer(untraced: list[list[Outcome]], traced, all_outcomes: list[Outcome]) -> dict[str, float]:
    """Layer self times are sums over ops of each op's median over the traced
    passes; counters are totals over the first (full) traced pass."""
    names = list(traced[0][1])
    layer = {
        metric: sum(
            statistics.median(per_op[name][0][metric] for _, per_op in traced if name in per_op)
            for name in names
        )
        for metric in traced[0][1][names[0]][0]
    }
    counts = {name: sum(c.get(name, 0) for _, c in traced[0][1].values()) for name in COUNTERS}
    layer.update(counts)
    layer["linalg.insert_useful_ratio"] = (
        counts["linalg.insert_grew"] / counts["linalg.insert_calls"] if counts["linalg.insert_calls"] else 0.0
    )
    plain = op_medians(untraced)
    layer["trace.overhead_frac"] = sum(op_medians([o for o, _ in traced]).values()) / sum(plain.values()) - 1
    layer["op_p50_s"] = statistics.median(plain.values())
    layer["op_p90_s"] = statistics.quantiles(plain.values(), n=10, method="inclusive")[8]
    first = untraced[0]
    for kind in KINDS:
        layer[f"{kind}_s"] = sum(plain[o.op.name] for o in first if o.op.kind == kind)
    layer["failed_frac"] = len({o.op.name for o in all_outcomes if o.failure}) / len(first)
    layer["known_failures"] = sum(1 for o in first if o.known)
    layer["ops"] = len(first)
    return layer


def record_digests(workload: str, seed: int, work: Path) -> int:
    _, _, ops = set_up(workload, seed, work / "record")
    outcomes = run_pass(ops, perf_counter() + RUN_BUDGET_S)
    bad = []
    for o in outcomes:
        judge(o, None)
        if o.failed:
            bad.append(f"{o.op.name}: {o.failure}")
    if bad:
        print("not recording digests; failing ops:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = {o.op.name: digest(o.out) for o in outcomes if digested(o.op)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table[workload])} digests for {workload}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "steinberg" / "__init__.py").is_file():
        print(f"error: run from a steinberg source checkout; {ROOT / 'src'} has no package",
              file=sys.stderr)
        return 2
    prepare_environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record_digests:
            return record_digests(args.workload, args.seed, work)
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(
        {**result, "metrics": {
            name: {"value": value, "unit": (PER_LAYER if args.trace else END_TO_END)[name]}
            for name, value in result["metrics"].items()
        }}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
