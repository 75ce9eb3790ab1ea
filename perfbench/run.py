"""RecSSD simulator benchmark: wall-clock cost and simulated latency.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_ndp --seed 7 --trace 0
    python3 perfbench/run.py --workload fleet_ndp --seed 7 --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
adds a separate traced run (a ``repro.obs`` tracer plus a sampling
profile of the run phase) and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero if any
correctness check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no {SRC / 'repro'}; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.obs import Tracer  # noqa: E402
from repro.serving.request import RequestState  # noqa: E402

from layers import (  # noqa: E402
    OUTSIDE,
    SELF_TIME_MODULES,
    ModuleSampler,
    layer_counts,
    p99_attribution,
    snapshot,
    timed_preload,
)
from workloads import WORKLOADS, Inputs, Rig, Workload  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "goodput_frac": "ratio",
    "completed_frac": "ratio",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.self_s": "s",
    "flash.page_reads": "count",
    "flash.page_programs": "count",
    "flash.erases": "count",
    "flash.self_s": "s",
    "ftl.preload_s": "s",
    "ftl.pages_per_bag": "ratio",
    "ftl.pagecache.hit_rate": "ratio",
    "ftl.read.excl_ms": "ms",
    "ftl.self_s": "s",
    "ftl.gc.pages_moved": "count",
    "ftl.gc.blocks_reclaimed": "count",
    "ftl.gc.moves_aborted": "count",
    "ftl.write_amp": "ratio",
    "ftl.write_stalls": "count",
    "ftl.write.excl_ms": "ms",
    "gc.migrate.excl_ms": "ms",
    "nvme.cmds": "count",
    "nvme.cmd.excl_ms": "ms",
    "nvme.self_s": "s",
    "driver.cmds": "count",
    "driver.self_s": "s",
    "core.ndp_requests": "count",
    "core.ndp_queued_frac": "ratio",
    "core.embcache.hit_rate": "ratio",
    "core.self_s": "s",
    "embedding.sls_ops": "count",
    "embedding.cache_hit_rate": "ratio",
    "sls_op.excl_ms": "ms",
    "embedding.self_s": "s",
    "serving.queue_wait_ms": "ms",
    "serving.batch_requests": "count",
    "serving.dense_wait_ms": "ms",
    "serving.sls_wait_ms": "ms",
    "queue.excl_ms": "ms",
    "batch.excl_ms": "ms",
    "dense.excl_ms": "ms",
    "serving.self_s": "s",
    "serving.updates.pages_written": "count",
    "serving.updates.write_ms": "ms",
    "update.write.excl_ms": "ms",
    "cluster.cache_hit_rate": "ratio",
    "cluster.routes_spread": "count",
    "cluster.host_imbalance": "ratio",
    "cluster.self_s": "s",
    "workload.self_s": "s",
    "models.self_s": "s",
    "obs.tracing_overhead_frac": "ratio",
}

# Each untraced run sets the system up at least MIN_SETUPS times, and
# more while the extra set-ups stay within SETUP_BUDGET_S, then reports
# the median, so one slow set-up does not move setup_s.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
MAX_SETUPS = 50
# The self-test's sizes: the same workloads, a few dozen requests each.
TINY_REQUESTS = {"rm3_cots_ssd": 24, "fleet_ndp": 60, "aged_update": 24}
# Tolerance of the SLS value check (the serving tier-1 tests' values).
RTOL, ATOL = 1e-4, 1e-5
# The sampler charges every interval between two looks at the stack, so
# its total covers the traced run phase except the last interval.
ACCOUNTED_MIN, ACCOUNTED_MAX = 0.95, 1.0
INJECTIONS = ("wrong_value", "raise")


class InjectedFault(RuntimeError):
    """Raised inside the run phase by ``--inject raise``."""


@dataclass
class Rep:
    """One set-up plus run phase on a fresh system."""

    rig: Rig
    setup_s: float
    run_s: float
    counts: Dict[str, float]
    run_events: int            # simulator events of the whole run phase
    preload_s: float = 0.0


def run_rep(
    workload: Workload,
    inputs: Inputs,
    inject: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    sampler: Optional[ModuleSampler] = None,
) -> Rep:
    with timed_preload() as preload:
        t0 = time.perf_counter()
        rig = workload.setup()
        setup_s = time.perf_counter() - t0
    events = rig.sim.event_count
    t0 = time.perf_counter()
    with sampler if sampler is not None else contextlib.nullcontext():
        workload.warm(rig, inputs)
        before = snapshot(rig)
        if tracer is not None:
            tracer.install(rig.sim)
        if inject == "raise":
            def fault() -> None:
                raise InjectedFault("injected exception in the run phase")

            rig.sim.schedule(float(inputs.arrivals[len(inputs.arrivals) // 2]), fault)
        workload.drive(rig, inputs)
    run_s = time.perf_counter() - t0
    events = rig.sim.event_count - events
    if tracer is not None:
        tracer.uninstall()
    counts = layer_counts(rig, before, snapshot(rig))
    if inject == "wrong_value":
        done = next(r for r in rig.requests if r.state is RequestState.COMPLETE)
        values = next(iter(done.values.values()))
        values.flat[0] += 1.0
    return Rep(rig, setup_s, run_s, counts, events, preload_s=preload[0])


def timed_setup(workload: Workload) -> float:
    t0 = time.perf_counter()
    rig = workload.setup()
    elapsed = time.perf_counter() - t0
    del rig
    gc.collect()
    return elapsed


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def check(workload: Workload, rep: Rep, inputs: Inputs) -> List[str]:
    """Every problem with one run's outputs; empty when it is correct."""
    rig = rep.rig
    stats = rig.target.stats
    problems = []
    n = inputs.n_requests
    if len(rig.requests) != n or stats.submitted != n:
        problems.append(
            f"submitted {stats.submitted} / returned {len(rig.requests)} "
            f"of {n} inputs"
        )
    if stats.inflight != 0:
        problems.append(f"{stats.inflight} requests still in flight")
    if stats.submitted != stats.completed + stats.rejected + stats.dropped:
        problems.append(
            f"conservation: submitted {stats.submitted} != completed "
            f"{stats.completed} + rejected {stats.rejected} + dropped "
            f"{stats.dropped}"
        )
    if workload.check_values:
        wrong = 0
        for request in rig.requests:
            if request.state is not RequestState.COMPLETE:
                continue
            reference = rig.model.reference_emb(request.batch)
            for name, expected in reference.items():
                got = request.values.get(name)
                if got is None or got.shape != expected.shape or not np.allclose(
                    got, expected, rtol=RTOL, atol=ATOL
                ):
                    wrong += 1
                    break
        if wrong:
            problems.append(f"{wrong} completed requests have wrong SLS values")
    if rig.update_engine is not None:
        summary = rig.update_engine.summary()
        if not rig.update_stream.done or not rig.update_engine.idle:
            problems.append("update stream did not drain")
        if summary["update_writes_completed"] != summary["update_pages_written"]:
            problems.append(
                f"update page writes: {summary['update_writes_completed']:.0f} "
                f"completed of {summary['update_pages_written']:.0f} enqueued"
            )
    return problems


SIM_METRICS = ("p50_ms", "p99_ms", "goodput_frac", "completed_frac")


def sim_metrics(workload: Workload, rep: Rep, n: int) -> Dict[str, float]:
    """Sim-time end-to-end metrics: repeat exactly for a fixed seed."""
    rig = rep.rig
    summary = rig.target.stats.summary()
    good = sum(
        1
        for r in rig.requests
        if r.state is RequestState.COMPLETE
        and r.t_done - r.t_arrival <= workload.slo_s
    )
    return {
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "goodput_frac": good / n,
        "completed_frac": summary["completed"] / n,
    }


def fingerprint(workload: Workload, rep: Rep, n: int) -> Dict[str, float]:
    return {**sim_metrics(workload, rep, n), **rep.counts}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class GateFailure(Exception):
    """A correctness check failed; the run reports as failed."""

    def __init__(self, problems: List[str], failed: int):
        super().__init__("; ".join(problems))
        self.failed = failed


def gate(workload: Workload, rep: Rep, inputs: Inputs) -> Dict[str, float]:
    """Check one rep and return its fingerprint.  A run that fails a
    check counts all of its requests as failed."""
    problems = check(workload, rep, inputs)
    if problems:
        raise GateFailure(problems, failed=inputs.n_requests)
    return fingerprint(workload, rep, inputs.n_requests)


def failed_requests(fingerprint: Dict[str, float], n: int) -> int:
    """Rejected, dropped and never completed requests of a checked run."""
    return n - round(fingerprint["completed_frac"] * n)


def measure(
    workload: Workload, inputs: Inputs, seconds: float, inject: Optional[str]
) -> Tuple[Dict[str, float], int]:
    """Untraced end-to-end metrics (medians over set-ups and reps) and
    the failed request count."""
    n = inputs.n_requests
    setups: List[float] = []
    while len(setups) < MIN_SETUPS - 1 or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        setups.append(timed_setup(workload))
    runs: List[float] = []
    first: Optional[Dict[str, float]] = None
    started = time.perf_counter()
    while True:
        rep = run_rep(workload, inputs, inject=inject)
        setups.append(rep.setup_s)
        runs.append(rep.run_s)
        current = gate(workload, rep, inputs)
        if first is None:
            first = current
        elif current != first:
            raise GateFailure(["a repeated run at the same seed differed"], n)
        del rep
        gc.collect()
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(runs) > seconds:
            break
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **{name: first[name] for name in SIM_METRICS},
    }
    return values, failed_requests(first, n)


def measure_layers(
    workload: Workload, inputs: Inputs, inject: Optional[str]
) -> Tuple[Dict[str, float], int]:
    """Per-layer metrics -- counts from an untraced rep, self times and
    attribution from a separate traced rep, which must agree with it --
    and the failed request count."""
    n = inputs.n_requests
    untraced = run_rep(workload, inputs, inject=inject)
    expected = gate(workload, untraced, inputs)
    counts, untraced_run_s = untraced.counts, untraced.run_s
    events_per_s = untraced.run_events / untraced.run_s
    del untraced
    gc.collect()

    tracer, sampler = Tracer(), ModuleSampler()
    traced = run_rep(workload, inputs, inject=inject, tracer=tracer, sampler=sampler)
    problems = []
    try:
        if gate(workload, traced, inputs) != expected:
            problems.append("traced run's sim-time metrics or counts differ")
    except GateFailure as failure:
        problems.extend(str(failure).split("; "))
    excl, stage_sum_ms, cohort_ms = p99_attribution(tracer)
    if abs(stage_sum_ms - cohort_ms) > 1e-6 * max(1.0, cohort_ms):
        problems.append(
            f"p99 stages sum to {stage_sum_ms:.6f} ms, cohort latency is "
            f"{cohort_ms:.6f} ms"
        )
    self_s = sampler.seconds
    accounted = sum(self_s.values())
    if not ACCOUNTED_MIN * traced.run_s <= accounted <= ACCOUNTED_MAX * traced.run_s:
        problems.append(
            f"sampled self time {accounted:.2f}s does not account for the "
            f"traced run phase's {traced.run_s:.2f}s"
        )
    if problems:
        raise GateFailure(problems, n)

    metrics = dict(counts)
    metrics.update(excl)
    metrics["sim.events_per_s"] = events_per_s
    metrics["ftl.preload_s"] = traced.preload_s
    metrics["obs.tracing_overhead_frac"] = traced.run_s / untraced_run_s - 1.0
    for module in SELF_TIME_MODULES:
        metrics[f"{module}.self_s"] = self_s.get(module, 0.0)

    print(f"# traced setup_s {traced.setup_s:.3f} s, ftl.preload_s "
          f"{traced.preload_s:.3f} s ({traced.preload_s / traced.setup_s:.0%})")
    print(f"# traced run_s {traced.run_s:.3f} s, sampled self time "
          f"{accounted:.3f} s ({accounted / traced.run_s:.0%}, "
          f"{sampler.samples} samples)")
    for module, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        share = seconds / accounted if accounted else 0.0
        print(f"#   self {module:<16} {seconds:8.3f} s {share:6.1%}")
    print(f"# p99 cohort mean latency {cohort_ms:.3f} ms = sum of stage "
          f"exclusive times {stage_sum_ms:.3f} ms")
    unmeasured = set(self_s) - set(SELF_TIME_MODULES) - {OUTSIDE}
    if unmeasured:
        print(f"# unreported modules: {', '.join(sorted(unmeasured))}")
    return metrics, failed_requests(expected, n)


def run_workload_once(args) -> int:
    workload = WORKLOADS[args.workload]
    n = TINY_REQUESTS[workload.name] if args.tiny else workload.n_requests
    inputs = workload.inputs(args.seed, n)
    names = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            values, failed = measure_layers(workload, inputs, args.inject)
        else:
            values, failed = measure(workload, inputs, args.seconds, args.inject)
    except GateFailure as failure:
        print(f"# {workload.name}: FAILED check: {failure}")
        return emit(False, n, failure.failed, {})
    except Exception as error:  # noqa: BLE001 -- a raising run is a failed run
        traceback.print_exc()
        print(f"# {workload.name}: FAILED with {type(error).__name__}: {error}")
        return emit(False, n, n, {})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    print(f"# {workload.name} seed={args.seed} requests={n} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"#   {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    return emit(True, n, failed, metrics)


def emit(correct: bool, attempted: int, failed: int, metrics: Dict) -> int:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own); a
    workload that fails does not stop the others."""
    merged: Dict[str, Dict] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        if args.inject:
            cmd += ["--inject", args.inject]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            n = TINY_REQUESTS[name] if args.tiny else WORKLOADS[name].n_requests
            result = {"correct": False, "attempted": n, "failed": n, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}/{metric}"] = entry
    return emit(correct, attempted, failed, merged)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall budget for repeating the run phase "
                             "(at least one run always completes)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="a few dozen requests per workload (self-test)")
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="break the run on purpose (self-test of the gate)")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload_once(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
