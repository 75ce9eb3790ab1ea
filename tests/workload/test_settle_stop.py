"""``run_workload`` stops on the settle signal exactly where the old
per-event predicate stopped.

The reference below is the predicate form ``run_workload`` used before
the stop signal: re-evaluate ``stats.settled`` after every event.  Both
forms must leave the kernel on the same event count and the same clock,
with every settle path in play: completions, admission rejects, queue
drops, router rejects on a fleet with no routable host, and logical
verdicts under tail tolerance (retries, hedges, timeouts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, HostEvent, run_cluster_scenario
from repro.cluster import scenario as cluster_scenario
from repro.faults import BreakerConfig, FaultEvent, FaultSpec, ToleranceConfig
from repro.workload import ScenarioSpec, TenantSpec, run_scenario
from repro.workload import scenario as serving_scenario
from repro.workload.generators import LoadGenerator

from ..serving.conftest import toy_model


def run_workload_by_predicate(server, generators, seed=0, rng=None, limit=float("inf")):
    """The predicate form.  It also asserts that every event that
    changes the settled count calls the settle hook."""
    gens = [generators] if isinstance(generators, LoadGenerator) else list(generators)
    if rng is None:
        rng = np.random.default_rng(seed)
    stats = server.stats
    base = stats.settled
    total = 0
    for generator in gens:
        generator.schedule(server, rng)
        total += generator.total_requests
    notified = []
    seen = [base]

    def settled_enough() -> bool:
        if stats.settled != seen[0]:
            assert notified, "settled count changed without a settle_hook call"
            seen[0] = stats.settled
        notified.clear()
        return stats.settled >= base + total

    stats.settle_hook = lambda: notified.append(True)
    try:
        server.sim.run_until(settled_enough, limit)
    finally:
        stats.settle_hook = None
    return stats


def recording(run_workload_fn, record):
    """Wrap a run_workload form: park a far-future event first (a run
    that fails to stop reaches it), and record the kernel state the
    moment the form returns."""

    def wrapped(server, generators, **kwargs):
        server.sim.schedule(1e6, lambda: None)
        stats = run_workload_fn(server, generators, **kwargs)
        sim = server.sim
        record.append(
            (sim.now, sim.event_count, stats.settled, stats.completed,
             stats.rejected, stats.dropped, stats.inflight)
        )
        return stats

    return wrapped


def both_ways(monkeypatch, module, run):
    """Run with the settle signal, then with the predicate form; returns
    the first run's result and both recorded kernel states."""
    signal, predicate = [], []
    monkeypatch.setattr(module, "run_workload", recording(module.run_workload, signal))
    result = run()
    monkeypatch.setattr(
        module, "run_workload", recording(run_workload_by_predicate, predicate)
    )
    run()
    assert len(signal) == len(predicate) == 1
    assert signal[0][0] < 1e6
    return result, signal[0], predicate[0]


def scenario(rate, n_requests, slo_s=None, **kwargs):
    return ScenarioSpec(
        name="settle-stop",
        tenants=(
            TenantSpec(
                model="toy", arrival="open", rate=rate, n_requests=n_requests,
                batch_size=2, slo_s=slo_s,
            ),
        ),
        backend="ndp",
        seed=5,
        **kwargs,
    )


SERVING_CASES = {
    "completions": dict(rate=2000.0, n_requests=30),
    "rejects": dict(rate=20000.0, n_requests=40, max_inflight_requests=3),
    "drops": dict(rate=20000.0, n_requests=40, slo_s=0.004, deadline_drop=True),
}


@pytest.mark.parametrize("case", sorted(SERVING_CASES))
def test_serving_stop_matches_predicate(monkeypatch, case):
    spec = scenario(**SERVING_CASES[case])
    result, signal, predicate = both_ways(
        monkeypatch, serving_scenario, lambda: run_scenario(spec, [toy_model()])
    )
    assert signal == predicate
    if case != "completions":
        assert result.stats.rejected + result.stats.dropped > 0
    # The hook is wiring for the run only: nothing is left installed.
    assert result.stats.settle_hook is None


CLUSTER_CASES = {
    "router_rejects": dict(
        scenario=scenario(rate=4000.0, n_requests=40),
        n_hosts=2,
        host_events=(
            HostEvent(t=0.002, host="host0", action="fail"),
            HostEvent(t=0.002, host="host1", action="drain"),
            HostEvent(t=0.006, host="host1", action="restore"),
        ),
    ),
    "tolerance": dict(
        scenario=scenario(rate=3000.0, n_requests=40),
        n_hosts=3,
        faults=FaultSpec(
            events=(
                FaultEvent(t=0.0, kind="fail_slow", host="host0", factor=30.0),
                FaultEvent(t=0.02, kind="host_fail", host="host0"),
            )
        ),
        tolerance=ToleranceConfig(
            timeout_s=0.004,
            max_retries=2,
            backoff_s=0.0005,
            hedge_after_s=0.002,
            breaker=BreakerConfig(
                latency_threshold_s=0.006, min_samples=2, probe_after_s=0.01
            ),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CLUSTER_CASES))
def test_cluster_stop_matches_predicate(monkeypatch, case):
    spec = ClusterSpec(name=f"settle-{case}", **CLUSTER_CASES[case])
    result, signal, predicate = both_ways(
        monkeypatch,
        cluster_scenario,
        lambda: run_cluster_scenario(spec, [toy_model()]),
    )
    assert signal == predicate
    stats = result.cluster.stats
    if case == "router_rejects":
        assert stats.router_rejected > 0
    else:
        assert stats.retries > 0 and stats.hedges_dispatched > 0
    assert stats.settle_hook is None
    assert all(node.stats.settle_hook is None for node in result.cluster.nodes)
