"""The benchmark's three workloads: inputs, set-up and run phase.

Each workload is open-loop Poisson traffic from independent users.  The
benchmark draws every input from its own seed -- arrival offsets and
request batches, plus the update stream's seed -- and hands the program
only those inputs and plain specs.  A :class:`Rig` is one freshly built
system under test; :meth:`Workload.setup` builds it (everything before
the first arrival) and :meth:`Workload.drive` is the run phase (first
arrival until reads have settled and updates have drained).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.cluster import ClusterSpec, UserPopulation, build_cluster
from repro.core.engine import NdpEngineConfig
from repro.host.system import build_system
from repro.models import build_model
from repro.models.base import Batch, RecModel
from repro.models.dlrm import DlrmConfig, DlrmModel
from repro.models.runner import required_capacity_pages
from repro.serving import InferenceServer, age_device, make_model_updatable
from repro.serving.request import InferenceRequest
from repro.workload import (
    LoadGenerator,
    ScenarioSpec,
    TenantSpec,
    UpdateStream,
    UpdateStreamSpec,
    run_workload,
    tenant_samplers,
)


@dataclass
class Inputs:
    """Everything a run feeds the program, drawn from the workload seed."""

    arrivals: np.ndarray          # seconds after the run starts, ascending
    batches: List[Batch]
    update_seed: int = 0
    # Requests replayed before the measured ones, whose latencies and
    # counts are discarded (see Workload.warm).
    warmup: Optional["Inputs"] = None

    @property
    def n_requests(self) -> int:
        return len(self.batches)


@dataclass
class Rig:
    """One built system under test plus what the run phase leaves on it."""

    target: object                # InferenceServer or Cluster: has submit/sim/stats
    servers: List[InferenceServer]
    model: RecModel               # reference values are checked against it
    cluster: Optional[object] = None
    update_engine: Optional[object] = None
    update_stream: Optional[UpdateStream] = None
    requests: List[InferenceRequest] = field(default_factory=list)

    @property
    def sim(self):
        return self.target.sim

    @property
    def systems(self):
        return [server.system for server in self.servers]


class Replay(LoadGenerator):
    """Submits pre-generated batches at pre-generated arrival offsets and
    keeps every returned request for the correctness gate."""

    def __init__(self, model: str, inputs: Inputs, sink: List[InferenceRequest]):
        super().__init__(model, batch_size=inputs.batches[0].batch_size)
        self.inputs = inputs
        self.sink = sink

    @property
    def total_requests(self) -> int:
        return self.inputs.n_requests

    def schedule(self, server, rng) -> None:
        sim = server.sim
        start = sim.now
        for offset, batch in zip(self.inputs.arrivals, self.inputs.batches):
            sim.schedule_at(
                start + float(offset),
                lambda b=batch: self.sink.append(server.submit(self.model, b)),
            )


def poisson_arrivals(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass(frozen=True)
class Workload:
    """One named workload: its traffic shape, size and SLO."""

    name: str
    why: str
    model_name: str
    rate_rps: float
    batch_size: int
    slo_s: float
    n_requests: int
    backend: str
    check_values: bool
    build_model: Callable[[], RecModel]
    max_inflight: Optional[int] = None

    def scenario(self) -> ScenarioSpec:
        """The server knobs as data (admission stamps each request's SLO;
        the tenant's traffic fields are not read, the inputs are replayed)."""
        return ScenarioSpec(
            name=self.name,
            tenants=(
                TenantSpec(
                    model=self.model_name,
                    arrival="open",
                    rate=self.rate_rps,
                    n_requests=self.n_requests,
                    batch_size=self.batch_size,
                    slo_s=self.slo_s,
                ),
            ),
            backend=self.backend,
            max_inflight_requests=self.max_inflight,
        )

    # -- overridden per workload ----------------------------------------
    def inputs(self, seed: int, n_requests: int) -> Inputs:
        raise NotImplementedError

    def setup(self) -> Rig:
        raise NotImplementedError

    def warm(self, rig: Rig, inputs: Inputs) -> None:
        """Start of the run phase before measurement; none by default."""

    def drive(self, rig: Rig, inputs: Inputs) -> None:
        """The run phase: replay the inputs until every request settled."""
        run_workload(rig.target, Replay(self.model_name, inputs, rig.requests))


# ----------------------------------------------------------------------
# rm3_cots_ssd: the paper's COTS-SSD baseline, every page through the
# host driver -> NVMe -> FTL -> flash chain.
# ----------------------------------------------------------------------
RM3_LOCALITY_K = 0.25
# The FTL page cache and the locality trace's reuse stack start cold:
# the first ~50 requests take 10-15 ms of service instead of ~8 ms, and
# for some seeds they made up most of the p99 cohort.
RM3_WARMUP_REQUESTS = 100


@dataclass(frozen=True)
class Rm3CotsSsd(Workload):
    def inputs(self, seed: int, n_requests: int) -> Inputs:
        rng = np.random.default_rng(seed)
        model = self.build_model()
        samplers = tenant_samplers(
            model, locality_k=RM3_LOCALITY_K, seed=int(rng.integers(2**31))
        )

        def draw(count: int) -> Inputs:
            arrivals = poisson_arrivals(rng, self.rate_rps, count)
            batches = [
                model.sample_batch(rng, self.batch_size, samplers=samplers)
                for _ in range(count)
            ]
            return Inputs(arrivals, batches)

        warmup = draw(RM3_WARMUP_REQUESTS)
        measured = draw(n_requests)
        measured.warmup = warmup
        return measured

    def warm(self, rig: Rig, inputs: Inputs) -> None:
        """Replay the warm-up requests (the same id stream, just before
        the measured ones), then discard their serving stats."""
        run_workload(rig.target, Replay(self.model_name, inputs.warmup, []))
        rig.target.stats.reset()

    def setup(self) -> Rig:
        model = self.build_model()
        spec = self.scenario()
        system = build_system(
            min_capacity_pages=required_capacity_pages(model),
            ndp=NdpEngineConfig(queue_when_full=True),
        )
        server = InferenceServer(system, spec.serving_config())
        server.register_model(model, spec.backend_kind)
        return Rig(target=server, servers=[server], model=model)


# ----------------------------------------------------------------------
# fleet_ndp: four hosts on one kernel behind a consistent-hash router,
# NDP backend with a device embedding cache, Zipf-popular users.
# ----------------------------------------------------------------------
FLEET_HOSTS = 4
FLEET_USERS = 4_000
FLEET_USER_ALPHA = 1.05
FLEET_EMBCACHE_SLOTS = 8_192
FLEET_SPREAD = 2
# The user base (which users are popular, and what each one reads) is a
# property of the fleet, fixed like bench_cluster's; the workload seed
# draws arrivals and which users send them.  Drawing a new user base per
# seed would make p99 hinge on where the few hottest users hash.
FLEET_POPULATION_SEED = 3


@dataclass(frozen=True)
class FleetNdp(Workload):
    def inputs(self, seed: int, n_requests: int) -> Inputs:
        rng = np.random.default_rng(seed)
        model = self.build_model()
        population = UserPopulation(
            FLEET_USERS, alpha=FLEET_USER_ALPHA, seed=FLEET_POPULATION_SEED
        )
        arrivals = poisson_arrivals(rng, self.rate_rps, n_requests)
        batches = [
            population.sample_user_batch(model, rng, self.batch_size)
            for _ in range(n_requests)
        ]
        return Inputs(arrivals, batches)

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(
            name=self.name,
            scenario=self.scenario(),
            n_hosts=FLEET_HOSTS,
            router="consistent_hash",
            router_spread=FLEET_SPREAD,
            embcache_slots=FLEET_EMBCACHE_SLOTS,
        )

    def setup(self) -> Rig:
        model = self.build_model()
        cluster = build_cluster(self.cluster_spec(), [model])
        return Rig(
            target=cluster,
            servers=[node.server for node in cluster.nodes],
            model=model,
            cluster=cluster,
        )


# ----------------------------------------------------------------------
# aged_update: a device aged to GC steady state serving reads beside a
# live update stream.  BENCH_updates' cell (fill 0.92, 600 batches/s)
# overloads the device over a window of a thousand reads; at fill 0.75
# and 300 batches/s GC runs continuously without a growing backlog
# (perfbench/README.md, "Why these sizes").
# ----------------------------------------------------------------------
UPDATE_RATE = 300.0          # update batches per simulated second
ROWS_PER_UPDATE = 32
AGING_FILL = 0.75
# The first ~2 simulated seconds of updates on the freshly aged device
# trigger no GC.  The run phase starts with that long an update-only
# warm-up, so that every measured read meets GC at steady state; without
# it, p99 hinged on how many GC waves fell in the measured window.
UPDATE_WARMUP_S = 2.0


@dataclass(frozen=True)
class AgedUpdate(Workload):
    def inputs(self, seed: int, n_requests: int) -> Inputs:
        rng = np.random.default_rng(seed)
        model = self.build_model()
        arrivals = poisson_arrivals(rng, self.rate_rps, n_requests)
        batches = [model.sample_batch(rng, self.batch_size) for _ in range(n_requests)]
        measured = Inputs(arrivals, batches, update_seed=int(rng.integers(2**31)))
        measured.warmup = Inputs(
            np.empty(0), [], update_seed=int(rng.integers(2**31))
        )
        return measured

    def start_updates(self, rig: Rig, duration_s: float, seed: int) -> None:
        """Schedule an update stream lasting ``duration_s`` on ``rig``."""
        spec = UpdateStreamSpec(
            rate=UPDATE_RATE,
            n_updates=max(1, int(UPDATE_RATE * duration_s)),
            rows_per_update=ROWS_PER_UPDATE,
        )
        rig.update_engine = spec.make_engine(rig.target)
        rig.update_stream = UpdateStream(spec, rig.model, seed=seed)
        rig.update_stream.schedule(rig.sim, rig.update_engine)

    def drain_updates(self, rig: Rig) -> None:
        rig.sim.run_until(lambda: rig.update_stream.done and rig.update_engine.idle)

    def setup(self) -> Rig:
        model = self.build_model()
        make_model_updatable(model)
        spec = self.scenario()
        system = build_system(min_capacity_pages=required_capacity_pages(model))
        server = InferenceServer(system, spec.serving_config())
        server.register_model(model, spec.backend_kind)
        age_device(system, fill_fraction=AGING_FILL)
        return Rig(target=server, servers=[server], model=model)

    def warm(self, rig: Rig, inputs: Inputs) -> None:
        """Update-only warm-up, then discard its serving stats."""
        self.start_updates(rig, UPDATE_WARMUP_S, inputs.warmup.update_seed)
        self.drain_updates(rig)
        rig.target.stats.reset()

    def drive(self, rig: Rig, inputs: Inputs) -> None:
        duration_s = inputs.n_requests / self.rate_rps
        self.start_updates(rig, duration_s, inputs.update_seed)
        super().drive(rig, inputs)
        self.drain_updates(rig)


# Admission cap of the single-host workloads.  The default (64) would
# refuse reads in a long enough burst; the benchmark measures latency,
# and a refused read would count as a failed operation.
NO_REFUSALS = 4096


def _toy_dlrm() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="toy",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=4096,
            dim=16,
            lookups=8,
        ),
        seed=1,
    )


def _fleet_dlrm() -> DlrmModel:
    return DlrmModel(
        DlrmConfig(
            name="fleet",
            dense_in=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 16),
            num_tables=2,
            table_rows=409_600,
            dim=16,
            lookups=8,
        ),
        seed=1,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Rm3CotsSsd(
            name="rm3_cots_ssd",
            why=(
                "Every embedding page crosses host driver, NVMe, FTL and "
                "flash on a conventional SSD, so the per-page read chain "
                "and the FTL page cache dominate."
            ),
            model_name="rm3",
            rate_rps=60.0,
            batch_size=1,
            slo_s=0.050,
            n_requests=2000,
            backend="ssd",
            check_values=True,
            build_model=lambda: build_model("rm3", seed=0),
            max_inflight=NO_REFUSALS,
        ),
        FleetNdp(
            name="fleet_ndp",
            why=(
                "Many small requests on a 4-host NDP fleet: routing, "
                "per-request and per-event overhead and the in-SSD NDP "
                "engine dominate, and table preload dominates set-up."
            ),
            model_name="fleet",
            rate_rps=6000.0,
            batch_size=2,
            slo_s=0.010,
            n_requests=4000,
            backend="ndp",
            check_values=True,
            build_model=_fleet_dlrm,
            max_inflight=512,
        ),
        AgedUpdate(
            name="aged_update",
            why=(
                "Reads beside a live update stream on a device aged to GC "
                "steady state, so writes and GC share the FTL, flash and "
                "NVMe layers with reads."
            ),
            model_name="toy",
            rate_rps=300.0,
            batch_size=2,
            slo_s=0.250,
            n_requests=3000,
            backend="ssd",
            check_values=False,
            build_model=_toy_dlrm,
            max_inflight=NO_REFUSALS,
        ),
    )
}
