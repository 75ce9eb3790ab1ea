"""Declarative multi-tenant serving scenarios.

A :class:`ScenarioSpec` names everything one serving experiment needs —
N models x client populations x arrival processes x SLO deadlines x
QoS policy — as plain data, and :func:`run_scenario` turns it into a
configured :class:`~repro.serving.InferenceServer`, the matching
:mod:`repro.workload.generators`, one deterministic run, and a
:class:`ScenarioResult` with overall and per-tenant (per-lane) numbers.

One tenant == one registered model == one queue lane: the admission
config's per-model SLO/priority/quota maps are assembled from the
tenant specs, and :meth:`~repro.serving.stats.ServingStats.lane_summary`
reports each tenant's goodput and tail latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.engine import NdpEngineConfig
from ..embedding.placement import HeatTracker, LayoutMigrator, profile_heat
from ..faults.injector import FaultInjector
from ..faults.spec import FaultSpec
from ..host.system import System, build_system
from ..models.base import IndexSampler, RecModel
from ..models.runner import BackendKind, required_capacity_pages
from ..serving import AdmissionConfig, InferenceServer, ServingConfig, ServingStats
from ..serving.sharding import RowShardPolicy
from ..serving.updates import make_model_updatable
from ..traces.locality import LocalityTraceGenerator
from ..traces.powerlaw import ZipfTraceGenerator
from .arrivals import ArrivalTrace
from .updates import UpdateStream, UpdateStreamSpec
from .generators import (
    ClosedLoopGenerator,
    LoadGenerator,
    OpenLoopGenerator,
    TraceReplayGenerator,
    run_workload,
)

__all__ = [
    "TenantSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    "tenant_samplers",
]


def tenant_samplers(
    model: RecModel,
    locality_k: Optional[float] = None,
    zipf_alpha: Optional[float] = None,
    seed: int = 0,
) -> Optional[Dict[str, IndexSampler]]:
    """Per-table id samplers shaped like the paper's traces.

    ``locality_k`` builds Fig 4-style stack-distance locality streams
    (:class:`~repro.traces.locality.LocalityTraceGenerator`);
    ``zipf_alpha`` builds Fig 3-style power-law popularity streams
    (:class:`~repro.traces.powerlaw.ZipfTraceGenerator`).  ``None`` for
    both means uniform ids (the model's default sampler).
    """
    if locality_k is not None and zipf_alpha is not None:
        raise ValueError("pick locality_k or zipf_alpha, not both")
    if locality_k is None and zipf_alpha is None:
        return None
    samplers: Dict[str, IndexSampler] = {}
    for i, feature in enumerate(model.features):
        table_seed = seed + 31 * i
        if locality_k is not None:
            samplers[feature.name] = LocalityTraceGenerator(
                table_rows=feature.spec.rows, k=locality_k, seed=table_seed
            ).generate
        else:
            samplers[feature.name] = ZipfTraceGenerator(
                table_rows=feature.spec.rows, alpha=zipf_alpha, seed=table_seed
            ).generate
    return samplers


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic and QoS contract.

    ``arrival`` selects the client model: ``"open"`` (``rate`` rps
    Poisson, ``n_requests`` total), ``"closed"`` (``num_clients`` x
    ``requests_per_client`` with ``think_time_s``) or ``"replay"``
    (verbatim :class:`ArrivalTrace` in ``trace``).  ``slo_s`` is the
    relative deadline goodput is measured against (and, with the
    scenario's ``deadline_drop``, the early-drop criterion); ``priority``
    and ``quota`` feed the admission config's lane maps.  ``locality_k``
    / ``zipf_alpha`` shape the lookup id stream after the paper's
    Fig 4 / Fig 3 trace characterizations.
    """

    model: str
    arrival: str = "open"
    rate: float = 0.0
    n_requests: int = 0
    num_clients: int = 0
    requests_per_client: int = 0
    think_time_s: float = 0.0
    trace: Optional[ArrivalTrace] = None
    batch_size: int = 1
    slo_s: Optional[float] = None
    priority: int = 0
    quota: Optional[int] = None
    locality_k: Optional[float] = None
    zipf_alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival not in ("open", "closed", "replay"):
            raise ValueError(f"unknown arrival model {self.arrival!r}")
        if self.arrival == "open" and (self.rate <= 0 or self.n_requests < 1):
            raise ValueError(f"open tenant {self.model!r} needs rate and n_requests")
        if self.arrival == "closed" and (
            self.num_clients < 1 or self.requests_per_client < 1
        ):
            raise ValueError(
                f"closed tenant {self.model!r} needs num_clients and "
                f"requests_per_client"
            )
        if self.arrival == "replay" and self.trace is None:
            raise ValueError(f"replay tenant {self.model!r} needs a trace")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive")

    @property
    def total_requests(self) -> int:
        if self.arrival == "open":
            return self.n_requests
        if self.arrival == "closed":
            return self.num_clients * self.requests_per_client
        return self.trace.n_requests

    def to_generator(self, model: RecModel, seed: int = 0) -> LoadGenerator:
        if model.name != self.model:
            raise ValueError(f"model {model.name!r} is not tenant {self.model!r}")
        samplers = tenant_samplers(
            model, self.locality_k, self.zipf_alpha, seed=seed
        )
        if self.arrival == "open":
            return OpenLoopGenerator(
                self.model,
                rate=self.rate,
                n_requests=self.n_requests,
                batch_size=self.batch_size,
                samplers=samplers,
            )
        if self.arrival == "closed":
            return ClosedLoopGenerator(
                self.model,
                num_clients=self.num_clients,
                requests_per_client=self.requests_per_client,
                think_time_s=self.think_time_s,
                batch_size=self.batch_size,
                samplers=samplers,
            )
        return TraceReplayGenerator(
            self.trace, batch_size=self.batch_size, samplers=samplers
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A whole serving experiment as data: tenants + server knobs + QoS."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    backend: str = "ndp"                 # dram | ssd | ndp
    max_inflight_requests: Optional[int] = None
    max_batch_requests: int = 8
    max_inflight_batches_per_worker: int = 2
    max_inflight_batches_total: Optional[int] = None
    dense_stage: bool = True
    # Host resource model (repro.serving.hostpool): bounded host SLS /
    # dense NN worker pools.  Defaults keep the seed's behaviour
    # bit-identically; dense_workers=0 means unbounded ("∞" sweeps).
    host_sls_workers: Optional[int] = None
    dense_workers: int = 1
    dense_time_scale: float = 1.0
    deadline_drop: bool = False
    drop_headroom_s: float = 0.0
    seed: int = 0
    # Fault schedule (repro.faults) for this standalone server's devices.
    # Host-scoped events are a cluster concept and are rejected here.
    faults: Optional[FaultSpec] = None
    # Live embedding update stream (repro.workload.updates) interleaved
    # with the tenants' read traffic.  None keeps the read-only timeline
    # bit-identical to the pre-update implementation.
    updates: Optional[UpdateStreamSpec] = None
    # Row placement (repro.ftl.layout / repro.embedding.placement):
    # "modulo" keeps the legacy identity layout; "frequency" profiles
    # each tenant's id distribution for ``layout_profile_batches``
    # batches before registration and heat-packs table pages from it.
    # A positive ``layout_migration_budget`` additionally installs the
    # GC-piggybacked migrator (at most that many rows re-packed per
    # reclaimed victim block) fed by an online HeatTracker.
    layout: str = "modulo"
    layout_profile_batches: int = 32
    layout_migration_budget: int = 0

    def __post_init__(self) -> None:
        if self.layout not in ("modulo", "frequency"):
            raise ValueError(f"unknown layout {self.layout!r} (modulo|frequency)")
        if self.layout_profile_batches < 0:
            raise ValueError("layout_profile_batches must be >= 0")
        if self.layout_migration_budget < 0:
            raise ValueError("layout_migration_budget must be >= 0")
        if not self.tenants:
            raise ValueError("scenario needs at least one tenant")
        names = [t.model for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("one lane per tenant: tenant models must be unique")
        BackendKind(self.backend)  # ValueError for unknown backends
        if self.updates is not None and self.updates.model is not None:
            if self.updates.model not in names:
                raise ValueError(
                    f"update stream targets {self.updates.model!r} but the "
                    f"scenario's tenants are {names}"
                )
        if self.faults is not None:
            for event in self.faults.events:
                if event.host is not None or event.host_scoped:
                    raise ValueError(
                        f"standalone scenario fault {event.kind!r}@{event.t} "
                        f"cannot target a host — use ClusterSpec.faults"
                    )

    @property
    def backend_kind(self) -> BackendKind:
        return BackendKind(self.backend)

    def admission_config(self) -> AdmissionConfig:
        """Per-tenant SLO/priority/quota maps gathered into one policy."""
        return AdmissionConfig(
            deadline_drop=self.deadline_drop,
            drop_headroom_s=self.drop_headroom_s,
            slo_by_model={
                t.model: t.slo_s for t in self.tenants if t.slo_s is not None
            },
            quota_by_model={
                t.model: t.quota for t in self.tenants if t.quota is not None
            },
            priority_by_model={
                t.model: t.priority for t in self.tenants if t.priority != 0
            },
        )

    def serving_config(self) -> ServingConfig:
        return ServingConfig(
            max_inflight_requests=self.max_inflight_requests,
            max_batch_requests=self.max_batch_requests,
            max_inflight_batches_per_worker=self.max_inflight_batches_per_worker,
            max_inflight_batches_total=self.max_inflight_batches_total,
            dense_stage=self.dense_stage,
            admission=self.admission_config(),
            host_sls_workers=self.host_sls_workers,
            dense_workers=self.dense_workers,
            dense_time_scale=self.dense_time_scale,
        )

    @property
    def total_requests(self) -> int:
        return sum(t.total_requests for t in self.tenants)


@dataclass
class ScenarioResult:
    """One scenario run: the server it built and what happened."""

    spec: ScenarioSpec
    server: InferenceServer
    stats: ServingStats
    summary: Dict[str, float]
    lanes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Update-stream gauges (EmbeddingUpdateEngine.summary()); empty when
    # the scenario ran without an update stream.
    updates: Dict[str, float] = field(default_factory=dict)

    def lane(self, model: str) -> Dict[str, float]:
        return self.lanes[model]

    def __repr__(self) -> str:
        return (
            f"ScenarioResult({self.spec.name}, "
            f"completed={self.summary['completed']:.0f}, "
            f"goodput={self.summary['goodput']:.0f}, "
            f"p95={self.summary['p95_ms']:.2f}ms)"
        )


def run_scenario(
    spec: ScenarioSpec,
    models: Union[Sequence[RecModel], Mapping[str, RecModel]],
    system: Optional[System] = None,
    num_workers: int = 1,
    sharding=None,
    tracer=None,
) -> ScenarioResult:
    """Build, run and summarize one scenario end-to-end.

    ``models`` supplies the actual :class:`RecModel` instances the
    tenant specs name (a sequence or a name-keyed mapping).  ``system``
    defaults to a fresh single-SSD system sized for the largest model
    with device-side NDP backpressure enabled; ``num_workers`` /
    ``sharding`` pass through to ``register_model`` so scenarios can run
    against multi-SSD layouts too.  Deterministic for a fixed
    ``spec.seed``.

    ``tracer`` (a :class:`repro.obs.Tracer`) is installed on the
    system's simulator before any traffic: spans observe the run without
    perturbing it, so results are bit-identical with or without one.
    """
    by_name = (
        dict(models)
        if isinstance(models, Mapping)
        else {model.name: model for model in models}
    )
    missing = [t.model for t in spec.tenants if t.model not in by_name]
    if missing:
        raise KeyError(f"scenario {spec.name!r} names unknown models {missing}")
    update_target: Optional[str] = None
    if spec.updates is not None:
        update_target = spec.updates.model or spec.tenants[0].model
        # Wrap before registration: replicas and row shards share the
        # canonical data object, so the overlay propagates everywhere.
        make_model_updatable(by_name[update_target])
    if system is None:
        capacity = max(
            required_capacity_pages(by_name[t.model]) for t in spec.tenants
        )
        system = build_system(
            min_capacity_pages=capacity,
            ndp=NdpEngineConfig(queue_when_full=True),
        )
    heat_by_model: Dict[str, Dict[str, np.ndarray]] = {}
    if spec.layout == "frequency":
        heat_by_model = _profile_tenant_heat(spec, by_name)
        for name, per_table in heat_by_model.items():
            for table_name, heat in per_table.items():
                by_name[name].tables[table_name].set_heat(heat)
            if isinstance(sharding, RowShardPolicy):
                # The same frequency histogram that packs pages also
                # seeds RowShardPolicy's frequency-range partitioning.
                for table_name, heat in per_table.items():
                    sharding.profiles.setdefault(table_name, heat)
    server = InferenceServer(system, spec.serving_config())
    if tracer is not None:
        tracer.install(server.sim)
    for tenant in spec.tenants:
        server.register_model(
            by_name[tenant.model],
            spec.backend_kind,
            num_workers=num_workers,
            sharding=sharding,
        )
    if spec.layout == "frequency" and spec.layout_migration_budget > 0:
        _install_layout_migration(server, spec.layout_migration_budget)
    generators = [
        tenant.to_generator(by_name[tenant.model], seed=spec.seed + 101 * i)
        for i, tenant in enumerate(spec.tenants)
    ]
    if spec.faults is not None:
        FaultInjector(spec.faults).arm_server(server)
    update_engine = update_stream = None
    if spec.updates is not None:
        update_engine = spec.updates.make_engine(server)
        update_stream = UpdateStream(
            spec.updates, by_name[update_target], seed=spec.seed
        )
        update_stream.schedule(server.sim, update_engine)
    stats = run_workload(server, generators, seed=spec.seed)
    if update_stream is not None:
        # Reads settled first; commit any update batches scheduled past
        # the last read and let the device writes drain.
        server.sim.run_until(
            lambda: update_stream.done and update_engine.idle
        )
    return ScenarioResult(
        spec=spec,
        server=server,
        stats=stats,
        summary=stats.summary(),
        lanes=stats.lane_summary(),
        updates={} if update_engine is None else update_engine.summary(),
    )


def _profile_tenant_heat(
    spec: ScenarioSpec, by_name: Mapping[str, RecModel]
) -> Dict[str, Dict[str, np.ndarray]]:
    """Frequency histograms per (model, table) from the tenants' samplers.

    Draws ``layout_profile_batches`` batches from each tenant's id
    distribution, seeded like the serving stream: the locality/zipf
    generators pick *which* rows are popular from their seed, so a
    profile drawn under a different seed would rank the wrong rows hot.
    This models profiling yesterday's traffic from the same population.
    Tenants sharing a model accumulate into one histogram.  Uniform
    tenants (no locality/zipf shape) contribute nothing — with no
    profile at all the table keeps the legacy identity layout.
    """
    heat_by_model: Dict[str, Dict[str, np.ndarray]] = {}
    for i, tenant in enumerate(spec.tenants):
        model = by_name[tenant.model]
        samplers = tenant_samplers(
            model, tenant.locality_k, tenant.zipf_alpha, seed=spec.seed + 101 * i
        )
        if samplers is None or spec.layout_profile_batches == 0:
            continue
        per_table = heat_by_model.setdefault(tenant.model, {})
        for feature in model.features:
            sampler = samplers[feature.name]
            heat = profile_heat(
                sampler,
                feature.spec.rows,
                batches=spec.layout_profile_batches,
                batch_size=max(1, tenant.batch_size) * feature.lookups,
            )
            if feature.name in per_table:
                per_table[feature.name] += heat
            else:
                per_table[feature.name] = heat
    return heat_by_model


def _install_layout_migration(server: InferenceServer, budget_rows: int) -> None:
    """Wire GC-piggybacked re-packing for every heat-packed table.

    One :class:`LayoutMigrator` per device (installed as
    ``ftl.layout_migrator``); every attached backend table carrying a
    :class:`~repro.ftl.layout.FrequencyLayout` gets a
    :class:`HeatTracker` seeded from its load-time profile and installed
    as ``table.heat_tracker`` so the backend request funnel feeds it.
    """
    migrators: Dict[int, LayoutMigrator] = {}
    seen: Dict[int, None] = {}
    for table in _attached_backend_tables(server):
        if table.layout is None or id(table) in seen:
            continue
        seen[id(table)] = None
        tracker = HeatTracker(table.spec.rows, initial=table.heat)
        table.heat_tracker = tracker
        device = table.device
        migrator = migrators.get(id(device))
        if migrator is None:
            migrator = migrators[id(device)] = LayoutMigrator(budget_rows)
            device.ftl.layout_migrator = migrator
        migrator.register(table, tracker)


def _attached_backend_tables(server: InferenceServer):
    """Every device-attached table behind the server's workers."""
    for pool in server.workers.values():
        for worker in pool:
            stage = worker.stage
            backend_maps = []
            if hasattr(stage, "backends"):
                backend_maps.append(stage.backends)
            backend_maps.extend(getattr(stage, "backends_by_shard", []) or [])
            for backends in backend_maps:
                for backend in backends.values():
                    table = getattr(backend, "table", None)
                    if table is not None and getattr(table, "attached", False):
                        yield table
