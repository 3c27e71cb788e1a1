"""Which public functions and methods the traced run times, and how its
spans and counters become the per-layer metrics.

Every per-layer metric is emitted on every workload; a layer a workload
never enters reads 0.  Units: ``host_s``/``host_ms`` are wall-clock time
on the benchmark host, ``sim_s`` is the program's virtual time, ``count``
an exact count, ``frac`` a ratio in [0, 1].
"""

from __future__ import annotations

from collections import Counter

from repro.core.multi import PAD_ADAPTER_ID
from repro.serve.events import EventKind
from repro.serve.gateway import SHED_REASONS

from tracing import HIGHS_LIMIT_STATUS, Target


def _assemble_counts(counters: Counter, args: tuple, schedule) -> None:
    stats = schedule.stats
    counters["scheduler.merges"] += stats["merges"]
    counters["scheduler.noops"] += stats["noops_inserted"]
    counters["scheduler.milp_selected"] += stats["milp_selected"]
    counters["scheduler.packing_tasks"] += stats["packing_tasks"]


def _highs_counts(counters: Counter, args: tuple, result) -> None:
    counters["scheduler.milp_limit_hits"] += result.status == HIGHS_LIMIT_STATUS


def _simulate_counts(counters: Counter, args: tuple, result) -> None:
    slots = result.makespan * result.num_stages
    counters["distsim.slot_s"] += slots
    counters["distsim.idle_s"] += slots - sum(result.busy)


def _tile_counts(counters: Counter, args: tuple, result) -> None:
    table = args[3].tile_table
    counters["core.tiles"] += len(table)
    counters["core.real_tiles"] += int((table != PAD_ADAPTER_ID).sum())


def _engine_counts(counters: Counter, args: tuple, result) -> None:
    counters["runtime.microbatches"] += not args[1].is_noop


#: Public costing entry points; nested calls between them count once.
_COSTING = (
    "microbatch_seconds", "roundtrip_seconds", "batch_seconds", "job_seconds",
    "placement_seconds", "job_seconds_batch", "placement_seconds_batch",
    "pack_fragmentation", "wave_seconds", "schedule_seconds",
)

TARGETS = [
    Target("scheduler.plan", "repro.scheduler.scheduler", "MultiLoRAScheduler.plan_step"),
    Target("scheduler.assemble", "repro.scheduler.scheduler",
           "MultiLoRAScheduler.assemble", _assemble_counts),
    Target("scheduler.greedy", "repro.scheduler.greedy", "greedy_pack"),
    Target("scheduler.milp", "repro.scheduler.milp", "milp_pack"),
    Target("scheduler.highs", "repro.scheduler.milp", "milp", _highs_counts),
    Target("distsim.simulate", "repro.distsim.pipeline", "simulate_stream",
           _simulate_counts),
    Target("models.stage_time", "repro.models.layer_costs", "LayerCostModel.stage_time"),
    Target("models.fwd", "repro.models.transformer", "TinyLoRATransformer.forward"),
    Target("models.bwd", "repro.models.transformer", "TinyLoRATransformer.backward"),
    Target("core.multi_fwd", "repro.core.multi", "fused_multi_lora_forward", _tile_counts),
    Target("core.multi_bwd", "repro.core.multi", "fused_multi_lora_backward"),
    Target("runtime.submit", "repro.runtime.engine", "MultiLoRAEngine.submit",
           _engine_counts),
    Target("runtime.optimizer", "repro.runtime.optimizer", "AdapterOptimizer.step"),
    Target("serve.gateway.submit", "repro.serve.gateway", "ServeGateway.submit"),
    Target("serve.fleet.advance", "repro.serve.replicaset", "FleetSession.advance"),
    Target("serve.fleet.drain", "repro.serve.replicaset", "FleetSession.finish"),
    Target("serve.orchestrator.step", "repro.serve.orchestrator", "OnlineOrchestrator.step"),
    Target("serve.router.route", "repro.serve.router", "TenantRouter.route"),
    Target("serve.executor.submit", "repro.serve.executors", "StreamingSimExecutor.submit"),
    Target("serve.autoscaler.plan", "repro.serve.autoscaler", "FleetAutoscaler.plan"),
] + [
    Target("serve.costing.price", "repro.serve.costing", f"CostEstimator.{method}")
    for method in _COSTING
]

#: Span-timed metrics: ``metric -> span name`` (host seconds per round).
_SPAN_TIMES = {
    "scheduler.plan_s": "scheduler.plan",
    "scheduler.assemble_s": "scheduler.assemble",
    "scheduler.milp_s": "scheduler.milp",
    "scheduler.greedy_s": "scheduler.greedy",
    "distsim.simulate_s": "distsim.simulate",
    "models.stage_time_s": "models.stage_time",
    "models.fwd_s": "models.fwd",
    "models.bwd_s": "models.bwd",
    "core.multi_fwd_s": "core.multi_fwd",
    "core.multi_bwd_s": "core.multi_bwd",
    "runtime.submit_s": "runtime.submit",
    "runtime.optimizer_s": "runtime.optimizer",
    "serve.gateway.submit_s": "serve.gateway.submit",
    "serve.fleet.advance_s": "serve.fleet.advance",
    "serve.fleet.drain_s": "serve.fleet.drain",
    "serve.orchestrator.step_s": "serve.orchestrator.step",
    "serve.router.route_s": "serve.router.route",
    "serve.costing.price_s": "serve.costing.price",
    "serve.executor.submit_s": "serve.executor.submit",
    "serve.autoscaler.plan_s": "serve.autoscaler.plan",
}

#: Span-counted metrics: ``metric -> span name`` (outermost calls per round).
_SPAN_CALLS = {
    "scheduler.milp_calls": "scheduler.milp",
    "models.stage_time_calls": "models.stage_time",
    "runtime.steps": "runtime.optimizer",
    "serve.orchestrator.steps": "serve.orchestrator.step",
    "serve.router.routes": "serve.router.route",
    "serve.costing.calls": "serve.costing.price",
    "serve.executor.microbatches": "serve.executor.submit",
}

#: Shim counters reported as they are, per round.
_COUNTERS = {
    "scheduler.milp_limit_hits": "scheduler.milp_limit_hits",
    "scheduler.merges": "scheduler.merges",
    "scheduler.noops": "scheduler.noops",
    "core.tiles": "core.tiles",
    "runtime.microbatches": "runtime.microbatches",
}

#: Metrics read from the round's own outputs: ``metric -> (key, unit)``;
#: keys name a round count or a workload figure.
_OUTPUTS = {
    "serve.gateway.accepted": ("accepted", "count"),
    **{f"serve.gateway.shed.{r}": (f"shed.{r}", "count") for r in SHED_REASONS},
    "serve.gateway.gen_late_p99_ms": ("gen_late_p99_ms", "host_ms"),
    **{f"serve.fleet.events.{k.name}": (f"events.{k.name}", "count") for k in EventKind},
    "serve.orchestrator.replans": ("replans", "count"),
    "serve.orchestrator.preemptions": ("preemptions", "count"),
    "serve.orchestrator.queue_wait_p50_s": ("queue_wait_p50_s", "sim_s"),
    "serve.router.migrations": ("migrations", "count"),
    "serve.autoscaler.joins": ("joins", "count"),
    "serve.autoscaler.retires": ("retires", "count"),
    "serve.packing.pack_efficiency": ("pack_efficiency", "frac"),
    "serve.packing.padding_waste": ("padding_waste", "frac"),
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    **{m: "host_s" for m in _SPAN_TIMES},
    **{m: "count" for m in _SPAN_CALLS},
    **{m: "count" for m in _COUNTERS},
    "scheduler.milp_win_frac": "frac",
    "distsim.bubble_frac": "frac",
    "core.tile_fill": "frac",
    "serve.fleet.events": "count",
    "serve.fleet.events_per_s": "1/s",
    **{m: unit for m, (_, unit) in _OUTPUTS.items()},
    "trace.wall_s": "host_s",
    "trace.untraced_wall_s": "host_s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, rounds: int, outputs: dict[str, float], walls: dict[str, float]):
    """Per-round per-layer metrics of a traced run.

    Args:
        tracer: The :class:`~tracing.Tracer` that timed ``rounds`` rounds.
        rounds: Traced rounds.
        outputs: The first traced round's counts and workload figures.
        walls: ``traced`` and ``untraced`` median round wall seconds, and
            ``covered``: per-round host seconds inside top-level spans.
    """
    totals = tracer.layer_totals()
    counters = tracer.counters
    values: dict[str, float] = {}
    for metric, span in _SPAN_TIMES.items():
        values[metric] = totals[span].total / rounds if span in totals else 0.0
    for metric, span in _SPAN_CALLS.items():
        values[metric] = totals[span].calls / rounds if span in totals else 0.0
    for metric, key in _COUNTERS.items():
        values[metric] = counters[key] / rounds
    values["scheduler.milp_win_frac"] = _ratio(
        counters["scheduler.milp_selected"], counters["scheduler.packing_tasks"]
    )
    values["distsim.bubble_frac"] = _ratio(counters["distsim.idle_s"], counters["distsim.slot_s"])
    values["core.tile_fill"] = _ratio(counters["core.real_tiles"], counters["core.tiles"])
    events = sum(outputs.get(f"events.{k.name}", 0.0) for k in EventKind)
    values["serve.fleet.events"] = events
    fleet_s = values["serve.fleet.advance_s"] + values["serve.fleet.drain_s"]
    values["serve.fleet.events_per_s"] = _ratio(events, fleet_s)
    for metric, (key, _) in _OUTPUTS.items():
        values[metric] = float(outputs.get(key, 0.0))
    values["trace.wall_s"] = walls["traced"]
    values["trace.untraced_wall_s"] = walls["untraced"]
    values["trace.overhead_ratio"] = _ratio(walls["traced"], walls["untraced"])
    values["trace.unattributed_frac"] = max(0.0, 1.0 - _ratio(walls["covered"], walls["traced"]))
    return {m: (values[m], PER_LAYER_UNITS[m]) for m in PER_LAYER_UNITS}
