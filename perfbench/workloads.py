"""The benchmark's workloads: inputs made from a seed, one round of work,
and the checks on its outputs.

A round is one complete replay of the workload from freshly built program
objects, so every round of a run must produce identical simulated outputs;
the run repeats rounds until its time is up.  Host time is wall clock
(``time.perf_counter``).  Simulated time is the program's virtual clock or
its modeled GPU seconds, and repeats exactly for fixed code and seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import train_job_sequentially
from repro.core.lora import LoRAConfig
from repro.data import synthetic_dataset
from repro.data.dataset import FinetuneDataset, Sample
from repro.distsim import pipeline
from repro.distsim.systems import to_pipeline_microbatch
from repro.gpu import H100
from repro.models import LLAMA3_8B, LLAMA3_70B, TINY, TinyLoRATransformer
from repro.models.layer_costs import LayerCostModel
from repro.runtime import MultiLoRAEngine, NumericJob
from repro.scheduler import AdapterJob, MultiLoRAScheduler, SchedulerConfig
from repro.scheduler.bubble import find_violations
from repro.serve import GatewayOverload, ManualClock, ServeConfig
from repro.serve.gateway import SHED_REASONS

from stats import percentile
from tracing import MilpProbe

#: Loss agreement the repository's losslessness tests require between
#: joint and sequential training (``tests/integration/test_losslessness.py``).
LOSSLESS_TOL = 1e-10


@dataclass
class RoundResult:
    """What one round measured and produced.

    Attributes:
        busy_s: Host seconds the round's measured operations took.
        latencies_ms: Host latency of each unit operation.
        cpu_ms: Process CPU time of each unit operation: the host work it
            took, without the time the process waited for a core.
        tokens: Real tokens the round pushed through its target layer.
        sim_tok_s: Modeled tokens per simulated second.
        counts: Exact counts and simulated outcomes; equal on every round
            of one seed unless host speed leaks into a decision.
        digest: Hash of the round's simulated outputs.
        figures: Workload-specific figures ``name -> (value, unit, kind,
            samples)`` with kind ``host`` or ``sim``.
        failures: Output checks that failed.
        attempted: Unit operations attempted.
        failed: Unit operations that raised, plus admitted jobs lost.
        wall_s: Host seconds of the whole round; the caller fills it in
            unless the round excludes idle time (an open loop's sleeps).
    """

    busy_s: float
    latencies_ms: list[float]
    cpu_ms: list[float]
    tokens: int
    sim_tok_s: float
    counts: dict[str, float]
    digest: str
    figures: dict[str, tuple[float, str, str, int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float | None = None


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# offline-het: the paper's heterogeneous setting through the MILP scheduler
# ---------------------------------------------------------------------------


class OfflineHet:
    """Four adapters (xsum, cnn_dailymail, wikisum, mixed), 128 samples
    each, global batch 8, on LLaMa-3-70B over a 4xH100 pipeline: one
    ``MultiLoRAScheduler.schedule()`` under the default MILP settings, then
    ``simulate_stream`` of the schedule (Fig. 14's LoRAFusion row)."""

    name = "offline-het"
    DATASETS = ("xsum", "cnn_dailymail", "wikisum", "mixed")
    SAMPLES = 128
    GBS = 8
    NUM_STAGES = 4
    CAPACITY = 8192
    MIN_ROUNDS = 2

    def __init__(self, seed: int, seconds: float) -> None:
        self.jobs = [
            AdapterJob(a, synthetic_dataset(a, name, self.SAMPLES, seed=seed), self.GBS)
            for a, name in enumerate(self.DATASETS)
        ]
        # Default SchedulerConfig: MILP on, 2.0 s limit, merge pass on.
        self.config = SchedulerConfig(capacity=self.CAPACITY, num_stages=self.NUM_STAGES)
        self.expected = {
            (job.adapter_id, s.index) for job in self.jobs for s in job.dataset.samples
        }
        self.probe = MilpProbe().install()

    def close(self) -> None:
        self.probe.remove()

    def done(self, rounds: int) -> bool:
        return rounds >= self.MIN_ROUNDS

    def round(self) -> RoundResult:
        self.probe.take()
        start, cpu = time.perf_counter(), time.process_time()
        schedule = MultiLoRAScheduler(self.jobs, self.config).schedule()
        plan_s = time.perf_counter() - start
        plan_cpu_s = time.process_time() - cpu
        solves, limit_hits = self.probe.take()
        cost = LayerCostModel(LLAMA3_70B, H100, strategy="fused_multi")
        start = time.perf_counter()
        stream = [
            to_pipeline_microbatch(mb, cost, self.NUM_STAGES)
            for mb in schedule.microbatches
        ]
        sim = pipeline.simulate_stream(stream, self.NUM_STAGES)
        simulate_s = time.perf_counter() - start

        failures = []
        seen = [
            (a.adapter_id, a.sample.index)
            for mb in schedule.microbatches
            for a in mb.assignments
        ]
        if len(seen) != len(set(seen)) or set(seen) != self.expected:
            failures.append(
                f"schedule covers {len(set(seen))} distinct of "
                f"{len(self.expected)} samples with {len(seen)} placements"
            )
        violations = find_violations(schedule.microbatches, self.NUM_STAGES)
        if violations:
            failures.append(f"{len(violations)} bubble-lemma violations")
        tokens = sum(mb.real_tokens for mb in schedule.microbatches)
        sim_tok_s = tokens / sim.makespan
        stats = schedule.stats
        counts = {
            "packing_tasks": stats["packing_tasks"],
            "milp_selected": stats["milp_selected"],
            "merges": stats["merges"],
            "noops": stats["noops_inserted"],
            "microbatches": stats["microbatches"],
            "milp_solves": solves,
            "milp_limit_hits": limit_hits,
        }
        layout = [
            tuple((a.adapter_id, a.sample.index) for a in mb.assignments)
            for mb in schedule.microbatches
        ]
        return RoundResult(
            busy_s=plan_s,
            latencies_ms=[plan_s * 1e3],
            cpu_ms=[plan_cpu_s * 1e3],
            tokens=tokens,
            sim_tok_s=sim_tok_s,
            counts=counts,
            digest=_digest((layout, sim.makespan.hex())),
            figures={
                "plan_s": (plan_s, "s", "host", 1),
                "sim_tok_s": (sim_tok_s, "tok/sim_s", "sim", 1),
                "simulate_s": (simulate_s, "s", "host", 1),
                "bubble_frac": (sim.bubble_ratio, "frac", "sim", 1),
            },
            failures=failures,
            attempted=1,
        )

    def final_checks(self, rounds: list[RoundResult]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# numeric-train: fused multi-LoRA forward/backward on the numeric model
# ---------------------------------------------------------------------------


class NumericTrain:
    """Eight adapters with ranks 2-16 on the ``TINY`` model, 16 samples of
    8-47 tokens each, planned greedily into 64-token microbatches and trained
    through ``MultiLoRAEngine``."""

    name = "numeric-train"
    RANKS = (2, 4, 8, 16, 4, 8, 2, 16)
    SAMPLES = 16
    GBS = 4
    MIN_LEN, MAX_LEN = 8, 48
    CAPACITY = 64
    NUM_STAGES = 2
    MODEL_SEED = 42
    #: Microbatches a run must time so that p99 has ten samples beyond it.
    MIN_SAMPLES = 1000
    #: Adapter whose losses are replayed by sequential training.
    REFERENCE_ADAPTER = 0

    def __init__(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng(seed)
        self.jobs = []
        for a, rank in enumerate(self.RANKS):
            streams = [
                rng.integers(0, TINY.vocab_size, int(rng.integers(self.MIN_LEN, self.MAX_LEN)))
                for _ in range(self.SAMPLES)
            ]
            lora = LoRAConfig(rank=rank, alpha=1.0, dropout=0.0, adapter_id=a)
            self.jobs.append(NumericJob(a, lora, streams, self.GBS))
        self.sched_jobs = [
            AdapterJob(
                job.adapter_id,
                FinetuneDataset(
                    job.adapter_id,
                    [Sample(job.adapter_id, i, len(t)) for i, t in enumerate(job.token_streams)],
                ),
                job.global_batch_size,
            )
            for job in self.jobs
        ]
        self.config = SchedulerConfig(
            capacity=self.CAPACITY, padding_multiple=1, num_stages=self.NUM_STAGES,
            use_milp=False,
        )
        self.samples_timed = 0

    def close(self) -> None:
        pass

    def round(self) -> RoundResult:
        schedule = MultiLoRAScheduler(self.sched_jobs, self.config).schedule()
        engine = MultiLoRAEngine(
            TinyLoRATransformer(TINY, np.random.default_rng(self.MODEL_SEED)), self.jobs
        )
        latencies, cpu_ms = [], []
        tokens = 0
        for mb in schedule.microbatches:
            if mb.is_noop:
                continue
            start, cpu = time.perf_counter(), time.process_time()
            engine.submit(mb)
            latencies.append((time.perf_counter() - start) * 1e3)
            cpu_ms.append((time.process_time() - cpu) * 1e3)
            tokens += mb.real_tokens
        busy = sum(latencies) / 1e3
        self.samples_timed += len(latencies)

        cost = LayerCostModel(TINY, H100, strategy="fused_multi")
        sim = pipeline.simulate_stream(
            [to_pipeline_microbatch(mb, cost, self.NUM_STAGES) for mb in schedule.microbatches],
            self.NUM_STAGES,
        )
        failures = []
        for job in self.jobs:
            steps = engine.steps_done(job.adapter_id)
            if steps != job.num_global_batches():
                failures.append(
                    f"adapter {job.adapter_id} took {steps} of "
                    f"{job.num_global_batches()} steps"
                )
            if not all(math.isfinite(x) for x in engine.losses(job.adapter_id)):
                failures.append(f"adapter {job.adapter_id} has a non-finite loss")
        return RoundResult(
            busy_s=busy,
            latencies_ms=latencies,
            cpu_ms=cpu_ms,
            tokens=tokens,
            sim_tok_s=tokens / sim.makespan,
            counts={
                "microbatches": float(engine.microbatches_executed),
                "steps": float(sum(engine.steps_done(j.adapter_id) for j in self.jobs)),
                "noops": schedule.stats["noops_inserted"],
            },
            digest=self._loss_digest(engine),
            figures={
                "numeric_tok_s": (tokens / busy, "tok/s", "host", len(latencies)),
                "sim_tok_s": (tokens / sim.makespan, "tok/sim_s", "sim", 1),
            },
            failures=failures,
            attempted=len(latencies),
        )

    def done(self, rounds: int) -> bool:
        return self.samples_timed >= self.MIN_SAMPLES

    def final_checks(self, rounds: list[RoundResult]) -> list[str]:
        """Train through ``MultiLoRAEngine.run`` once more: its losses must
        equal the timed rounds', and one adapter's must match training it
        alone."""
        job = self.jobs[self.REFERENCE_ADAPTER]
        model = TinyLoRATransformer(TINY, np.random.default_rng(self.MODEL_SEED))
        solo = train_job_sequentially(model, job).losses[job.adapter_id]
        engine = MultiLoRAEngine(
            TinyLoRATransformer(TINY, np.random.default_rng(self.MODEL_SEED)), self.jobs
        )
        engine.run(MultiLoRAScheduler(self.sched_jobs, self.config).schedule())
        failures = []
        if self._loss_digest(engine) != rounds[0].digest:
            failures.append("MultiLoRAEngine.run losses differ from the timed rounds'")
        joint = engine.losses(job.adapter_id)
        drift = max(abs(a - b) for a, b in zip(joint, solo))
        if len(joint) != len(solo) or drift > LOSSLESS_TOL:
            failures.append(
                f"adapter {job.adapter_id} joint losses differ from sequential "
                f"training by {drift:.3e} (tolerance {LOSSLESS_TOL:g})"
            )
        return failures

    def _loss_digest(self, engine: MultiLoRAEngine) -> str:
        return _digest({
            job.adapter_id: [x.hex() for x in engine.losses(job.adapter_id)]
            for job in self.jobs
        })


# ---------------------------------------------------------------------------
# gateway-open: an open loop of submissions through the live gateway
# ---------------------------------------------------------------------------

#: Tenants and the dataset each draws its sample lengths from.
TENANTS = (
    ("acme", "xsum"),
    ("globex", "cnn_dailymail"),
    ("initech", "wikisum"),
    ("umbrella", "mixed"),
    ("hooli", "xsum"),
    ("stark", "cnn_dailymail"),
)


async def open_loop(items, rate: float, call):
    """Await ``call(item)`` for each item at its due time, ``rate`` per
    second from the start, whether or not earlier calls have returned on
    time (an open loop).

    Returns ``(latencies_ms, busy_s, lateness_ms, cpu_ms)`` per item:
    latency from the due time to the call's return, so a stall also
    charges the calls queued behind it; the seconds the call itself took;
    how late the generator began the call; and the process CPU time the
    call took.
    """
    interval = 1.0 / rate
    latencies, busy, lateness, cpu_ms = [], [], [], []
    start = time.perf_counter()
    for i, item in enumerate(items):
        due = start + i * interval
        now = time.perf_counter()
        if now < due:
            await asyncio.sleep(due - now)
        began, cpu = time.perf_counter(), time.process_time()
        await call(item)
        ended = time.perf_counter()
        cpu_ms.append((time.process_time() - cpu) * 1e3)
        latencies.append((ended - due) * 1e3)
        busy.append(ended - began)
        lateness.append((began - due) * 1e3)
    return latencies, busy, lateness, cpu_ms


@dataclass(frozen=True)
class Submission:
    job: AdapterJob
    tenant: str
    arrival: float  # virtual seconds
    priority: int
    deadline: float | None


class GatewayOpen:
    """An open loop at a fixed wall rate into ``ServeConfig.build_gateway``
    with a ``ManualClock`` that moves a fixed virtual step per submission,
    so every decision the fleet makes is a function of the seed alone."""

    name = "gateway-open"
    #: Offered wall-clock rate, submissions per second.
    WALL_RATE = 100.0
    #: Virtual arrival rate, jobs per virtual second (evenly spaced, like
    #: the wall schedule; tenants, sizes, priorities and deadlines are
    #: what the seed draws).
    VIRTUAL_RATE = 12.0
    MIN_SUBMISSIONS = 1000
    PRIORITY_SHARE = 0.2
    DEADLINE_SHARE = 0.3
    CONFIG = ServeConfig(
        num_replicas=3,
        routing="cost_aware",
        ordering="srpt",
        preemptive=True,
        aging_rate=0.1,
        slots=4,
        deadline_gate=True,
        queueing_aware=True,
        window_batches=1,
        migration_time_threshold=2.0,
        autoscale_budget=24.0,
        calibrated=True,
        packing="knapsack",
        gateway_rate=5.0,
        gateway_burst=6.0,
        gateway_queue_bound=24,
        gateway_fairness=0.5,
    )
    SCHEDULER = SchedulerConfig(capacity=8192, num_stages=2, use_milp=False)

    def __init__(self, seed: int, seconds: float) -> None:
        count = max(self.MIN_SUBMISSIONS, round(self.WALL_RATE * seconds))
        rng = np.random.default_rng(seed)
        self.submissions = []
        for a in range(count):
            tenant, dataset = TENANTS[int(rng.integers(len(TENANTS)))]
            gbs = int(rng.choice([2, 4]))
            batches = int(min(4, rng.geometric(0.5)))
            job = AdapterJob(a, synthetic_dataset(a, dataset, gbs * batches, seed=seed), gbs)
            arrival = (a + 1) / self.VIRTUAL_RATE
            priority = int(rng.random() < self.PRIORITY_SHARE)
            deadline = None
            if rng.random() < self.DEADLINE_SHARE:
                tokens = sum(s.length for s in job.dataset.samples)
                deadline = arrival + max(0.5, tokens / 20000.0 * float(rng.uniform(2, 6)))
            self.submissions.append(Submission(job, tenant, arrival, priority, deadline))
        self.tokens = [sum(s.length for s in sub.job.dataset.samples) for sub in self.submissions]

    def close(self) -> None:
        pass

    def done(self, rounds: int) -> bool:
        return rounds >= 1

    async def _drive(self):
        clock = ManualClock()
        gateway = self.CONFIG.build_gateway(
            LayerCostModel(LLAMA3_8B, H100, strategy="fused_multi"), self.SCHEDULER, clock=clock
        )
        outcomes = []

        async def submit(sub: Submission) -> None:
            clock.advance(sub.arrival - clock.now())
            try:
                outcomes.append(await gateway.submit(
                    sub.job, tenant=sub.tenant, priority=sub.priority, deadline=sub.deadline
                ))
            except Exception:  # noqa: BLE001 - a failed request, counted
                traceback.print_exc()
                outcomes.append(None)

        timing = await open_loop(self.submissions, self.WALL_RATE, submit)
        began = time.perf_counter()
        result = await gateway.drain()
        drain_s = time.perf_counter() - began
        released = [job.adapter_id for job in gateway.recorded_trace()]
        return result, released, outcomes, timing, drain_s

    def round(self) -> RoundResult:
        result, released, outcomes, timing, drain_s = asyncio.run(self._drive())
        latencies, busy, lateness, cpu_ms = timing
        refused = sum(isinstance(o, GatewayOverload) for o in outcomes)
        failed = outcomes.count(None)
        stats, fleet = result.stats, result.fleet
        failures = []
        if stats.submitted != stats.accepted + stats.shed_total():
            failures.append("ledger: submitted != accepted + shed")
        if stats.accepted != stats.released + stats.cancelled:
            failures.append("ledger: accepted != released + cancelled")
        if refused != stats.shed_total():
            failures.append(f"callers saw {refused} refusals, ledger {stats.shed_total()}")
        lost = [
            aid for aid in released
            if aid not in result.records
            or (result.records[aid].finish_time is None
                and result.records[aid].rejected_time is None)
        ]
        if lost or len(released) != stats.released:
            failures.append(f"{len(lost)} admitted jobs lost")
            failed += len(lost)

        records = sorted(result.records.values(), key=lambda r: r.adapter_id)
        jcts = [r.completion_time for r in records if r.completion_time is not None]
        missed = sum(
            1 for r in records
            if r.finish_time is None or r.deadline_missed is True
        )
        slo_miss = (stats.shed_total() + missed) / stats.submitted
        busy_replica_s = sum(r.utilization * r.makespan for r in fleet.replicas)
        sim_tok_s = fleet.total_tokens / busy_replica_s
        events = dict(fleet.events_processed)
        counts = {f"events.{k}": float(v) for k, v in sorted(events.items())}
        counts.update({
            "accepted": float(stats.accepted),
            "replans": float(fleet.replans),
            "preemptions": float(fleet.preemptions),
            "migrations": float(fleet.migrations),
            "joins": float(fleet.joins),
            "retires": float(fleet.retires),
            "rejected": float(fleet.rejected),
        })
        counts.update({f"shed.{k}": float(stats.sheds.get(k, 0)) for k in SHED_REASONS})
        digest = _digest([
            (
                r.adapter_id,
                r.arrival_time.hex(),
                None if r.admit_time is None else r.admit_time.hex(),
                None if r.finish_time is None else r.finish_time.hex(),
                None if r.rejected_time is None else r.rejected_time.hex(),
                r.replica, r.migrations, r.preemptions,
            )
            for r in records
        ])
        busy_s = sum(busy)
        return RoundResult(
            busy_s=busy_s,
            wall_s=busy_s + drain_s,
            latencies_ms=latencies,
            cpu_ms=cpu_ms,
            tokens=sum(self.tokens),
            sim_tok_s=sim_tok_s,
            counts=counts,
            digest=digest,
            figures={
                "submit_p50_ms": (percentile(latencies, 50), "ms", "host", len(latencies)),
                "submit_p90_ms": (percentile(latencies, 90), "ms", "host", len(latencies)),
                "submit_p99_ms": (percentile(latencies, 99), "ms", "host", len(latencies)),
                "max_rate_sub_s": (len(busy) / busy_s, "1/s", "host", len(busy)),
                "jct_p50_s": (percentile(jcts, 50), "sim_s", "sim", len(jcts)),
                "jct_p99_s": (percentile(jcts, 99), "sim_s", "sim", len(jcts)),
                "slo_miss_frac": (slo_miss, "frac", "sim", stats.submitted),
                "gen_late_p99_ms": (percentile(lateness, 99), "ms", "host", len(lateness)),
                "drain_s": (drain_s, "s", "host", 1),
                "events": (float(sum(events.values())), "count", "sim", 1),
                "pack_efficiency": (fleet.pack_efficiency(), "frac", "sim", 1),
                "padding_waste": (fleet.padding_waste(), "frac", "sim", 1),
                "queue_wait_p50_s": (
                    percentile([r.queueing_delay for r in records if r.queueing_delay is not None], 50),
                    "sim_s", "sim", 1,
                ),
            },
            failures=failures,
            attempted=len(latencies),
            failed=failed,
        )

    def final_checks(self, rounds: list[RoundResult]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (OfflineHet, NumericTrain, GatewayOpen)}
