"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
from stats import Span  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_linear_interpolation(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertEqual(stats.percentile([3.0], 99), 3.0)

    def test_count_and_samples_beyond(self):
        values = [float(v) for v in range(1000)]
        p = stats.pct(values, 99)
        self.assertEqual(p.count, 1000)
        self.assertEqual(p.beyond, 10)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class SelfTimeTest(unittest.TestCase):
    #: root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 7]
    TREE = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(stats.self_times(self.TREE), [3.0, 3.0, 3.0, 1.0])

    def test_self_times_add_up_to_the_root(self):
        self.assertAlmostEqual(sum(stats.self_times(self.TREE)), self.TREE[0].duration)

    def test_child_is_clipped_to_parent(self):
        spans = [Span("p", 0.0, 2.0, -1), Span("c", 1.0, 3.0, 0)]
        self.assertEqual(stats.self_times(spans), [1.0, 2.0])

    def test_summary_unattributed_share(self):
        summary = stats.summarize(self.TREE)
        self.assertEqual(summary["root"].calls, 1)
        self.assertAlmostEqual(summary["root"].unattributed, 0.3)
        self.assertAlmostEqual(summary["b"].unattributed, 0.75)

    def test_reentry_into_a_layer_counts_once(self):
        from tracing import Tracer

        tracer = Tracer()
        tracer.spans = [
            Span("cost", 0.0, 4.0, -1),
            Span("cost", 1.0, 2.0, 0),
            Span("cost", 5.0, 6.0, -1),
        ]
        totals = tracer.layer_totals()["cost"]
        self.assertEqual(totals.calls, 2)
        self.assertAlmostEqual(totals.total, 5.0)
        self.assertAlmostEqual(totals.self_time, 5.0)


class TracerTest(unittest.TestCase):
    def test_wraps_and_restores_a_method(self):
        from tracing import Target, Tracer

        from repro.scheduler.scheduler import MultiLoRAScheduler

        original = MultiLoRAScheduler.__dict__["assemble"]
        tracer = Tracer().install(
            [Target("x", "repro.scheduler.scheduler", "MultiLoRAScheduler.assemble")]
        )
        self.assertIsNot(MultiLoRAScheduler.__dict__["assemble"], original)
        tracer.remove()
        self.assertIs(MultiLoRAScheduler.__dict__["assemble"], original)

    def test_rebinds_imported_names_and_nests_spans(self):
        from tracing import Target, Tracer

        import repro.scheduler.greedy as greedy
        import repro.scheduler.scheduler as scheduler

        original = greedy.greedy_pack
        tracer = Tracer().install([
            Target("greedy", "repro.scheduler.greedy", "greedy_pack"),
            Target("pack", "repro.scheduler.scheduler", "pack_global_batch"),
        ])
        try:
            self.assertIs(scheduler.greedy_pack, greedy.greedy_pack)
            self.assertIsNot(greedy.greedy_pack, original)
            scheduler.pack_global_batch([], 64, 64, False, 1.0)
        finally:
            tracer.remove()
        self.assertIs(scheduler.greedy_pack, original)
        names = [(s.name, s.parent) for s in tracer.spans]
        self.assertEqual(names, [("pack", -1), ("greedy", 0)])


class MilpProbeTest(unittest.TestCase):
    def test_counts_solves_stopped_at_the_time_limit(self):
        from tracing import MilpProbe

        from repro.data import synthetic_dataset
        from repro.scheduler.milp import milp_pack

        dataset = synthetic_dataset(0, "mixed", 24, seed=5)
        samples = [(s, 0) for s in dataset.samples]
        probe = MilpProbe().install()
        try:
            milp_pack(samples, 8192, 64, max_bins=12, timeout=1e-4)
            solves, hits = probe.take()
        finally:
            probe.remove()
        self.assertGreaterEqual(solves, 1)
        self.assertGreaterEqual(hits, 1)
        self.assertEqual(probe.take(), (0, 0))


class OpenLoopTest(unittest.TestCase):
    def test_slow_call_charges_the_queue_behind_it(self):
        from workloads import open_loop

        delay, rate, count = 0.03, 50.0, 6  # each call takes 1.5 intervals

        async def slow(_item):
            time.sleep(delay)  # blocks the loop like a slow submit would

        latencies, busy, lateness, cpu = asyncio.run(open_loop(range(count), rate, slow))
        interval_ms = 1e3 / rate
        for i in range(count):
            # The generator falls behind by (delay - interval) per call...
            expected_late = i * (delay * 1e3 - interval_ms)
            self.assertAlmostEqual(lateness[i], expected_late, delta=8.0)
            # ...and latency from the due time includes that wait.
            self.assertAlmostEqual(latencies[i], lateness[i] + busy[i] * 1e3, delta=0.5)
            self.assertGreaterEqual(busy[i], delay)
            # A call that waits is busy on the wall clock but uses no CPU.
            self.assertLess(cpu[i], delay * 1e3 / 2)

    def test_cpu_time_counts_work(self):
        from workloads import open_loop

        work = 0.02

        async def spin(_item):
            end = time.process_time() + work
            while time.process_time() < end:
                pass

        _, busy, _, cpu = asyncio.run(open_loop(range(3), 20.0, spin))
        for b, c in zip(busy, cpu):
            self.assertGreaterEqual(c, work * 1e3)
            self.assertLessEqual(c, b * 1e3 + 1.0)

    def test_fast_call_keeps_schedule(self):
        from workloads import open_loop

        async def fast(_item):
            return None

        latencies, _, lateness, _ = asyncio.run(open_loop(range(5), 100.0, fast))
        self.assertLess(max(lateness), 5.0)
        self.assertLess(max(latencies), 5.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_emits(self):
        from layers import PER_LAYER_UNITS
        from run import END_TO_END

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER_UNITS
        )
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
