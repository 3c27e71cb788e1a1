"""The repository's benchmark: one workload per process, fed by a seed.

Run one workload::

    python3 perfbench/run.py --workload gateway-open --seed 1 --seconds 30 --trace 0

or all three in turn, each in its own process, with a combined table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no timing shims;
``--trace 1`` runs the workload untraced and then traced on identical
inputs and reports the per-layer metrics.  The last line of standard
output is one JSON object; everything above it is the human report.
The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from stats import median, pct, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("offline-het", "numeric-train", "gateway-open")
#: Cold set-ups per run (this process plus fresh interpreters); the
#: reported ``setup_s`` is their median.
SETUPS = 5
#: A subprocess that has not finished by then has hung.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics every workload reports on its result line; each
#: has a regression bound in BENCHMARK.json.  The per-operation timings
#: are process CPU time: on a shared host the wall clock also counts the
#: time other tenants hold the cores, which moves a run's wall-clock
#: percentiles by more than any bound allows.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_p90_ms": "ms",
    "sim_tok_s": "tok/sim_s",
}
#: Reported beside them but not bounded: over five to ten seeds on a
#: shared 2-vCPU host their quartile spread reached 0.2-0.5 of the median
#: (the host's slow phases, which last minutes and move even CPU time,
#: and for the open loop the queue they build), too wide for any bound.
REPORTED = {
    "cpu_p50_ms": "ms", "host_p50_ms": "ms", "host_p90_ms": "ms", "host_p99_ms": "ms",
    "host_tok_s": "tok/s",
}
KIND = {
    "setup_s": "host", "peak_rss_mb": "host", "cpu_p50_ms": "host",
    "cpu_p90_ms": "host", "host_p50_ms": "host", "host_p90_ms": "host",
    "host_p99_ms": "host", "host_tok_s": "host", "sim_tok_s": "sim",
}
#: The figures ``--workload all`` tabulates: (workload, figure); the
#: set-up and memory figures come from every workload.
SUMMARY = (
    ("offline-het", "plan_s"), ("offline-het", "sim_tok_s"),
    ("offline-het", "milp_limit_hits"),
    ("numeric-train", "numeric_tok_s"),
    ("gateway-open", "submit_p50_ms"), ("gateway-open", "submit_p99_ms"),
    ("gateway-open", "max_rate_sub_s"), ("gateway-open", "jct_p50_s"),
    ("gateway-open", "jct_p99_s"), ("gateway-open", "slo_miss_frac"),
)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), *extra,
    ]
    return subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def cold_setup_s(args) -> float:
    """Set-up seconds of one fresh interpreter (imports, inputs, objects)."""
    done = _child(args, "--setup-only")
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float):
    """Rounds until ``seconds`` have passed and the workload has enough."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = workload.round()
        if result.wall_s is None:
            result.wall_s = time.perf_counter() - began
        rounds.append(result)
        if time.perf_counter() - start >= seconds and workload.done(len(rounds)):
            return rounds


def differences(rounds, reference) -> list[str]:
    """Exact counts or digests of ``rounds`` that differ from ``reference``."""
    out = []
    for i, r in enumerate(rounds):
        for key in sorted(set(r.counts) | set(reference.counts)):
            a, b = reference.counts.get(key), r.counts.get(key)
            if a != b:
                out.append(f"round {i}: {key} {a} -> {b}")
        if r.digest != reference.digest:
            out.append(f"round {i}: digest {reference.digest} -> {r.digest}")
    return out


def determinism(workload_name: str, rounds, reference) -> tuple[list[str], list[str]]:
    """``(report lines, failures)``.  A difference is a failure unless a
    MILP solve stopped at its time limit in a compared round: that makes
    the packing depend on host speed (a known defect), so it is flagged."""
    diffs = differences(rounds, reference)
    if not diffs:
        return ["identical across rounds: yes"], []
    hits = [r.counts.get("milp_limit_hits", 0) for r in [reference, *rounds]]
    lines = ["identical across rounds: NO", *("  " + d for d in diffs)]
    if any(hits):
        lines.append(
            f"  flagged: MILP solves stopped at the 2.0 s time limit "
            f"(milp_limit_hits per round {hits}); the packing depends on host speed"
        )
        return lines, []
    return lines, [f"{workload_name}: outputs differ between rounds"]


def previous_run(path: Path, reference) -> list[str]:
    """Compare with the result an earlier run at this seed left behind."""
    if not path.exists():
        return ["previous run at this seed: none"]
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return ["previous run at this seed: unreadable"]
    diffs = [
        f"{k} {old['counts'].get(k)} -> {reference.counts.get(k)}"
        for k in sorted(set(old["counts"]) | set(reference.counts))
        if old["counts"].get(k) != reference.counts.get(k)
    ]
    if old["digest"] != reference.digest:
        diffs.append(f"digest {old['digest']} -> {reference.digest}")
    if not diffs:
        return ["previous run at this seed: same counts and digest"]
    return ["previous run at this seed: DIFFERENT", *("  " + d for d in diffs)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(rounds, setups) -> dict:
    latencies = [x for r in rounds for x in r.latencies_ms]
    cpu = [x for r in rounds for x in r.cpu_ms]
    return {
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_p50_ms": percentile(cpu, 50),
        "cpu_p90_ms": percentile(cpu, 90),
        "host_p50_ms": percentile(latencies, 50),
        "host_p90_ms": percentile(latencies, 90),
        "host_p99_ms": percentile(latencies, 99),
        "host_tok_s": sum(r.tokens for r in rounds) / sum(r.busy_s for r in rounds),
        "sim_tok_s": rounds[0].sim_tok_s,
    }


def workload_figures(rounds) -> dict:
    """Workload-specific figures: host ones as the median over rounds,
    simulated ones from the first round (they repeat exactly)."""
    out = {}
    for name, (value, unit, kind, samples) in rounds[0].figures.items():
        if kind == "host":
            value = median([r.figures[name][0] for r in rounds])
            samples = sum(r.figures[name][3] for r in rounds)
        out[name] = (value, unit, kind, samples)
    if "milp_solves" in rounds[0].counts:
        # Host-dependent: a solve that stops at its time limit on a slow
        # host may finish in time on a fast one.
        out["milp_limit_hits"] = (
            sum(r.counts["milp_limit_hits"] for r in rounds), "count", "host",
            sum(r.counts["milp_solves"] for r in rounds),
        )
    return out


def run_one(args) -> int:
    import workloads
    from layers import TARGETS, per_layer
    from tracing import Tracer

    phase = args.seconds / 2 if args.trace else args.seconds
    workload = workloads.WORKLOADS[args.workload](args.seed, phase)
    own_setup = time.perf_counter() - PROCESS_START
    if args.setup_only:
        workload.close()
        return _emit({"setup_s": own_setup})

    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        "host: " + ", ".join(f"{k}={v}" for k, v in host_fingerprint().items()),
    ]
    failures: list[str] = []
    try:
        if args.trace:
            untraced = measure(workload, phase)
            tracer = Tracer().install(TARGETS)
            try:
                traced = measure(workload, phase)
            finally:
                tracer.remove()
            lines.append(f"rounds: {len(untraced)} untraced, {len(traced)} traced")
            report, failed_checks = determinism(args.workload, traced, untraced[0])
            lines += ["traced vs untraced: " + report[0], *report[1:]]
            failures += failed_checks
            rounds = traced
            measured = untraced + traced
            covered = sum(s.duration for s in tracer.spans if s.parent < 0)
            walls = {
                "traced": median([r.wall_s for r in traced]),
                "untraced": median([r.wall_s for r in untraced]),
                "covered": covered / len(traced),
            }
            outputs = dict(traced[0].counts)
            outputs.update({k: v[0] for k, v in traced[0].figures.items()})
            metrics = per_layer(tracer, len(traced), outputs, walls)
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed})
            lines.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            lines.append("per-layer (per traced round; self time and unattributed share):")
            totals = tracer.layer_totals()
            for name, summary in sorted(totals.items(), key=lambda kv: -kv[1].total):
                lines.append(
                    f"  {name:28s} total {summary.total / len(traced):10.4f} s  "
                    f"self {summary.self_time / len(traced):10.4f} s  "
                    f"calls {summary.calls / len(traced):10.1f}  "
                    f"unattributed {summary.unattributed:6.1%}"
                )
            lines.append("per-layer metrics:")
            lines += [f"  {m:38s} {_fmt(v):>12s} {u}" for m, (v, u) in metrics.items()]
        else:
            setups = [own_setup] + [cold_setup_s(args) for _ in range(SETUPS - 1)]
            rounds = measure(workload, args.seconds)
            report, failed_checks = determinism(args.workload, rounds[1:], rounds[0])
            lines.append(f"rounds: {len(rounds)}")
            lines += ["determinism: " + report[0], *report[1:]]
            failures += failed_checks
            measured = rounds
            values = end_to_end(rounds, setups)
            metrics = {m: (values[m], END_TO_END[m]) for m in END_TO_END}
            latencies = [x for r in rounds for x in r.latencies_ms]
            cpu = [x for r in rounds for x in r.cpu_ms]
            counts = {
                "setup_s": f"n={len(setups)} cold set-ups",
                "peak_rss_mb": "this process",
                **{
                    f"{kind}_p{q}_ms": f"n={len(samples)}, {pct(samples, q).beyond} beyond"
                    for kind, samples in (("host", latencies), ("cpu", cpu))
                    for q in (50, 90, 99)
                },
                "host_tok_s": f"{sum(r.tokens for r in rounds)} tok over {len(rounds)} rounds",
                "sim_tok_s": "round 0",
            }
            lines.append("end-to-end (host: wall clock on this host; sim: virtual or modeled time):")
            lines += [
                f"  {m:14s} {_fmt(values[m]):>12s} {u:10s} {KIND[m]:4s}  {counts[m]}"
                + ("" if m in END_TO_END else "  (reported, not bounded)")
                for m, u in {**END_TO_END, **REPORTED}.items()
            ]
            figures = workload_figures(rounds)
            lines.append("workload figures (host: median over rounds; sim: round 0):")
            lines += [
                f"  {m:18s} {_fmt(v):>12s} {u:10s} {k:4s}  n={n}"
                for m, (v, u, k, n) in figures.items()
            ]
            OUT.mkdir(exist_ok=True)
            record = OUT / f"{args.workload}-seed{args.seed}-s{args.seconds:g}.json"
            lines += previous_run(record, rounds[0])
            record.write_text(json.dumps({
                "counts": rounds[0].counts,
                "digest": rounds[0].digest,
                "figures": {
                    **{m: (values[m], u, KIND[m], None)
                       for m, u in {**END_TO_END, **REPORTED}.items()},
                    **figures,
                },
            }))
        lines.append("exact counts (first round): " + ", ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(rounds[0].counts.items())
        ))
        lines.append(f"digest (first round): {rounds[0].digest}")
        for r in measured:
            failures += r.failures
        failures += workload.final_checks(rounds)
    finally:
        workload.close()

    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    correct = not failures and failed == 0
    lines.append("checks: " + ("ok" if correct else "FAILED"))
    lines += [f"  {f}" for f in failures]
    return _emit({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }, lines)


def run_all(args) -> int:
    """Each workload in its own process, then the combined table."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        child = argparse.Namespace(**{**vars(args), "workload": name})
        done = _child(child, "--trace", str(args.trace))
        print(done.stdout.rstrip())
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        status |= not results[name]["correct"]
    if not args.trace:
        print(summary_table(args))
    summary = {n: {"correct": r["correct"], "attempted": r["attempted"],
                   "failed": r["failed"]} for n, r in results.items()}
    print(json.dumps(summary))
    return status


def summary_table(args) -> str:
    """The workloads' own end-to-end figures side by side."""
    figures = {}
    for name in WORKLOAD_NAMES:
        path = OUT / f"{name}-seed{args.seed}-s{args.seconds:g}.json"
        if path.exists():
            figures[name] = json.loads(path.read_text())["figures"]
    rows = [(w, m) for w in figures for m in ("setup_s", "peak_rss_mb")]
    rows += [(w, m) for w, m in SUMMARY if w in figures]
    lines = [f"{'workload':14s} {'metric':16s} {'value':>12s} {'unit':10s} kind  samples"]
    for workload, metric in rows:
        value, unit, kind, samples = figures[workload][metric]
        lines.append(
            f"{workload:14s} {metric:16s} {_fmt(value):>12s} {unit:10s} {kind:4s}  "
            f"{'-' if samples is None else samples}"
        )
    return "\n".join(lines)


def _emit(payload: dict, lines: list[str] = ()) -> int:
    """Write the report and the result line to the real standard output."""
    sys.stdout.flush()
    with os.fdopen(_STDOUT_FD, "w") as out:
        for line in lines:
            out.write(line + "\n")
        out.write(json.dumps(payload) + "\n")
    return 0


_STDOUT_FD = 1


def main(argv=None) -> int:
    global _STDOUT_FD
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    # Native solvers may print to file descriptor 1; keep it off the
    # result stream by sending it to stderr until the report is written.
    _STDOUT_FD = os.dup(1)
    os.dup2(2, 1)
    try:
        return run_one(args)
    except Exception:  # noqa: BLE001 - the run failed; report and exit non-zero
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
