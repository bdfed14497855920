"""EcoFusion benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload vehicle --seed 1 --seconds 20 --trace 0

Workloads are ``sweep``, ``vehicle`` and ``fleet`` (see
``bench_workloads.py``).  A run sets up (import, system load and an
untimed warm-up that compiles every engine program the timed passes
replay), repeats timed passes over the seed's inputs for about
``--seconds``, and checks every drive of every pass bit for bit against
the eager reference.  Throughput and latency percentiles are each
taken per pass and reported as their median over passes, so one pass
that met a slow spell of a shared host does not move them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds a
traced pass that times each pipeline layer from outside
(``bench_layers.py``) and reports the per-layer metrics, prints a
self-time table and writes the spans to ``.perfbench/spans/``.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  If the
trained system is missing from ``.artifacts/``, it is trained first in a
child process, outside every measurement.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

WORKLOADS = ("sweep", "vehicle", "fleet")

# (name, unit) of the metrics each mode reports, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("frames_per_s", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {"calls": "count", "rows": "count", "self_s": "s"}


def per_layer_names() -> list[tuple[str, str]]:
    from bench_layers import BATCHED, LAYERS

    names = []
    for layer in LAYERS:
        if layer == "shard":
            names.append(("sweep.shard_s", "s"))
            continue
        for stat in ("calls", "rows", "self_s"):
            if stat != "rows" or layer in BATCHED:
                names.append((f"{layer}.{stat}", PER_LAYER_UNITS[stat]))
    return names + [
        ("latency.p90_ms", "ms"),
        ("engine.compiles", "count"),
        ("engine.compiles_timed", "count"),
        ("engine.cold_penalty_s", "s"),
        ("engine.replay_s", "s"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.hit_ratio", "ratio"),
        ("serving.batches", "count"),
        ("serving.occupancy_mean", "frames"),
        ("serving.frame_p50_ms", "ms"),
        ("serving.frame_p99_ms", "ms"),
        ("serving.frame_in_period_pct", "%"),
        ("serving.rejected", "count"),
        ("serving.retried", "count"),
        ("serving.quarantined", "count"),
        ("fleet.poll_late_max_ms", "ms"),
        ("telemetry.tracing_overhead_pct", "%"),
        ("trace.wall_s", "s"),
        ("trace.covered_pct", "%"),
    ]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", action="store_true",
                        help="only train and store the system, then exit")
    args = parser.parse_args(argv)
    if not args.build and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def ensure_trained() -> None:
    """Train the system in a child process when its artifact is missing."""
    from bench_workloads import QUICK_SPEC

    from repro.evaluation.cache import DEFAULT_ARTIFACT_ROOT

    if (DEFAULT_ARTIFACT_ROOT / QUICK_SPEC.cache_key() / "meta.json").exists():
        return
    print("training the benchmark system (untimed, once per checkout)...",
          flush=True)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--build"],
                   check=True, timeout=870)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(result, reference: dict[str, dict]) -> list[str]:
    """Keys of drives that failed: errors plus fingerprint mismatches."""
    from bench_checks import mismatches

    return sorted(set(result.errors) | set(mismatches(result.fingerprints,
                                                      reference)))


def traced_pass(system, inputs):
    """The traced pass: layer spans, kernel replay time, serving metrics."""
    import bench_workloads as wl
    from bench_layers import SpanRecorder, instrument

    from repro.telemetry import Telemetry, kernel_profiling

    recorder = SpanRecorder()
    telemetry = Telemetry.create(tracing=False, metrics=True)
    runner, service = wl.open_resources(system, inputs.workload, telemetry)
    with kernel_profiling() as profile, instrument(recorder):
        try:
            start = perf_counter()
            result = wl.run_pass(system, inputs, runner, service)
            wall = perf_counter() - start
        finally:
            wl.close_resources(service)
    return result, wall, recorder, profile, telemetry


def per_layer_values(table: dict, counts) -> dict[str, float]:
    """Layer calls/rows/self time and cache counts; every other metric 0."""
    values = {name: 0.0 for name, _ in per_layer_names()}
    for layer, entry in table.items():
        if layer == "shard":
            values["sweep.shard_s"] = entry["self_s"]
        else:
            for stat, value in entry.items():
                if f"{layer}.{stat}" in values:
                    values[f"{layer}.{stat}"] = value
    hits, misses = counts["cache.hits"], counts["cache.misses"]
    values.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    })
    return values


def serving_metrics(telemetry) -> dict[str, float]:
    from repro.telemetry import OCCUPANCY_BUCKETS, SERVING_LATENCY_BUCKETS_MS

    metrics = telemetry.metrics
    batches = metrics.counter("serving.batches", mode="batched").value
    occupancy = metrics.histogram("serving.batch.occupancy",
                                  buckets=OCCUPANCY_BUCKETS, mode="batched")
    latency = metrics.histogram("serving.frame.latency_ms",
                                buckets=SERVING_LATENCY_BUCKETS_MS,
                                mode="batched")
    out = {"serving.batches": batches}
    if latency.count:
        period = 1000.0 / 4.0  # the 4 Hz fusion clock
        within = sum(n for edge, n in zip(latency.edges, latency.counts)
                     if edge <= period)
        out.update({
            "serving.occupancy_mean": occupancy.sum / occupancy.count,
            "serving.frame_p50_ms": latency.quantile(0.50),
            "serving.frame_p99_ms": latency.quantile(0.99),
            "serving.frame_in_period_pct": 100.0 * within / latency.count,
        })
    return out


def print_layer_table(table: dict, wall: float, busy: float, profile) -> None:
    from bench_layers import LAYERS

    print(f"  traced wall {wall:.3f} s, layers cover {busy:.3f} s "
          f"({100.0 * busy / wall:.1f}%)")
    print(f"  {'layer':12s} {'calls':>8s} {'rows':>8s} {'self s':>9s} "
          f"{'share':>7s}")
    for layer in LAYERS:
        entry = table[layer]
        print(f"  {layer:12s} {entry['calls']:8d} {entry['rows']:8d} "
              f"{entry['self_s']:9.3f} {100.0 * entry['self_s'] / busy:6.1f}%")
    replay = profile.total_seconds
    print(f"  {'engine':12s} {profile.total_calls:8d} {'':8s} {replay:9.3f} "
          f"{100.0 * replay / busy:6.1f}%  (kernel replay, inside "
          "stems/gate/branches)")
    for op, seconds, calls in profile.top(5):
        print(f"    {op:22s} {calls:8d} {seconds:9.3f} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every ``finally`` that stops
    # the service or kills a child process still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import bench_workloads as wl
    from bench_checks import (
        TAIL_PERCENTILE,
        machine,
        percentile,
        reference,
        source_tree_digest,
    )

    from repro.nn.engine import engine_stats

    if args.build:
        wl.load_system()
        return 0
    import_s = perf_counter() - _STARTED
    ensure_trained()

    # -- set-up: load and warm-up
    start = perf_counter()
    system = wl.load_system()
    load_s = perf_counter() - start
    inputs = wl.make(args.workload, args.seed)
    compiles_before = engine_stats()["compiles"]
    start = perf_counter()
    wl.warm_up(system, inputs)
    warm_s = perf_counter() - start
    setup_s = import_s + load_s + warm_s
    compiles_setup = engine_stats()["compiles"] - compiles_before

    # -- timed passes over the same inputs for --seconds
    passes = wl.run_passes(system, inputs, args.seconds)
    compiles_timed = (engine_stats()["compiles"] - compiles_before
                      - compiles_setup)
    rss = peak_rss_mb()

    # -- output check against the eager reference (cached per source tree)
    tree = source_tree_digest(ROOT)
    ref = reference(inputs.drives, STATE_DIR / "reference" / tree
                    / f"{args.workload}-seed{args.seed}.json")
    failed = [f"pass {i} {key}" for i, timed in enumerate(passes)
              for key in check(timed, ref)]
    attempted = len(inputs.drives) * len(passes)
    errors = {f"pass {i} {key}": reason for i, timed in enumerate(passes)
              for key, reason in timed.errors.items()}

    facts = machine(system.spec.cache_key())
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    samples = sum(len(timed.latency_ms) for timed in passes)
    frames = sum(timed.frames for timed in passes)
    wall_s = sum(timed.wall_s for timed in passes)
    pass_wall_s = statistics.median(timed.wall_s for timed in passes)
    values = {
        "setup_s": setup_s,
        "frames_per_s": statistics.median(timed.frames / timed.wall_s
                                          for timed in passes),
        "latency_p50_ms": statistics.median(
            percentile(timed.latency_ms, 50.0) for timed in passes),
        "latency.p90_ms": statistics.median(
            percentile(timed.latency_ms, TAIL_PERCENTILE) for timed in passes),
        "peak_rss_mb": rss,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"of {len(inputs.drives)} drives, {frames} frames, "
          f"timed wall {wall_s:.3f} s (median pass {pass_wall_s:.3f} s)")
    print(f"  setup_s          {setup_s:10.3f} s   (import {import_s:.3f}, "
          f"load {load_s:.3f}, warm-up {warm_s:.3f})")
    print(f"  frames_per_s     {values['frames_per_s']:10.3f} frames/s "
          "(median of passes: " + ", ".join(
              f"{timed.frames / timed.wall_s:.1f}" for timed in passes) + ")")
    print(f"  latency_p50_ms   {values['latency_p50_ms']:10.3f} ms  "
          f"({passes[0].latency_unit}, {samples} samples)")
    print(f"  latency.p90_ms   {values['latency.p90_ms']:10.3f} ms  "
          "(median of passes: " + ", ".join(
              f"{percentile(timed.latency_ms, TAIL_PERCENTILE):.1f}"
              for timed in passes) + ")")
    print(f"  failed_pct       {100.0 * len(failed) / attempted:10.3f} %   "
          f"({len(failed)} of {attempted} drives)")
    print(f"  peak_rss_mb      {rss:10.3f} MB")
    poll_late_max_ms = max(timed.poll_late_max_ms for timed in passes)
    if args.workload == "fleet":
        print(f"  poll late max    {poll_late_max_ms:10.3f} ms")
    for key in failed[:10]:
        reason = errors.get(key, "output differs from reference")
        print(f"  FAILED {key}: {reason}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}

    if args.trace:
        from bench_layers import summarize

        # Cold-compile penalty: the warm-up again, now that all is compiled.
        # The sweep's warm-up is its timed pass, already measured warm.
        rerun_s = pass_wall_s
        if args.workload != "sweep":
            start = perf_counter()
            wl.warm_up(system, inputs)
            rerun_s = perf_counter() - start
        traced, wall, recorder, profile, telemetry = traced_pass(
            system, inputs
        )
        failed += [f"traced {key}" for key in check(traced, ref)]
        attempted += len(inputs.drives)
        table, busy = summarize(recorder.threads)
        layer_values = per_layer_values(table, recorder.counts)
        stats = {key: sum((timed.service_stats or {}).get(key, 0)
                          for timed in passes)
                 for key in ("rejected", "retried", "quarantined")}
        layer_values.update({
            "engine.compiles": compiles_setup,
            "engine.compiles_timed": compiles_timed,
            "engine.cold_penalty_s": warm_s - rerun_s,
            "engine.replay_s": profile.total_seconds,
            "serving.rejected": stats["rejected"],
            "serving.retried": stats["retried"],
            "serving.quarantined": stats["quarantined"],
            "latency.p90_ms": values["latency.p90_ms"],
            "fleet.poll_late_max_ms": poll_late_max_ms,
            "telemetry.tracing_overhead_pct":
                100.0 * (wall / pass_wall_s - 1.0),
            "trace.wall_s": wall,
            "trace.covered_pct": 100.0 * busy / wall,
        })
        if args.workload == "fleet":
            layer_values.update(serving_metrics(telemetry))
        print(f"self time by layer ({args.workload}, traced pass):")
        print_layer_table(table, wall, busy, profile)
        for name, unit in per_layer_names():
            if not name.endswith(".self_s") or name.startswith("sweep."):
                print(f"  {name:34s} {layer_values[name]:12.4f} {unit}")
        spans = (STATE_DIR / "spans"
                 / f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write_jsonl(spans, {"workload": args.workload,
                                     "seed": args.seed, "machine": facts,
                                     "traced_wall_s": wall})
        print(f"  spans written to {spans.relative_to(ROOT)}")
        metrics = {name: {"value": float(layer_values[name]), "unit": unit}
                   for name, unit in per_layer_names()}

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
