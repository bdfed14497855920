"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone (:func:`make`),
compiles during set-up every engine program its passes replay
(:func:`warm_up`), then repeats timed passes over those inputs for about
``--seconds`` (:func:`run_passes`); every pass's per-drive output
fingerprints are checked against the eager reference.  Workloads call
only the public API of ``repro.simulation``, ``repro.serving`` and
``repro.evaluation``.

* ``sweep`` — the paper's offline (scenario x policy) sweep as a batch
  job with one caller: ``run_sweep`` over the 9 library scenarios x 5
  default policies at scale 1/16 under two seeds (1080 frames a pass),
  ``window=32``, ``compiled=True``, ``jobs=1``.  Each drive is rendered
  once and replayed by five policies, so it has the most branch-cache
  reuse and the largest windowed branch batches.
* ``vehicle`` — one ``ecofusion_attention`` vehicle, a closed loop with
  one client: one trip through six library scenarios (two faulted) at
  scale 0.25 (292 frames a pass), each one ``ClosedLoopRunner.run(
  window=1, compiled=True)`` with frames rendered lazily in the loop.  No
  batching and no cross-policy reuse, so per-frame dispatch and
  rendering show.
* ``fleet`` — a ``DriveService`` with the default ``ServingConfig``
  under a closed loop of 16 drives in flight (the default ``max_batch``):
  120 drives of 2-4 frames (scale 1/64) cycling through the 9 library
  and 3 chaos scenarios and the 5 policies, each with its own seed.
  Distinct seeds defeat frame dedup and branch-cache sharing, so
  cross-stream batching, admission and the scheduler do the work.

Repeated passes average the host's speed, which on a shared 2-core host
swings by half within a second, over the whole run; the passes replay
the same inputs, so the reference is computed once.  The fleet is a
closed loop because an open loop's latency amplified that noise: with
seeded arrivals at a quarter of the service's capacity, one seed's p90
drive latency ranged 170-450 ms over four runs.

The sharded sweep (``run_sweep(jobs=2)``) is not a workload: with
multi-threaded BLAS in every pool worker it took 28-51 s over 8 runs at
scale 0.25, against 6.3 s with one BLAS thread, so it cannot be steady
until the pool pins BLAS threads.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from bench_checks import fingerprint, trace_fingerprint

from repro import BranchOutputCache
from repro.evaluation import SystemSpec, get_or_build_system
from repro.serving import DriveRequest, DriveService, ServiceSaturated, ServingConfig
from repro.simulation import (
    CHAOS_SCENARIOS,
    DEFAULT_POLICIES,
    SCENARIOS,
    ClosedLoopRunner,
    DriveSource,
    PolicySpec,
    get_scenario,
    run_sweep,
    scaled,
)

# The trained system bench_runtime.py and examples/quickstart.py use.
QUICK_SPEC = SystemSpec(per_context=8, iterations=150, gate_iterations=200)
POLICY_SPECS = {spec.name: spec for spec in DEFAULT_POLICIES}

# Two seeds of short drives rather than one seed of long ones: the
# sweep's cost follows its scenes' content, and more independent scenes
# per run average it out at the same frame count.
SWEEP_SEEDS = 2
SWEEP_SCALE = 0.0625
SWEEP_WINDOW = 32
VEHICLE_POLICY = "ecofusion_attention"
VEHICLE_SCENARIOS = (
    "urban_fog_ingress", "night_rain", "blizzard_crossing",
    "sensor_stress_test", "rush_hour_junction", "degraded_limp_home",
)
VEHICLE_TRIPS = 1
VEHICLE_SCALE = 0.25
FLEET_DRIVES = 120
FLEET_SCALE = 0.015625
# Drives the closed loop keeps submitted: the default max_batch, so the
# scheduler can fill whole cross-stream batches.
FLEET_IN_FLIGHT = ServingConfig().max_batch
# The closed loop's main thread polls handles this often: rarely enough
# that it seldom takes the GIL from the scheduler thread, against
# drive latencies of hundreds of ms.
FLEET_POLL_S = 0.005

WORKLOADS = ("sweep", "vehicle", "fleet")


def load_system():
    return get_or_build_system(QUICK_SPEC)


def scenario_spec(name: str, scale: float):
    spec = get_scenario(name)
    return scaled(spec, scale) if scale != 1.0 else spec


@dataclass(frozen=True)
class Drive:
    """One drive of a workload: what it runs and the key it is checked by."""

    key: str
    scenario: str
    scale: float
    policy: str
    seed: int

    @property
    def stream(self) -> tuple:
        """The rendered frame stream: drives sharing it see the same frames."""
        return (self.scenario, self.scale, self.seed)


@dataclass
class Inputs:
    """Everything a workload's passes consume, generated from the seed."""

    workload: str
    drives: list[Drive]
    sweep_seeds: tuple[int, ...] = ()


@dataclass
class PassResult:
    """What one pass produced and how long it took."""

    wall_s: float
    frames: int
    # The workload's latency samples (ms): frame steps, drive walls or
    # drive latencies from scheduled arrival, depending on the workload.
    latency_ms: list[float]
    latency_unit: str
    fingerprints: dict[str, dict] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    poll_late_max_ms: float = 0.0
    service_stats: dict | None = None


def make(workload: str, seed: int) -> Inputs:
    """The workload's inputs; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, SWEEP_SEEDS))
        drives = [
            Drive(f"{seed}:{name}/{policy}", name, SWEEP_SCALE, policy, seed)
            for seed in seeds for name in SCENARIOS for policy in POLICY_SPECS
        ]
        return Inputs(workload, drives, sweep_seeds=seeds)
    if workload == "vehicle":
        names = VEHICLE_SCENARIOS * VEHICLE_TRIPS
        seeds = rng.integers(0, 2**31 - 1, len(names))
        drives = [
            Drive(f"{i:02d}:{name}/{VEHICLE_POLICY}", name, VEHICLE_SCALE,
                  VEHICLE_POLICY, int(s))
            for i, (name, s) in enumerate(zip(names, seeds))
        ]
        return Inputs(workload, drives)
    if workload == "fleet":
        names = list(SCENARIOS) + list(CHAOS_SCENARIOS)
        policies = list(POLICY_SPECS)
        seeds = rng.integers(0, 2**31 - 1, FLEET_DRIVES)
        drives = [
            Drive(f"{i:03d}:{names[i % len(names)]}/"
                  f"{policies[i % len(policies)]}",
                  names[i % len(names)], FLEET_SCALE,
                  policies[i % len(policies)], int(seeds[i]))
            for i in range(FLEET_DRIVES)
        ]
        return Inputs(workload, drives)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_passes(system, inputs: Inputs, seconds: float) -> list[PassResult]:
    """Timed passes over the same inputs for about ``seconds``.

    Another pass starts while the passes so far plus one more of their
    mean length fit in ``seconds``; there is always at least one.  Each
    pass gets a fresh runner or service (:func:`open_resources`), so no
    pass reuses the branch cache another filled; opening and closing it
    is not timed.
    """
    passes: list[PassResult] = []
    spent = 0.0
    while not passes or spent + spent / len(passes) <= seconds:
        runner, service = open_resources(system, inputs.workload)
        try:
            result = run_pass(system, inputs, runner, service)
        finally:
            close_resources(service)
        passes.append(result)
        spent += result.wall_s
    return passes


def run_pass(system, inputs: Inputs, runner=None,
             service: DriveService | None = None) -> PassResult:
    """One pass over ``inputs``; vehicle and fleet bring their runner/service."""
    if inputs.workload == "sweep":
        return _sweep_pass(system, inputs)
    if inputs.workload == "vehicle":
        return _vehicle_pass(system, inputs, runner)
    return _fleet_pass(inputs, service)


def _sweep_pass(system, inputs: Inputs) -> PassResult:
    start = perf_counter()
    results = {
        seed: run_sweep(
            system, scenarios=list(SCENARIOS), scale=SWEEP_SCALE, seed=seed,
            window=SWEEP_WINDOW, jobs=1, compiled=True, collect_hex=True,
        )
        for seed in inputs.sweep_seeds
    }
    wall = perf_counter() - start
    result = PassResult(wall, 0, [], "drive wall")
    for seed, per_scenario in results.items():
        for name, per_policy in per_scenario.items():
            for policy, entry in per_policy.items():
                result.frames += entry["num_frames"]
                result.latency_ms.append(entry["wall_seconds"] * 1000.0)
                result.fingerprints[f"{seed}:{name}/{policy}"] = fingerprint(
                    entry["records_hex"], entry["map_percent"],
                    entry["final_soc"],
                )
    return result


def _timed_frames(source: DriveSource, steps: list[float]):
    """Frames of ``source``, rendered lazily, recording each step's time.

    A step is the gap between handing frame t to the runner and the
    runner asking for frame t+1, so rendering is not part of it.
    """
    cursor = iter(source)
    handed = None
    while True:
        asked = perf_counter()
        if handed is not None:
            steps.append((asked - handed) * 1000.0)
        try:
            frame = next(cursor)
        except StopIteration:
            return
        handed = perf_counter()
        yield frame


def _vehicle_pass(system, inputs: Inputs, runner: ClosedLoopRunner) -> PassResult:
    steps: list[float] = []
    traces = {}
    start = perf_counter()
    for drive in inputs.drives:
        spec = scenario_spec(drive.scenario, drive.scale)
        source = DriveSource(spec, seed=drive.seed,
                             image_size=system.model.image_size)
        traces[drive.key] = runner.run(
            spec, POLICY_SPECS[drive.policy].build(system), seed=drive.seed,
            window=1, compiled=True, frames=_timed_frames(source, steps),
        )
    wall = perf_counter() - start
    result = PassResult(wall, len(steps), steps, "frame step")
    result.fingerprints = {k: trace_fingerprint(t) for k, t in traces.items()}
    return result


def _fleet_pass(inputs: Inputs, service: DriveService) -> PassResult:
    """Closed loop: keep ``FLEET_IN_FLIGHT`` drives submitted, poll
    ``done()`` every ~5 ms and submit the next drive as one finishes.

    A drive's latency runs from its submission to the poll that sees it
    done.  ``poll_late_max_ms`` is the longest the main thread overslept
    a poll, so a stalled load generator shows.
    """
    drives = inputs.drives
    handles: list = [None] * len(drives)
    submitted: dict[int, float] = {}
    finished: dict[int, float] = {}
    errors: dict[str, str] = {}
    late_max = 0.0
    pending: list[int] = []
    next_drive = 0
    start = perf_counter()
    while next_drive < len(drives) or pending:
        while next_drive < len(drives) and len(pending) < FLEET_IN_FLIGHT:
            drive = drives[next_drive]
            submitted[next_drive] = perf_counter() - start
            try:
                handles[next_drive] = service.submit(DriveRequest(
                    scenario=drive.scenario, policy=drive.policy,
                    seed=drive.seed, scale=drive.scale,
                ))
                pending.append(next_drive)
            except ServiceSaturated as error:
                errors[drive.key] = f"rejected: {error}"
            next_drive += 1
        asleep = perf_counter()
        time.sleep(FLEET_POLL_S)
        now = perf_counter()
        late_max = max(late_max, now - asleep - FLEET_POLL_S)
        still = []
        for i in pending:
            if handles[i].done():
                finished[i] = now - start
            else:
                still.append(i)
        pending = still
    wall = perf_counter() - start
    result = PassResult(wall, 0, [], "drive latency from submission",
                        errors=errors, poll_late_max_ms=late_max * 1000.0)
    for i, when in sorted(finished.items()):
        drive = drives[i]
        try:
            trace = handles[i].result(timeout=0)
        except Exception as error:  # quarantined, cancelled or failed
            errors[drive.key] = f"{type(error).__name__}: {error}"
            continue
        result.frames += trace.num_frames
        result.latency_ms.append((when - submitted[i]) * 1000.0)
        result.fingerprints[drive.key] = trace_fingerprint(trace)
    result.service_stats = service.stats()
    return result


# ----------------------------------------------------------------------
# Warm-up: compile every program the timed pass will replay
# ----------------------------------------------------------------------
# Engine programs are keyed by site, module and input shape.  The sweep's
# windowed shapes depend on its data, so its warm-up is the sweep itself.
# The vehicle replays only batch-of-one programs, and the fleet's batch
# sizes depend on arrival timing, so their warm-up compiles every
# (site, batch size) the pass can reach instead: the attention gate's
# path plus static configurations covering every branch, at each size.
COVERAGE_SCENARIO = "highway_commute"


def _coverage_policies(system) -> list[PolicySpec]:
    """The vehicle policy plus static configs that together use every branch."""
    library = list(system.library)
    remaining = {b for config in library for b in config.branches}
    chosen = []
    while remaining:
        best = max(library, key=lambda c: len(remaining & set(c.branches)))
        chosen.append(best)
        remaining -= set(best.branches)
    return [POLICY_SPECS[VEHICLE_POLICY]] + [
        PolicySpec(f"warm_{config.name}", "static", config_name=config.name)
        for config in chosen
    ]


def compile_coverage(system, sizes, batched: bool) -> None:
    """Drive ``b`` frames per size: in one batch-invariant window, or
    frame by frame on the sequential path (``batched=False``)."""
    spec = scenario_spec(COVERAGE_SCENARIO, 1.0)
    source = DriveSource(spec, seed=0, image_size=system.model.image_size)
    frames = list(itertools.islice(source, max(sizes)))
    for size in sizes:
        for policy in _coverage_policies(system):
            runner = ClosedLoopRunner(system.model, cache=BranchOutputCache())
            runner.run(spec, policy.build(system), frames=frames[:size],
                       window=max(size, 2) if batched else 1,
                       compiled=True)


def warm_up(system, inputs: Inputs) -> None:
    """Compile, before timing, every engine program the timed pass uses."""
    if inputs.workload == "sweep":
        _sweep_pass(system, inputs)
    elif inputs.workload == "vehicle":
        compile_coverage(system, [1], batched=False)
    else:
        sizes = range(1, ServingConfig().max_batch + 1)
        compile_coverage(system, sizes, batched=True)


# ----------------------------------------------------------------------
# Per-pass resources: a fresh runner or service, so no pass reuses the
# branch cache another pass filled.
# ----------------------------------------------------------------------
def open_resources(system, workload: str, telemetry=None):
    """``(runner, service)`` for one pass; a started service must be closed."""
    if workload == "vehicle":
        return ClosedLoopRunner(system.model, cache=BranchOutputCache()), None
    if workload == "fleet":
        service = DriveService(system, ServingConfig(), telemetry=telemetry)
        return None, service.start()
    return None, None


def close_resources(service: DriveService | None) -> None:
    if service is not None:
        service.stop()
