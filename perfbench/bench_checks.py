"""Output checks, percentiles and machine facts for the benchmark.

Every timed drive is checked bit for bit against the eager sequential
``window=1`` reference of the same source tree: its per-frame
``records_hex()``, its mAP and its final state of charge.  The reference
runs each drive on a fresh runner and branch cache, in worker processes
outside the timed pass and outside set-up, and is cached on disk per
source tree, workload and seed.  A worker is this module run as a
script on a JSON file of drives; it prints their fingerprints as JSON::

    python3 perfbench/bench_checks.py DRIVES.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

# The tail percentile.  Every pass has at least 90 latency samples (a
# sweep pass of 90 drives), so at least 9 lie beyond it.
TAIL_PERCENTILE = 90.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# Output fingerprints
# ----------------------------------------------------------------------
def fingerprint(records_hex: list[dict], map_percent: float,
                final_soc: float) -> dict[str, str]:
    """Exact identity of one drive's outputs (any one-ulp change shows)."""
    digest = hashlib.sha256(
        json.dumps(records_hex, sort_keys=True).encode()
    ).hexdigest()
    return {
        "records": digest,
        "frames": str(len(records_hex)),
        "map": float(map_percent).hex(),
        "final_soc": float(final_soc).hex(),
    }


def trace_fingerprint(trace) -> dict[str, str]:
    return fingerprint(trace.records_hex(), trace.map_result.percent,
                       trace.final_soc)


def mismatches(observed: dict[str, dict], reference: dict[str, dict]) -> list[str]:
    """Drive keys whose fingerprint is missing or differs from the reference."""
    return sorted(
        key for key in reference if observed.get(key) != reference[key]
    )


# ----------------------------------------------------------------------
# Reference computation (worker processes) and its per-tree cache
# ----------------------------------------------------------------------
def _reference_fingerprints(drives: list) -> dict[str, dict]:
    """Eager sequential fingerprints of ``bench_workloads.Drive`` objects;
    consecutive drives of one rendered stream share the frames, never the
    runner or the cache."""
    from bench_workloads import POLICY_SPECS, load_system, scenario_spec
    from repro import BranchOutputCache
    from repro.simulation import ClosedLoopRunner, DriveSource

    system = load_system()
    out: dict[str, dict] = {}
    stream, frames = None, None
    for drive in drives:
        spec = scenario_spec(drive.scenario, drive.scale)
        if stream != drive.stream:
            stream = drive.stream
            frames = DriveSource(
                spec, seed=drive.seed, image_size=system.model.image_size
            ).materialize()
        runner = ClosedLoopRunner(system.model, cache=BranchOutputCache())
        trace = runner.run(spec, POLICY_SPECS[drive.policy].build(system),
                           seed=drive.seed, window=1, frames=frames)
        out[drive.key] = trace_fingerprint(trace)
    return out


def source_tree_digest(root: Path) -> str:
    """Hash of the program and benchmark sources (the reference's key)."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((root / sub).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference(drives: list, cache_path: Path, workers: int = 2,
              timeout_s: float = 150.0) -> dict[str, dict]:
    """Reference fingerprints for ``drives``, from the cache when present.

    Each worker is a child process of this module's ``__main__`` that
    runs BLAS single-threaded (two workers on a two-core box would
    otherwise oversubscribe it).  Plain child processes rather than a
    ``multiprocessing`` pool: the pool's resource tracker outlives the
    benchmark.  Every worker is waited for, and killed first if the
    reference fails or runs out of time.
    """
    if cache_path.exists():
        return json.loads(cache_path.read_text())
    # Drives of one rendered stream stay in one worker.
    streams = [list(group) for _, group in itertools.groupby(
        drives, key=lambda d: d.stream)]
    workers = max(1, min(workers, len(streams)))
    groups = [sum(streams[i::workers], []) for i in range(workers)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    inputs = [cache_path.with_suffix(f".in{i}") for i in range(len(groups))]
    procs: list[subprocess.Popen] = []
    result: dict[str, dict] = {}
    deadline = time.monotonic() + timeout_s
    try:
        for path, group in zip(inputs, groups):
            path.write_text(json.dumps([asdict(d) for d in group]))
            procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(path)],
                stdout=subprocess.PIPE, env=env,
            ))
        for proc in procs:
            out, _ = proc.communicate(
                timeout=max(deadline - time.monotonic(), 0.1))
            if proc.returncode != 0:
                raise RuntimeError(
                    f"reference worker exited with {proc.returncode}")
            result.update(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for path in inputs:
            path.unlink(missing_ok=True)
    tmp = cache_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, cache_path)
    return result


# ----------------------------------------------------------------------
# Machine facts recorded with every result
# ----------------------------------------------------------------------
def _blas_threads() -> str:
    """Threads the loaded OpenBLAS runs with, read from the library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return value if value else f"default ({os.cpu_count()})"


def machine(system_key: str) -> dict[str, str]:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": str(len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "system": system_key,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from bench_workloads import Drive

    given = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(_reference_fingerprints([Drive(**d) for d in given])))
