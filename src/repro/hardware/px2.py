"""Nvidia Drive PX2 platform model.

The paper profiles every configuration on a physical Drive PX2 (Sec. 3.2):
``E(phi, X) = P(phi, X) * t(phi, X)`` with an average measured load power
of 45.4 W.  No PX2 exists in this environment, so this module provides a
calibrated simulator:

* **Latency**: an affine-in-FLOPs model
  ``t(phi) = t_platform + n_branches * t_launch + flops(phi) / rate
  + sum_s t_prep(s)`` — fixed platform overhead per inference cycle,
  per-branch kernel-launch overhead (TensorRT engine dispatch), a
  throughput term, and per-sensor preprocessing (lidar projection / radar
  polar-to-cartesian run before the stems).
* **Power**: ``P(phi) = p_base + p_branch * n_branches`` capped at the
  measured 45.4 W — utilization rises with ensemble size.

The three free latency parameters are solved exactly from the paper's
published measurements for the single-camera, early-fusion and late-fusion
pipelines (Table 1), so simulated energies reproduce the paper's
*ratios* between configurations — the quantity EcoFusion's optimization
actually consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import lsq_linear

__all__ = [
    "SENSOR_PREP_MS",
    "PX2_LOAD_WATTS",
    "LatencyModel",
    "PowerModel",
    "DrivePX2",
    "CalibrationAnchor",
    "PAPER_TABLE1_ANCHORS",
]

# Per-sensor CPU preprocessing before the stems (ms).  Lidar point-cloud
# projection and radar polar->cartesian conversion are costlier than camera
# debayering; this reproduces the paper's radar/lidar rows costing slightly
# more than the camera rows (21.85 ms vs 21.57 ms in Table 1).
SENSOR_PREP_MS: dict[str, float] = {
    "camera_left": 0.10,
    "camera_right": 0.10,
    "lidar": 0.70,
    "radar": 0.70,
}

PX2_LOAD_WATTS = 45.4  # measured average power under load (Sec. 3.2)


@dataclass(frozen=True)
class CalibrationAnchor:
    """One published measurement used to fit the latency model."""

    name: str
    latency_ms: float
    num_branches: int
    sensors: tuple[str, ...]


# Published Drive PX2 measurements (paper Table 1) used as anchors.
PAPER_TABLE1_ANCHORS: tuple[CalibrationAnchor, ...] = (
    CalibrationAnchor("CR", 21.57, 1, ("camera_right",)),
    CalibrationAnchor("EF_CLCRL", 31.36, 1, ("camera_left", "camera_right", "lidar")),
    CalibrationAnchor(
        "LF_ALL", 84.32, 4, ("camera_left", "camera_right", "radar", "lidar")
    ),
)


@dataclass
class LatencyModel:
    """Affine FLOPs -> milliseconds map with per-branch/per-sensor terms."""

    platform_ms: float
    launch_ms: float
    mflops_per_ms: float
    prep_ms: dict[str, float] = field(default_factory=lambda: dict(SENSOR_PREP_MS))

    def compute_ms(self, flops: float) -> float:
        """Pure compute time for a FLOP count (no overheads)."""
        return flops / 1.0e6 / self.mflops_per_ms

    def pipeline_ms(
        self, flops: float, num_branches: int, sensors: tuple[str, ...]
    ) -> float:
        """End-to-end latency of a pipeline executing ``num_branches``
        detector branches over ``sensors`` with total ``flops``."""
        prep = sum(self.prep_ms[s] for s in sensors)
        return (
            self.platform_ms
            + self.launch_ms * num_branches
            + self.compute_ms(flops)
            + prep
        )

    @staticmethod
    def calibrate(
        anchors: tuple[CalibrationAnchor, ...],
        flops_of: dict[str, float],
        prep_ms: dict[str, float] | None = None,
    ) -> "LatencyModel":
        """Solve (platform_ms, launch_ms, 1/rate) from anchor measurements.

        ``flops_of`` maps anchor name -> counted FLOPs of this repo's
        actual modules for that configuration.  With three anchors the
        3x3 system is solved exactly when the solution is feasible;
        otherwise a non-negative least-squares fallback keeps the model
        physical (no negative overheads).
        """
        prep_ms = dict(prep_ms or SENSOR_PREP_MS)
        rows = []
        targets = []
        for anchor in anchors:
            prep = sum(prep_ms[s] for s in anchor.sensors)
            rows.append([1.0, float(anchor.num_branches), flops_of[anchor.name] / 1.0e6])
            targets.append(anchor.latency_ms - prep)
        a = np.asarray(rows, dtype=np.float64)
        b = np.asarray(targets, dtype=np.float64)
        solution = None
        if a.shape[0] == a.shape[1]:
            try:
                exact = np.linalg.solve(a, b)
                if np.all(exact > 0):
                    solution = exact
            except np.linalg.LinAlgError:
                solution = None
        if solution is None:
            fit = lsq_linear(a, b, bounds=(1e-6, np.inf))
            solution = fit.x
        platform_ms, launch_ms, ms_per_mflop = (float(v) for v in solution)
        return LatencyModel(
            platform_ms=platform_ms,
            launch_ms=launch_ms,
            mflops_per_ms=1.0 / ms_per_mflop,
            prep_ms=prep_ms,
        )


@dataclass
class PowerModel:
    """Utilization-dependent platform power, capped at the measured load.

    Calibrated so the paper's Table 1 (latency, energy) pairs are
    consistent: 0.945 J / 21.57 ms -> 43.8 W for one branch and
    3.798 J / 84.32 ms -> 45.0 W for four.
    """

    base_watts: float = 43.4
    per_branch_watts: float = 0.41
    max_watts: float = PX2_LOAD_WATTS
    idle_watts: float = 20.0

    def watts(self, num_branches: int) -> float:
        return min(self.base_watts + self.per_branch_watts * num_branches, self.max_watts)


@dataclass
class DrivePX2:
    """The platform: latency + power models and the energy law (Eq. 6)."""

    latency: LatencyModel
    power: PowerModel = field(default_factory=PowerModel)
    num_engines: int = 2  # 2 discrete GPUs (ablation: parallel scheduling)

    def pipeline_latency_ms(
        self, flops: float, num_branches: int, sensors: tuple[str, ...]
    ) -> float:
        return self.latency.pipeline_ms(flops, num_branches, sensors)

    def energy_joules(self, latency_ms: float, num_branches: int) -> float:
        """E = P * t (Eq. 6), with utilization-dependent power."""
        return self.power.watts(num_branches) * latency_ms / 1000.0
