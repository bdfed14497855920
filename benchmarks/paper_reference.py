"""Published numbers from the paper, used for side-by-side comparison.

Every benchmark prints "paper" rows (these constants) next to "ours" rows
(measured on the simulator substrate).  Absolute values are not expected
to match — the substrate is a simulator, not the authors' testbed — but
the orderings and rough ratios should: each ``bench_*.py`` asserts them
in its ``Test*Shape`` class.
"""

from __future__ import annotations

# Table 1: fusion type -> (mAP %, energy J, latency ms)
TABLE1 = {
    "none_camera_left": (74.48, 0.945, 21.57),
    "none_camera_right": (79.00, 0.945, 21.57),
    "none_radar": (67.74, 0.954, 21.85),
    "none_lidar": (70.45, 0.954, 21.85),
    "early": (80.26, 1.379, 31.36),
    "late": (77.98, 3.798, 84.32),
    "ecofusion_lambda_0": (82.92, 3.566, 81.49),
    "ecofusion_lambda_0.01": (84.32, 1.533, 35.14),
    "ecofusion_lambda_0.05": (82.16, 1.110, 25.43),
}

# Table 2: (lambda_E, gate) -> (mAP %, avg loss, energy J)
TABLE2 = {
    (0.0, "knowledge"): (82.43, 1.519, 2.021),
    (0.0, "deep"): (82.68, 0.915, 3.556),
    (0.0, "attention"): (82.92, 0.915, 3.566),
    (0.0, "loss_based"): (82.50, 0.808, 1.719),
    (0.01, "knowledge"): (82.43, 1.519, 2.021),
    (0.01, "deep"): (83.72, 1.124, 1.457),
    (0.01, "attention"): (84.32, 1.089, 1.533),
    (0.01, "loss_based"): (81.65, 0.809, 1.280),
    (0.1, "knowledge"): (82.43, 1.519, 2.021),
    (0.1, "deep"): (81.98, 1.432, 1.008),
    (0.1, "attention"): (79.72, 1.280, 0.960),
    (0.1, "loss_based"): (79.70, 0.818, 1.044),
}

# Table 3: scene -> (late-fusion total J, ecofusion total J, savings %)
TABLE3 = {
    "city": (13.27, 5.45, 58.91),
    "fog": (13.27, 13.96, -5.15),
    "junction": (13.27, 2.87, 78.40),
    "motorway": (13.27, 2.87, 78.40),
    "night": (13.27, 12.10, 8.81),
    "rain": (13.27, 13.29, -0.09),
    "rural": (13.27, 3.81, 71.28),
    "snow": (13.27, 13.96, -5.15),
    "overall": (13.27, 6.45, 51.41),
}

# Figure 4 endpoints quoted in the text (attention gate).
FIG4_ATTENTION_LAMBDA1 = {"loss": 1.317, "energy": 0.945}
FIG4_ATTENTION_LAMBDA0 = {"loss": 0.9153, "energy": 3.566}
FIG4_LOSS_BASED_KNEE = {"lambda": 0.5, "loss": 0.966, "energy": 0.844}

# Headline claims (abstract / conclusion).
HEADLINE = {
    "map_gain_vs_early_pct": 5.1,
    "map_gain_vs_late_pct": 9.5,
    "energy_saving_vs_late_pct": 60.0,
    "latency_saving_vs_late_pct": 58.0,
    "fig5_energy_saving_vs_late_pct": 43.7,
}
