"""``repro.datasets`` — the RADIATE-like multi-sensor driving dataset.

Stands in for the public RADIATE dataset used by the paper (no network
access in this environment).
"""

from .contexts import (
    CLASS_IDS,
    CLASS_NAMES,
    CONTEXT_NAMES,
    CONTEXTS,
    CameraDegradation,
    ContextProfile,
    LidarDegradation,
    RadarDegradation,
    get_context,
)
from .radiate import RadiateSim, Sample, default_counts, realistic_counts
from .sequences import (
    DrivingSequence,
    SequenceFrame,
    advance_scene,
    generate_sequence,
)
from .scenes import CLASS_SIZE_RANGES, Scene, SceneObject, generate_scene
from .sensors import (
    CLASS_COLORS,
    MAX_DISPARITY,
    SENSOR_CHANNELS,
    SENSORS,
    render_all_sensors,
    render_camera,
    render_lidar,
    render_radar,
)
from .splits import Subset, stratified_split
from .transforms import (
    SENSOR_NORMALIZATION,
    batch_sensors,
    horizontal_flip,
    normalize_sample,
    normalize_sensor,
)

__all__ = [
    "CLASS_IDS",
    "CLASS_NAMES",
    "CONTEXT_NAMES",
    "CONTEXTS",
    "CameraDegradation",
    "ContextProfile",
    "LidarDegradation",
    "RadarDegradation",
    "get_context",
    "RadiateSim",
    "Sample",
    "default_counts",
    "realistic_counts",
    "DrivingSequence",
    "SequenceFrame",
    "advance_scene",
    "generate_sequence",
    "CLASS_SIZE_RANGES",
    "Scene",
    "SceneObject",
    "generate_scene",
    "CLASS_COLORS",
    "MAX_DISPARITY",
    "SENSOR_CHANNELS",
    "SENSORS",
    "render_all_sensors",
    "render_camera",
    "render_lidar",
    "render_radar",
    "Subset",
    "stratified_split",
    "SENSOR_NORMALIZATION",
    "batch_sensors",
    "horizontal_flip",
    "normalize_sample",
    "normalize_sensor",
]
