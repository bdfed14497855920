"""RadiateSim: the RADIATE-like multi-sensor object-detection dataset.

This stands in for the real RADIATE dataset [22].  It produces deterministic, seed-reproducible samples,
each carrying the four sensor tensors, canonical-frame annotations and a
context label — exactly the interface the EcoFusion pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contexts import CONTEXT_NAMES, CONTEXTS, ContextProfile, get_context
from .scenes import Scene, generate_scene
from .sensors import SENSOR_CHANNELS, SENSORS, render_all_sensors

__all__ = ["Sample", "RadiateSim", "default_counts", "realistic_counts"]


@dataclass
class Sample:
    """One dataset frame.

    Attributes
    ----------
    sensors:
        Mapping sensor-name -> float32 array ``(C_s, S, S)``.
    boxes:
        ``(d, 4)`` ground-truth boxes in the canonical frame (x1,y1,x2,y2).
    labels:
        ``(d,)`` one-based class ids.
    context:
        Driving-context name (e.g. ``"fog"``).
    sample_id:
        Stable integer id within the dataset.
    uid:
        Globally unique identity (includes the dataset's seed/config), so
        caches keyed on samples from *different* datasets never collide.
    """

    sensors: dict[str, np.ndarray]
    boxes: np.ndarray
    labels: np.ndarray
    context: str
    sample_id: int
    scene: Scene = field(repr=False, default=None)
    uid: str = ""

    def __post_init__(self) -> None:
        if not self.uid:
            self.uid = f"anon:{self.sample_id}"

    @property
    def num_objects(self) -> int:
        return int(self.boxes.shape[0])


def default_counts(per_context: int = 40) -> dict[str, int]:
    """Uniform sample counts across the eight contexts."""
    return {name: per_context for name in CONTEXT_NAMES}


# Relative frequency of each driving context in a realistic recording
# campaign: clear conditions dominate; dense fog and snowfall are rare.
# (RADIATE itself is weighted toward ordinary driving with shorter
# adverse-weather sequences.)  Keys sum to 8.0 so ``realistic_counts(n)``
# yields roughly ``8 * n`` samples, comparable to ``default_counts(n)``.
REALISTIC_CONTEXT_WEIGHTS: dict[str, float] = {
    "city": 1.6,
    "junction": 1.3,
    "motorway": 1.3,
    "rural": 1.2,
    "rain": 1.0,
    "night": 0.9,
    "fog": 0.5,
    "snow": 0.5,
}


def realistic_counts(per_context: int = 40) -> dict[str, int]:
    """Context counts weighted by realistic driving-condition frequency."""
    return {
        name: max(int(round(per_context * REALISTIC_CONTEXT_WEIGHTS[name])), 8)
        for name in CONTEXT_NAMES
    }


class RadiateSim:
    """Deterministic synthetic RADIATE-like dataset.

    Parameters
    ----------
    counts:
        Mapping context-name -> number of samples.  Defaults to 40 per
        context (320 samples).
    seed:
        Master seed; every sample derives its own child seed, so any
        sample can be regenerated independently.
    image_size:
        Side length of the square sensor frames (must be divisible by 8
        for the detector's stride-8 feature maps).
    lazy:
        When True, samples are rendered on first access instead of at
        construction (useful for tests that touch a few samples).
    """

    def __init__(
        self,
        counts: dict[str, int] | None = None,
        seed: int = 0,
        image_size: int = 64,
        lazy: bool = False,
    ) -> None:
        if image_size % 8 != 0:
            raise ValueError("image_size must be divisible by 8")
        self.counts = dict(counts) if counts is not None else default_counts()
        for name in self.counts:
            get_context(name)  # validate
        self.seed = seed
        self.image_size = image_size
        self._index: list[tuple[str, int]] = []
        for name in CONTEXT_NAMES:
            for _ in range(self.counts.get(name, 0)):
                self._index.append((name, len(self._index)))
        self._cache: dict[int, Sample] = {}
        if not lazy:
            for i in range(len(self._index)):
                self._cache[i] = self._build(i)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, idx: int) -> Sample:
        if idx < 0:
            idx += len(self)
        if not 0 <= idx < len(self):
            raise IndexError(f"sample index {idx} out of range [0, {len(self)})")
        if idx not in self._cache:
            self._cache[idx] = self._build(idx)
        return self._cache[idx]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    # ------------------------------------------------------------------
    def _build(self, idx: int) -> Sample:
        context_name, sample_id = self._index[idx]
        profile: ContextProfile = CONTEXTS[context_name]
        rng = np.random.default_rng(self.seed * 1_000_003 + sample_id)
        scene = generate_scene(profile, rng, image_size=self.image_size)
        sensors = render_all_sensors(scene, profile, rng)
        counts_token = "-".join(f"{k}{v}" for k, v in sorted(self.counts.items()))
        return Sample(
            sensors=sensors,
            boxes=scene.boxes,
            labels=scene.labels,
            context=context_name,
            sample_id=sample_id,
            scene=scene,
            uid=f"radiate:{self.seed}:{self.image_size}:{counts_token}:{sample_id}",
        )

    # ------------------------------------------------------------------
    @property
    def contexts(self) -> list[str]:
        """Context label of every sample, in index order."""
        return [ctx for ctx, _ in self._index]

    def indices_for_context(self, context: str) -> list[int]:
        get_context(context)
        return [i for i, (ctx, _) in enumerate(self._index) if ctx == context]

    def sensor_shape(self, sensor: str) -> tuple[int, int, int]:
        return (SENSOR_CHANNELS[sensor], self.image_size, self.image_size)

    @staticmethod
    def sensor_names() -> tuple[str, ...]:
        return SENSORS
