"""Temporal driving sequences: scenes that evolve over consecutive frames.

The paper's clock-gating analysis (Sec. 5.5.2) notes that "temporal
modeling can enable the context to be estimated across time instead of
for a single input, allowing clock gating for specific periods."  That
extension needs sequential data: this module evolves a scene over time —
objects move with per-object velocities, leave the field of view, and new
traffic enters — optionally crossing a weather boundary mid-sequence
(e.g. driving into a fog bank), which is the stress case for temporal
gating policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .contexts import CONTEXTS, ContextProfile, get_context
from .radiate import Sample
from .scenes import CLASS_SIZE_RANGES, Scene, SceneObject, generate_scene
from .sensors import OBJECT_MEMO_SIZE, render_all_sensors

__all__ = ["SequenceFrame", "DrivingSequence", "advance_scene", "generate_sequence"]


@dataclass
class SequenceFrame:
    """One time step of a driving sequence."""

    time_index: int
    sample: Sample

    @property
    def context(self) -> str:
        return self.sample.context


@dataclass
class DrivingSequence:
    """An ordered list of frames with a (possibly changing) context."""

    frames: list[SequenceFrame] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i: int) -> SequenceFrame:
        return self.frames[i]

    def __iter__(self):
        return iter(self.frames)

    @property
    def contexts(self) -> list[str]:
        return [f.context for f in self.frames]

    @property
    def samples(self) -> list[Sample]:
        return [f.sample for f in self.frames]


@lru_cache(maxsize=OBJECT_MEMO_SIZE)
def _drift(seed: int) -> float:
    """The object's horizontal velocity, from ``default_rng(seed + 13)``."""
    return float(np.random.default_rng(seed + 13).uniform(-1.2, 1.2))


def _advance_objects(
    scene: Scene,
    rng: np.random.Generator,
    ego_speed: float,
) -> Scene:
    """One motion step: translate objects, cull leavers, keep the rest.

    Objects drift horizontally with their own velocity and expand/shift
    vertically as the ego vehicle approaches (depth decreases with ego
    speed) — a cheap forward-camera motion model.
    """
    size = scene.image_size
    survivors: list[SceneObject] = []
    for obj in scene.objects:
        vx = _drift(obj.appearance_seed)
        new_depth = max(obj.depth - 0.04 * ego_speed, 0.0)
        # Approaching objects grow: scale box about its centre.
        growth = 1.0 + 0.05 * ego_speed * (obj.depth - new_depth + 0.2)
        cx, cy = obj.center
        w = obj.width * growth
        h = obj.height * growth
        cx += vx
        cy += 0.35 * ego_speed  # objects slide down-frame as ego advances
        box = np.array(
            [cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], dtype=np.float32
        )
        if box[2] <= 1 or box[0] >= size - 1 or box[1] >= size - 1:
            continue  # left the field of view
        np.clip(box, 0, size - 1, out=box)
        if box[2] - box[0] < 3 or box[3] - box[1] < 3:
            continue
        survivors.append(
            SceneObject(
                class_name=obj.class_name,
                box=box,
                depth=new_depth,
                appearance_seed=obj.appearance_seed,
            )
        )
    return Scene(context=scene.context, image_size=size, objects=survivors)


def _maybe_spawn(
    scene: Scene, profile: ContextProfile, rng: np.random.Generator
) -> None:
    """Spawn a distant entering object with the context's class mix."""
    lo, hi = profile.n_objects
    if len(scene.objects) >= hi or rng.random() > 0.4:
        return
    spawned = generate_scene(profile, rng, image_size=scene.image_size)
    for candidate in spawned.objects:
        if candidate.depth > 0.6:  # only distant objects enter realistically
            scene.objects.append(candidate)
            return


def advance_scene(
    scene: Scene,
    profile: ContextProfile,
    rng: np.random.Generator,
    ego_speed: float = 1.0,
) -> Scene:
    """One full simulation step: motion, culling and traffic entry.

    Relabels the scene with ``profile``'s context, so callers that stream
    across weather/context boundaries (see ``repro.simulation``) can swap
    the profile between steps while the geometry persists.
    """
    scene = _advance_objects(scene, rng, ego_speed)
    scene = Scene(
        context=profile.name, image_size=scene.image_size, objects=scene.objects
    )
    _maybe_spawn(scene, profile, rng)
    return scene


def generate_sequence(
    context: str,
    length: int,
    rng: np.random.Generator,
    image_size: int = 64,
    ego_speed: float = 1.0,
    transition_to: str | None = None,
    transition_at: int | None = None,
) -> DrivingSequence:
    """Generate a temporally-coherent driving sequence.

    Parameters
    ----------
    context:
        Starting driving context.
    length:
        Number of frames.
    ego_speed:
        Ego motion scale (affects object approach rate and drift).
    transition_to / transition_at:
        Optionally switch context at frame ``transition_at`` (e.g. the
        car enters a fog bank) — scene geometry persists, only the
        degradation profile changes, exactly the situation a temporal
        gate must react to.
    """
    profile = get_context(context)
    if transition_to is not None:
        get_context(transition_to)  # validate
        if transition_at is None:
            transition_at = length // 2
    scene = generate_scene(profile, rng, image_size=image_size)
    seq_token = int(rng.integers(0, 2**31 - 1))  # uid namespace for this sequence

    sequence = DrivingSequence()
    for t in range(length):
        if transition_to is not None and t == transition_at:
            profile = get_context(transition_to)
            scene = Scene(
                context=transition_to, image_size=image_size,
                objects=scene.objects,
            )
        sensors = render_all_sensors(scene, profile, rng)
        sample = Sample(
            sensors=sensors,
            boxes=scene.boxes,
            labels=scene.labels,
            context=profile.name,
            sample_id=t,
            scene=scene,
            uid=f"sequence:{seq_token}:{t}",
        )
        sequence.frames.append(SequenceFrame(time_index=t, sample=sample))
        scene = advance_scene(scene, profile, rng, ego_speed)
    return sequence
