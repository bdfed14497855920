"""Render golden digests: every sensor tensor the simulator produces, pinned.

The renderer memoizes per-object draws and RNG-free images; these digests
hold it to the exact bytes of the uncached renderer.  Each digest is a
SHA-256 over every frame's sensor tensors (in :data:`SENSORS` order),
ground-truth boxes and labels, so a one-ulp change anywhere fails.

Coverage: the six scenarios of the single-vehicle benchmark trip at scale
0.25, and every library and chaos scenario at scale 0.125 under three
seeds — together they draw phantoms, radar ghosts, left-camera vignettes,
object spawns/culls, context transitions and every fault mode.  The
dataset and sequence generators are pinned too, since they render fresh
scenes through the same code.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from repro.datasets import SENSORS, RadiateSim, default_counts, generate_sequence
from repro.datasets.scenes import SceneObject
from repro.datasets.sensors import (
    CLASS_COLORS,
    _draw_camera_object,
    _object_rng,
    _slice_box,
)
from repro.simulation import (
    CHAOS_SCENARIOS,
    SCENARIOS,
    DriveSource,
    get_scenario,
    scaled,
)

VEHICLE_SCENARIOS = (
    "urban_fog_ingress", "night_rain", "blizzard_crossing",
    "sensor_stress_test", "rush_hour_junction", "degraded_limp_home",
)
LIBRARY_SEEDS = (0, 1, 2)

VEHICLE_DIGEST = "bb1be999ca9a6b5ec5526e94d98583577caa71c4bde6ab05566b5f1d6b6cc47e"
LIBRARY_DIGEST = "bed02c62fda8ccc3c6526a80c22ea90b39e6ce69a76986fc47638567ed609eb1"
DATASET_DIGEST = "79bd56d726661ffc07be2fcd67799b35b2071cd6c826b20c7bac04e6e0cf4416"


def _update(h, sample) -> None:
    for name in SENSORS:
        tensor = np.ascontiguousarray(sample.sensors[name])
        h.update(f"{name}:{tensor.dtype.str}:{tensor.shape}".encode())
        h.update(tensor.tobytes())
    boxes = np.ascontiguousarray(sample.boxes)
    h.update(f"boxes:{boxes.dtype.str}:{boxes.shape}".encode())
    h.update(boxes.tobytes())
    h.update(repr([int(v) for v in sample.labels]).encode())


def _drive_digest(drives) -> str:
    h = hashlib.sha256()
    for name, scale, seed in drives:
        h.update(f"{name}/{scale}/{seed}".encode())
        for frame in DriveSource(scaled(get_scenario(name), scale), seed=seed):
            _update(h, frame.sample)
    return h.hexdigest()


def vehicle_digest() -> str:
    return _drive_digest(
        (name, 0.25, seed) for seed, name in enumerate(VEHICLE_SCENARIOS)
    )


def library_digest() -> str:
    names = list(SCENARIOS) + list(CHAOS_SCENARIOS)
    return _drive_digest(
        (name, 0.125, seed) for name in names for seed in LIBRARY_SEEDS
    )


def dataset_digest() -> str:
    h = hashlib.sha256()
    dataset = RadiateSim(default_counts(2), seed=5, image_size=64)
    for i in range(len(dataset)):
        _update(h, dataset[i])
    for context, transition in (("city", "fog"), ("snow", None)):
        sequence = generate_sequence(
            context, 12, np.random.default_rng(3), transition_to=transition
        )
        for frame in sequence:
            _update(h, frame.sample)
    return h.hexdigest()


class TestRenderDigest:
    def test_vehicle_trip(self):
        assert vehicle_digest() == VEHICLE_DIGEST

    def test_library_and_chaos_scenarios(self):
        assert library_digest() == LIBRARY_DIGEST

    def test_dataset_and_sequences(self):
        assert dataset_digest() == DATASET_DIGEST


def _slice_box_reference(box, size):
    """The original ``np.clip`` formulation of ``_slice_box``."""
    x1, y1, x2, y2 = box
    xi1 = int(np.clip(np.floor(x1), 0, size - 1))
    yi1 = int(np.clip(np.floor(y1), 0, size - 1))
    xi2 = int(np.clip(np.ceil(x2), xi1 + 1, size))
    yi2 = int(np.clip(np.ceil(y2), yi1 + 1, size))
    return slice(yi1, yi2), slice(xi1, xi2)


class TestSliceBox:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 2, 32, 64])
    def test_matches_clip_formula(self, dtype, size):
        rng = np.random.default_rng(size)
        boxes = np.concatenate([
            rng.uniform(0, size, (200, 4)),               # in frame
            rng.uniform(-3 * size, 0, (100, 4)),          # negative
            rng.uniform(size, 4 * size, (100, 4)),        # oversized
            rng.uniform(-size, 2 * size, (200, 4)),       # straddling
            np.floor(rng.uniform(-size, 2 * size, (100, 4))),  # integral
            rng.integers(-2, size + 2, (100, 4)) + 0.5,   # half-pixel
        ]).astype(dtype)
        boxes[:50, 2:] = boxes[:50, :2] - 1.0  # inverted (x2 < x1)
        for box in boxes:
            assert _slice_box(box, size) == _slice_box_reference(box, size)

    def test_scaled_box_and_exact_edges(self):
        size = 32
        for box in (
            np.array([0.0, 0.0, 32.0, 32.0]),
            np.array([31.0, 31.0, 31.0, 31.0]),
            np.array([-0.0, -1e-7, 1e-7, 31.9999]),
            np.array([10.5, 3.25, 20.75, 9.0], dtype=np.float32) / 2,
            np.array([math.nextafter(5.0, 0.0), 5.0, math.nextafter(5.0, 9.0), 6.0]),
        ):
            assert _slice_box(box, size) == _slice_box_reference(box, size)


def _draw_camera_object_reference(img, obj, shift_x):
    """The original per-band painter (one slice assignment per band)."""
    size = img.shape[1]
    box = obj.box.copy()
    box[0] += shift_x
    box[2] += shift_x
    ys, xs = _slice_box_reference(box, size)
    if ys.stop - ys.start < 2 or xs.stop - xs.start < 2:
        return
    rng = np.random.default_rng(obj.appearance_seed)
    color = np.array(CLASS_COLORS[obj.class_name], dtype=np.float32)
    color = color * float(rng.uniform(0.85, 1.15))
    img[:, ys, xs] = color[:, None, None]
    h = ys.stop - ys.start
    is_vehicle = obj.class_name in ("car", "van", "truck", "bus", "motorbike")
    if is_vehicle and h >= 4:
        win = slice(ys.start + 1, ys.start + max(h // 3, 1) + 1)
        img[:, win, xs] = np.minimum(color[:, None, None] * 1.5, 1.0)
        wheels = slice(ys.stop - max(h // 5, 1), ys.stop)
        img[:, wheels, xs] = 0.12
    elif h >= 4:
        head = slice(ys.start, ys.start + max(h // 4, 1))
        img[:, head, xs] = np.minimum(color[:, None, None] * 1.4, 1.0)
    img[:, ys.start, xs] *= 0.5
    img[:, ys.stop - 1, xs] *= 0.5
    img[:, ys, xs.start] *= 0.5
    img[:, ys, xs.stop - 1] *= 0.5


class TestCameraObject:
    def test_matches_reference_painter(self):
        rng = np.random.default_rng(11)
        size = 32
        for i in range(600):
            x1, y1 = rng.uniform(-8, size + 4, 2)
            w, h = rng.uniform(0.5, 24, 2)
            obj = SceneObject(
                class_name=list(CLASS_COLORS)[i % len(CLASS_COLORS)],
                box=np.array([x1, y1, x1 + w, y1 + h], dtype=np.float32),
                depth=float(rng.uniform()),
                appearance_seed=int(rng.integers(0, 2**31 - 1)),
            )
            shift = float(rng.uniform(0, 3)) if i % 2 else 0.0
            want = rng.uniform(0, 1, (3, size, size)).astype(np.float32)
            got = want.copy()
            _draw_camera_object_reference(want, obj, shift)
            _draw_camera_object(got, obj, shift)
            assert want.tobytes() == got.tobytes(), (obj, shift)


class TestThreads:
    def test_object_rng_is_per_thread(self):
        """Concurrent lidar draws each see their own restored generator."""
        objects = [
            SceneObject("car", np.zeros(4, np.float32), 0.5, seed)
            for seed in range(40)
        ]
        want = {o.appearance_seed: np.random.default_rng(o.appearance_seed + 1).random(64)
                for o in objects}
        errors = []

        def worker():
            for _ in range(25):
                for obj in objects:
                    got = _object_rng(obj, salt=1).random(64)
                    if not np.array_equal(got, want[obj.appearance_seed]):
                        errors.append(obj.appearance_seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_concurrent_drives_render_identically(self):
        drives = [(name, 0.125, 0) for name in VEHICLE_SCENARIOS[:3]]
        want = _drive_digest(drives)
        results = []

        def worker():
            results.append(_drive_digest(drives))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 4
