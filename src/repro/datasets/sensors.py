"""Sensor simulators: stereo camera, lidar and radar renderers.

Each simulator renders the same :class:`~repro.datasets.scenes.Scene`
through its modality's physics, then applies the context's degradation
profile.  The renderers correspond to the RADIATE rig (Sec. 5): a ZED
stereo camera (left+right), a Velodyne HDL-32e lidar and a Navtech
CTS350-X radar.

Modality characteristics (and why they matter to EcoFusion):

* **Cameras** — highest native resolution and the only class-colour cue,
  but passive: darkness, fog airlight, rain streaks and snow speckle all
  erode them.  The left camera is additionally vignetted and sits a stereo
  baseline away from the canonical (right-camera) frame, so residual
  disparity misaligns its annotations slightly — reproducing the paper's
  CL < CR ordering in Table 1.
* **Lidar** — active, lighting-independent, mid resolution; loses returns
  to backscatter in rain/snow and range in fog.
* **Radar** — coarse (rendered at quarter resolution) and nearly blind to
  low-RCS objects (pedestrians, bicycles), but almost weather-invariant.

Per-frame host cost: every per-object draw that depends only on the
object's ``appearance_seed`` (camera colour, radar amplitude/ghost draws,
phantom layouts) is memoized in a bounded LRU, lidar restores a memoized
PCG64 state instead of re-seeding a generator, and RNG-free images (camera
background, vignette, radar grid) are built once as read-only arrays.
The frame RNG is drawn in exactly the original order, so every rendered
tensor is bit-identical to the uncached renderer.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .contexts import ContextProfile
from .scenes import (
    CLASS_LIDAR_DENSITY,
    CLASS_RADAR_TEXTURE,
    CLASS_RCS,
    Scene,
    SceneObject,
)

__all__ = [
    "SENSORS",
    "SENSOR_CHANNELS",
    "CLASS_COLORS",
    "MAX_DISPARITY",
    "render_camera",
    "render_lidar",
    "render_radar",
    "render_all_sensors",
]

# Canonical sensor order (matches the paper's Table 1 row order).
SENSORS: tuple[str, ...] = ("camera_left", "camera_right", "radar", "lidar")

SENSOR_CHANNELS: dict[str, int] = {
    "camera_left": 3,
    "camera_right": 3,
    "radar": 1,
    "lidar": 2,
}

# Distinct base colours give the cameras a class-identity cue the other
# modalities lack (mirroring real appearance vs. geometry information).
CLASS_COLORS: dict[str, tuple[float, float, float]] = {
    "car": (0.75, 0.30, 0.30),
    "van": (0.30, 0.75, 0.35),
    "truck": (0.78, 0.70, 0.25),
    "bus": (0.85, 0.45, 0.15),
    "motorbike": (0.35, 0.35, 0.85),
    "bicycle": (0.20, 0.70, 0.75),
    "pedestrian": (0.85, 0.30, 0.75),
    "group_of_pedestrians": (0.60, 0.35, 0.60),
}

# Lidar intensity per class: reflectivity proxy (weaker class cue than
# colour, so lidar classification is harder than camera — as in the
# paper's single-sensor mAP ordering).
CLASS_LIDAR_INTENSITY: dict[str, float] = {
    "car": 0.80,
    "van": 0.72,
    "truck": 0.95,
    "bus": 0.90,
    "motorbike": 0.55,
    "bicycle": 0.45,
    "pedestrian": 0.40,
    "group_of_pedestrians": 0.50,
}

# Lidar height-profile per class (z-extent of the point cluster, mapped to
# the second channel).  Height is the strongest geometric class cue a real
# spinning lidar provides: buses/trucks tower over cars, pedestrians are
# tall and narrow, bikes are low.
CLASS_LIDAR_HEIGHT: dict[str, float] = {
    "car": 0.45,
    "van": 0.65,
    "truck": 0.85,
    "bus": 1.00,
    "motorbike": 0.30,
    "bicycle": 0.38,
    "pedestrian": 0.55,
    "group_of_pedestrians": 0.55,
}

# Stereo: near objects shift up to MAX_DISPARITY px between left and right.
MAX_DISPARITY = 3.0


# Entries per seed-keyed memo: a few hundred bytes each, far more than
# the distinct objects of any drive, so a pass of drives all stays warm.
OBJECT_MEMO_SIZE = 4096
# Entries per image memo (one per context x image size; 16 KB each at 64 px).
_IMAGE_MEMO_SIZE = 32

_LOCAL = threading.local()


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a memoized array read-only so no caller can mutate the cache."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=OBJECT_MEMO_SIZE)
def _seed_state(seed: int) -> dict:
    return np.random.default_rng(seed).bit_generator.state


def _object_rng(obj: SceneObject, salt: int = 0) -> np.random.Generator:
    """Per-object deterministic rng, equal to ``default_rng(seed + salt)``.

    Restores a memoized PCG64 state into this thread's one generator
    (seeding a fresh one costs ~7x more), so draw from the result before
    the next call on the same thread.
    """
    rng = getattr(_LOCAL, "rng", None)
    if rng is None:
        rng = _LOCAL.rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = _seed_state(obj.appearance_seed + salt)
    return rng


def _slice_box(box: np.ndarray, size: int) -> tuple[slice, slice]:
    x1, y1, x2, y2 = box.tolist()
    xi1 = min(max(math.floor(x1), 0), size - 1)
    yi1 = min(max(math.floor(y1), 0), size - 1)
    xi2 = min(max(math.ceil(x2), xi1 + 1), size)
    yi2 = min(max(math.ceil(y2), yi1 + 1), size)
    return slice(yi1, yi2), slice(xi1, xi2)


def disparity_of(obj: SceneObject) -> float:
    """Stereo disparity in pixels: near objects (depth 0) shift the most."""
    return MAX_DISPARITY * (1.0 - obj.depth)


# ----------------------------------------------------------------------
# Camera
# ----------------------------------------------------------------------
# typed: a numpy float64 level promotes the gradient to float64, a python
# float does not, so equal values of the two types can give different images.
@lru_cache(maxsize=_IMAGE_MEMO_SIZE, typed=True)
def _camera_base(sky_level: float, road_level: float, size: int) -> np.ndarray:
    """Sky/road gradient with lane markings, (S, S) read-only.

    The scene is grey: all three colour channels equal this image.
    """
    img = np.zeros((size, size), dtype=np.float32)
    horizon = int(0.35 * size)
    rows = np.linspace(0, 1, size, dtype=np.float32)[:, None]
    sky = sky_level * (1.0 - 0.3 * rows)
    road = road_level * (0.8 + 0.4 * rows)
    img[:] = np.where(np.arange(size)[:, None] < horizon, sky, road)
    # Lane markings: two light dashed stripes converging toward the horizon.
    for lane_x in (0.35, 0.65):
        for y in range(horizon + 2, size, 3):
            t = (y - horizon) / max(size - horizon, 1)
            x = int(size * (0.5 + (lane_x - 0.5) * t))
            if 0 <= x < size:
                img[y, max(x - 1, 0) : x + 1] += 0.25
    return _frozen(img)


def _render_camera_background(
    profile: ContextProfile, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sky/road gradient with lane markings and mild texture."""
    base = _camera_base(profile.sky_level, profile.road_level, size)
    return base + rng.normal(0.0, 0.01, size=(3, size, size)).astype(np.float32)


_VEHICLES = frozenset(("car", "van", "truck", "bus", "motorbike"))
# Palette columns: body, band (window or head), wheels; +3 = halved (border).
_BODY, _BAND, _WHEELS, _HALVED = 0, 1, 2, 3


@lru_cache(maxsize=OBJECT_MEMO_SIZE)
def _camera_palette(class_name: str, seed: int) -> np.ndarray:
    """(3, 6) float32 row colours of one object, shared by both cameras.

    The body colour is jittered by a draw from ``default_rng(seed)``.
    The band is lighter: a vehicle's window or a pedestrian/bicycle's
    head.  Columns 3-5 are columns 0-2 halved for the 1-px border.
    """
    jitter = float(np.random.default_rng(seed).uniform(0.85, 1.15))
    body = np.array(CLASS_COLORS[class_name], dtype=np.float32) * jitter
    band = np.minimum(body * (1.5 if class_name in _VEHICLES else 1.4), 1.0)
    palette = np.stack([body, band, np.full(3, 0.12, dtype=np.float32)], axis=1)
    return _frozen(np.concatenate([palette, palette * 0.5], axis=1))


@lru_cache(maxsize=256)
def _row_pattern(h: int, is_vehicle: bool) -> np.ndarray:
    """Palette column of each of an ``h``-row object's rows."""
    rows = np.full(h, _BODY, dtype=np.intp)
    if is_vehicle and h >= 4:
        # Window band near the top, wheel band at the bottom.
        rows[1 : max(h // 3, 1) + 1] = _BAND
        rows[h - max(h // 5, 1) :] = _WHEELS
    elif h >= 4:
        rows[: max(h // 4, 1)] = _BAND
    rows[[0, -1]] += _HALVED
    return _frozen(rows)


@lru_cache(maxsize=256)
def _border_columns(w: int) -> np.ndarray:
    """Per-column factor of a ``w``-wide object: its edge columns halve."""
    cols = np.ones(w, dtype=np.float32)
    cols[[0, -1]] = 0.5
    return _frozen(cols)


def _draw_camera_object(img: np.ndarray, obj: SceneObject, shift_x: float) -> None:
    """Paint one object (body, window/head band, wheel band, border).

    Every pixel is a row colour times a column factor; the border halving
    is exact in float32, so the corners' two halvings equal one quarter.
    """
    size = img.shape[1]
    box = obj.box.copy()
    box[0] += shift_x
    box[2] += shift_x
    ys, xs = _slice_box(box, size)
    h, w = ys.stop - ys.start, xs.stop - xs.start
    if h < 2 or w < 2:
        return
    palette = _camera_palette(obj.class_name, obj.appearance_seed)
    rows = palette[:, _row_pattern(h, obj.class_name in _VEHICLES)]
    np.multiply(rows[:, :, None], _border_columns(w), out=img[:, ys, xs])


def _apply_camera_degradation(
    img: np.ndarray, profile: ContextProfile, rng: np.random.Generator
) -> np.ndarray:
    deg = profile.camera
    out = img * deg.brightness
    if deg.contrast != 1.0:
        mean = out.mean()
        out = (out - mean) * deg.contrast + mean
    if deg.washout > 0:
        out = (1.0 - deg.washout) * out + deg.washout * 0.75
    if deg.blur_sigma > 0:
        out = ndimage.gaussian_filter(out, sigma=(0, deg.blur_sigma, deg.blur_sigma))
    if deg.motion_blur > 1:
        out = ndimage.uniform_filter1d(out, size=deg.motion_blur, axis=2)
    if deg.streak_density > 0:
        size = out.shape[2]
        n_streaks = int(deg.streak_density * size)
        cols = rng.choice(size, size=n_streaks, replace=False)
        for col in cols:
            start = int(rng.integers(0, out.shape[1] // 2))
            length = int(rng.integers(out.shape[1] // 4, out.shape[1]))
            out[:, start : start + length, col] += 0.22
    if deg.speckle_density > 0:
        mask = rng.random(out.shape[1:]) < deg.speckle_density
        out[:, mask] = 0.95
    out = out + rng.normal(0.0, deg.noise, size=out.shape).astype(np.float32)
    return np.clip(out, 0.0, 1.0).astype(np.float32)


@lru_cache(maxsize=OBJECT_MEMO_SIZE)
def _phantom_layout(seed: int, rate: float, size: int) -> tuple:
    """``(ys, xs, tint)`` per phantom, drawn from ``default_rng(seed)``.

    The phantom count is Poisson with the context's ``phantom_rate``.
    """
    rng = np.random.default_rng(seed)
    horizon = int(0.35 * size)
    count = int(rng.poisson(rate))
    layout = []
    for _ in range(count):
        w = float(rng.uniform(10, 26))
        h = float(rng.uniform(8, 18))
        cx = float(rng.uniform(w / 2 + 1, size - w / 2 - 1))
        cy = float(rng.uniform(horizon, size - h / 2 - 1))
        box = np.array([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])
        ys, xs = _slice_box(box, size)
        if ys.stop - ys.start < 2 or xs.stop - xs.start < 2:
            continue
        tone = float(rng.uniform(0.45, 0.7))
        tint = np.array([tone, tone * rng.uniform(0.9, 1.1), tone], dtype=np.float32)
        layout.append((ys, xs, _frozen(tint)))
    return tuple(layout)


def _draw_phantoms(img: np.ndarray, profile: ContextProfile, seed: int) -> None:
    """Paint phantom obstacles (fog banks / snow clumps / wiper smears).

    Phantoms are vehicle-sized grayish patches with a darker border —
    enough object-like structure to fool a camera detector, but they
    exist in no other modality and are absent from the ground truth.
    Both stereo views pass the *same* seed so the phantom field is
    consistent across the pair.
    """
    rate = profile.camera.phantom_rate
    if rate <= 0:
        return
    for ys, xs, tint in _phantom_layout(seed, rate, img.shape[1]):
        img[:, ys, xs] = 0.4 * img[:, ys, xs] + 0.6 * tint[:, None, None]
        img[:, ys.start, xs] *= 0.7
        img[:, ys.stop - 1, xs] *= 0.7
        img[:, ys, xs.start] *= 0.7
        img[:, ys, xs.stop - 1] *= 0.7


def render_camera(
    scene: Scene,
    profile: ContextProfile,
    rng: np.random.Generator,
    side: str = "right",
) -> np.ndarray:
    """Render one stereo camera view: (3, S, S) float32 in [0, 1].

    The right camera defines the canonical annotation frame; left-camera
    objects are shifted by their (depth-dependent) stereo disparity.  The
    left camera also gets a vignette and slightly more noise.
    """
    size = scene.image_size
    img = _render_camera_background(profile, rng, size)
    for obj in sorted(scene.objects, key=lambda o: o.depth, reverse=True):
        shift = disparity_of(obj) if side == "left" else 0.0
        _draw_camera_object(img, obj, shift)
    # Seed phantoms from the scene identity (not the passed rng) so the
    # left and right renders see the same phantom field.
    phantom_seed = scene.objects[0].appearance_seed if scene.objects else scene.image_size
    _draw_phantoms(img, profile, phantom_seed + 77)
    img = _apply_camera_degradation(img, profile, rng)
    if side == "left":
        img = img * _vignette(size)
        img += rng.normal(0.0, 0.012, size=img.shape).astype(np.float32)
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
    return img


@lru_cache(maxsize=_IMAGE_MEMO_SIZE)
def _vignette(size: int) -> np.ndarray:
    """The left camera's radial fall-off, (1, S, S) read-only."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    r2 = ((yy / size - 0.5) ** 2 + (xx / size - 0.5) ** 2) * 4.0
    return _frozen((1.0 - 0.12 * r2)[None])


# ----------------------------------------------------------------------
# Lidar
# ----------------------------------------------------------------------
def render_lidar(
    scene: Scene, profile: ContextProfile, rng: np.random.Generator
) -> np.ndarray:
    """Render the lidar map: (2, S, S) = (intensity, height) in [0, 1].

    Objects appear as point clusters with a strongly-returning outline
    (the surface facing the sensor) over a sparser interior; the second
    channel carries the cluster's height profile, the geometric class cue
    a real spinning lidar provides.
    """
    size = scene.image_size
    deg = profile.lidar
    img = np.zeros((2, size, size), dtype=np.float32)
    # Sparse ground returns.
    ground = rng.random((size, size)) < 0.015
    img[0][ground] = 0.10
    for obj in scene.objects:
        ys, xs = _slice_box(obj.box, size)
        h, w = ys.stop - ys.start, xs.stop - xs.start
        if h < 2 or w < 2:
            continue
        orng = _object_rng(obj, salt=1)
        density = CLASS_LIDAR_DENSITY[obj.class_name] * (1.0 - deg.dropout)
        mask = orng.random((h, w)) < density
        # Object outline returns are near-certain (surface facing sensor),
        # unless dropout is severe.
        edge = np.zeros((h, w), dtype=bool)
        edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
        mask |= edge & (orng.random((h, w)) < (1.0 - deg.dropout))
        intensity = CLASS_LIDAR_INTENSITY[obj.class_name]
        # Fog attenuation hits distant (high-depth) objects hardest.
        atten = deg.attenuation + (1.0 - deg.attenuation) * (1.0 - obj.depth)
        region = img[0, ys, xs]
        region[mask] = intensity * atten * float(orng.uniform(0.92, 1.08))
        img[0, ys, xs] = region
        height = CLASS_LIDAR_HEIGHT[obj.class_name]
        height_region = img[1, ys, xs]
        height_region[mask] = height * atten
        img[1, ys, xs] = height_region
    if deg.spurious > 0:
        phantom = rng.random((size, size)) < deg.spurious
        img[0][phantom] = rng.uniform(0.3, 0.9, size=int(phantom.sum())).astype(np.float32)
        img[1][phantom] = rng.uniform(0.1, 0.9, size=int(phantom.sum())).astype(np.float32)
    img[0] += rng.normal(0.0, deg.noise, size=(size, size)).astype(np.float32)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


# ----------------------------------------------------------------------
# Radar
# ----------------------------------------------------------------------
def render_radar(
    scene: Scene, profile: ContextProfile, rng: np.random.Generator
) -> np.ndarray:
    """Render the radar map: (1, S, S) in [0, 1].

    Rendered on a half-resolution grid then upsampled: the Navtech
    CTS350-X has fine azimuth resolution but still blurs object extent
    relative to camera/lidar, and carries no appearance cue beyond blob
    amplitude (RCS) and footprint.
    """
    size = scene.image_size
    deg = profile.radar
    factor = 2
    coarse = size // factor
    grid = np.zeros((coarse, coarse), dtype=np.float32)
    yy_full, xx_full = _coarse_grid(coarse)
    for obj in scene.objects:
        jitter, ghost_draw, off = _radar_draws(obj.appearance_seed + 2)
        amp = CLASS_RCS[obj.class_name] * jitter
        # Reflectivity footprint: the object's extent at coarse resolution,
        # modulated by the class's return texture (surface structure /
        # micro-doppler signature).
        box = obj.box / factor
        ys, xs = _slice_box(box, coarse)
        angle, period = CLASS_RADAR_TEXTURE[obj.class_name]
        local_y = yy_full[ys, xs]
        local_x = xx_full[ys, xs]
        phase = (local_x * np.cos(angle) + local_y * np.sin(angle)) * (2 * np.pi / period)
        stripes = 0.5 * (1.0 + np.sin(phase))
        footprint = amp * (0.55 + 0.45 * stripes)
        grid[ys, xs] = np.maximum(grid[ys, xs], footprint.astype(np.float32))
        if ghost_draw < deg.ghost_prob:
            # Multipath ghost: faint copy displaced radially.
            gbox = box + off
            gys, gxs = _slice_box(gbox, coarse)
            if gys.stop > gys.start and gxs.stop > gxs.start:
                grid[gys, gxs] = np.maximum(grid[gys, gxs], 0.3 * amp)
    # Beam spread: blur the footprints, then add clutter + receiver noise.
    grid = ndimage.gaussian_filter(grid, sigma=0.7)
    clutter = rng.exponential(deg.clutter, size=grid.shape).astype(np.float32) * 0.3
    grid = grid + clutter
    grid = grid + rng.normal(0.0, deg.noise, size=grid.shape).astype(np.float32)
    full = np.repeat(np.repeat(grid, factor, axis=0), factor, axis=1)
    return np.clip(full[None], 0.0, 1.0).astype(np.float32)


@lru_cache(maxsize=_IMAGE_MEMO_SIZE)
def _coarse_grid(coarse: int) -> np.ndarray:
    """``(yy, xx)`` float32 pixel coordinates of the radar grid, read-only."""
    return _frozen(np.mgrid[0:coarse, 0:coarse].astype(np.float32))


@lru_cache(maxsize=OBJECT_MEMO_SIZE)
def _radar_draws(seed: int) -> tuple[float, float, float]:
    """``(amplitude jitter, ghost draw, ghost offset)`` from ``default_rng(seed)``.

    The offset is drawn even when no ghost appears; the generator is
    per object, so the extra draw is unobservable.
    """
    rng = np.random.default_rng(seed)
    jitter = float(rng.uniform(0.85, 1.1))
    ghost_draw = float(rng.random())
    return jitter, ghost_draw, float(rng.uniform(3.0, 6.0))


def render_all_sensors(
    scene: Scene, profile: ContextProfile, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Render every sensor for ``scene``; keys follow :data:`SENSORS`."""
    return {
        "camera_left": render_camera(scene, profile, rng, side="left"),
        "camera_right": render_camera(scene, profile, rng, side="right"),
        "radar": render_radar(scene, profile, rng),
        "lidar": render_lidar(scene, profile, rng),
    }
