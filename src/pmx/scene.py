"""Procedural ray-cast scenes with exact dense ground truth.

Each sample is an indoor-like arrangement: a back wall (class 0) at
z = D_MAX, a floor plane (class 1) at y = -1, and NUM_PRIMS_MIN to
NUM_PRIMS_MAX (1 to 4) primitives (spheres, class 2; axis-aligned boxes,
class 3) resting in front of a pinhole camera at the origin looking along
+z with a 60 degree vertical field of view.

One ray per pixel gives, analytically: the semantic class of the nearest
hit, its z-depth (the z coordinate of the hit point, not the ray length,
clamped to [D_MIN, D_MAX] = [0.5, 10]), and the camera-frame surface normal
oriented so n . ray < 0.  The image is Lambertian shading over a per-class
albedo with the fixed unit light direction LIGHT, plus Gaussian pixel noise
of std NOISE_STD.  These settings are constants; SceneConfig holds only the
image size.

Casting works on whole images.  The rays of each image size are built
once and kept read-only, both as ``(h, w, 3)`` directions and as three
``(h, w)`` x/y/z planes, so every intersection is elementwise arithmetic on
planes.  A running z-buffer then visits the hits in a fixed order (wall,
floor, spheres, boxes) and lets a hit take a pixel only when its t is
strictly smaller than the best so far.  Of equal hits the first in that
order wins, so a box face lying in the wall plane stays wall.

Everything is a pure function of (seed, index, size), so any sample can
be regenerated alone, in any order, bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .errors import ContractError
from .rng import SplitMix64, mix_seed_index

N_CLASSES = 4
CLASS_NAMES = ("back_wall", "floor", "sphere", "box")

# shading constants: albedo per class, ambient + diffuse split, light, noise std
ALBEDO = np.array(
    [
        [0.30, 0.42, 0.88],
        [0.32, 0.80, 0.38],
        [0.88, 0.30, 0.30],
        [0.90, 0.82, 0.30],
    ]
)
AMBIENT = 0.25
DIFFUSE = 0.75
LIGHT = np.array([0.35, 0.75, -0.55])
LIGHT /= np.linalg.norm(LIGHT)
NOISE_STD = 0.01

NUM_PRIMS_MIN, NUM_PRIMS_MAX = 1, 4   # primitives per scene
D_MIN, D_MAX = 0.5, 10.0              # depth range; the back wall stands at D_MAX
MAX_SIZE = 65535                      # the dataset header stores H and W as u16

_EPS_T = 1e-6


@dataclass(frozen=True)
class SceneConfig:
    size: int = 64

    def validate(self) -> None:
        if self.size < 16:
            raise ContractError(f"image size {self.size} below minimum 16")
        if self.size > MAX_SIZE:
            raise ContractError(f"image size {self.size} above maximum {MAX_SIZE}")


@dataclass
class Sample:
    image: np.ndarray   # (H, W, 3) float32 in [0, 1]
    labels: np.ndarray  # (H, W) uint8
    depth: np.ndarray   # (H, W) float32 in [D_MIN, D_MAX]
    normal: np.ndarray  # (H, W, 3) float32, unit rows, n.z <= 0 hemisphere


@dataclass
class Sphere:
    center: np.ndarray
    radius: float


@dataclass
class Box:
    bmin: np.ndarray
    bmax: np.ndarray


@dataclass
class Scene:
    spheres: List[Sphere] = field(default_factory=list)
    boxes: List[Box] = field(default_factory=list)


# ---- camera and vectorized casting -------------------------------------------


def camera_rays(h: int, w: int) -> np.ndarray:
    """(h, w, 3) unit ray directions for pixel centers.  Camera at the
    origin, +z forward, +y up; the vertical FOV spans exactly 60 degrees
    between the top and bottom pixel edges."""
    f = (h / 2.0) / math.tan(math.radians(30.0))
    xs = (np.arange(w, dtype=np.float64) + 0.5) - w / 2.0
    ys = -((np.arange(h, dtype=np.float64) + 0.5) - h / 2.0)
    dirs = np.empty((h, w, 3), dtype=np.float64)
    dirs[:, :, 0] = xs[None, :]
    dirs[:, :, 1] = ys[:, None]
    dirs[:, :, 2] = f
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs


@lru_cache(maxsize=8)
def _ray_planes(h: int, w: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rays for one image size, built once: the ``(h, w, 3)``
    directions, their ``(3, h, w)`` x/y/z planes, and the planes with
    components below 1e-12 in magnitude replaced by 1e-12 (the box slab
    divisors; the planes themselves unless a size is odd)."""
    dirs = camera_rays(h, w)
    planes = np.ascontiguousarray(dirs.transpose(2, 0, 1))
    tiny = np.abs(planes) < 1e-12
    slab = np.where(tiny, 1e-12, planes) if tiny.any() else planes
    for arr in (dirs, planes, slab):
        arr.flags.writeable = False
    return dirs, planes, slab


def _cast_sphere(dirs: np.ndarray, planes: np.ndarray, sph: Sphere):
    """Nearest hit t (+inf on a miss) and the outward normal planes."""
    c, r = sph.center, sph.radius
    b = 2.0 * (dirs @ (-c))
    c0 = float(c @ c) - r * r
    disc = b * b - 4.0 * c0
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t0 = (-b - sq) / 2.0
    t1 = (-b + sq) / 2.0
    t = np.where(t0 > _EPS_T, t0, np.where(t1 > _EPS_T, t1, np.inf))
    t = np.where(ok, t, np.inf)
    tn = np.where(np.isfinite(t), t, 1.0)
    n = [(tn * planes[k] - c[k]) / r for k in range(3)]
    return t, n


def _cast_box(slab: np.ndarray, box: Box):
    """Slab-method entry t (+inf on a miss) and the entry face's normal
    planes; equal entry times go to the earlier axis, x then y then z.  A
    box that contains the camera gives its exit t instead, with the normal
    +sign(d) of the earliest axis that bounds the exit."""
    t1 = box.bmin[:, None, None] / slab  # origin is 0
    t2 = box.bmax[:, None, None] / slab
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    t_near = np.maximum(lo[0], lo[1])
    axis = np.where(lo[1] > lo[0], 1, 0)
    axis = np.where(lo[2] > t_near, 2, axis)
    t_near = np.maximum(t_near, lo[2])
    t_far = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    # a ray with t_near <= 1e-6 starts inside the box or misses it; from
    # inside, it hits the exit face
    enter = t_near > _EPS_T
    far_axis = np.where(hi[1] < hi[0], 1, 0)
    far_axis = np.where(hi[2] < np.minimum(hi[0], hi[1]), 2, far_axis)
    t_near = np.where(enter, t_near, t_far)
    axis = np.where(enter, axis, far_axis)
    sign = np.where(enter, -1.0, 1.0)
    hit = (t_near <= t_far) & (t_near > _EPS_T)
    t = np.where(hit, t_near, np.inf)
    n = [np.where(axis == k, sign * np.sign(slab[k]), 0.0) for k in range(3)]
    return t, n


def cast_scene(scene: Scene, h: int, w: int):
    """Analytic ground truth for every pixel: labels, depth, normal."""
    dirs, planes, slab = _ray_planes(h, w)
    dz = planes[2]
    # the back wall z = D_MAX is always hit: the running z-buffer starts there
    t_best = D_MAX / dz
    n_best = (0.0, 0.0, -1.0)
    labels = np.zeros((h, w), dtype=np.uint8)
    with np.errstate(divide="ignore"):
        t_floor = np.where(planes[1] < 0, -1.0 / planes[1], np.inf)
    hits = [(1, t_floor, (0.0, 1.0, 0.0))]
    hits += [(2, *_cast_sphere(dirs, planes, sph)) for sph in scene.spheres]
    hits += [(3, *_cast_box(slab, box)) for box in scene.boxes]
    for cls, t, n in hits:
        closer = t < t_best  # strict: of equal hits, the first keeps the pixel
        t_best = np.where(closer, t, t_best)
        n_best = [np.where(closer, nk, bk) for nk, bk in zip(n, n_best)]
        labels[closer] = cls
    # orient toward the camera (exit hits of spheres face away); the dot
    # product sums x, y, z left to right, as numpy's sum over that axis does
    facing = (n_best[0] * planes[0] + n_best[1] * planes[1]) + n_best[2] * planes[2]
    flip = facing > 0
    normal = np.empty((h, w, 3))
    for k, nk in enumerate(n_best):
        normal[:, :, k] = np.where(flip, -nk, nk)
    depth = np.clip(t_best * dz, D_MIN, D_MAX)
    return labels, depth, normal


# ---- procedural sampling -------------------------------------------------------


def sample_scene(gen: SplitMix64) -> Scene:
    """Draw primitive poses from the generator in a fixed order."""
    count = NUM_PRIMS_MIN + gen.next_below(NUM_PRIMS_MAX - NUM_PRIMS_MIN + 1)
    scene = Scene()
    for _ in range(count):
        kind = gen.next_below(2)
        if kind == 0:
            r = 0.4 + 0.5 * gen.next_float()
            x = -2.5 + 5.0 * gen.next_float()
            y = -1.0 + r + 1.2 * gen.next_float()
            z = 3.0 + 5.0 * gen.next_float()
            scene.spheres.append(Sphere(np.array([x, y, z]), r))
        else:
            hx = 0.3 + 0.5 * gen.next_float()
            hy = 0.3 + 0.5 * gen.next_float()
            hz = 0.3 + 0.5 * gen.next_float()
            x = -2.5 + 5.0 * gen.next_float()
            z = 3.0 + 5.0 * gen.next_float()
            c = np.array([x, -1.0 + hy, z])
            half = np.array([hx, hy, hz])
            scene.boxes.append(Box(c - half, c + half))
    return scene


def shade(labels: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Lambertian image: albedo[class] * (ambient + diffuse * max(0, n.L))."""
    lam = AMBIENT + DIFFUSE * np.maximum(0.0, normal @ LIGHT)
    return ALBEDO[labels] * lam[..., None]


def generate_sample(seed: int, index: int, cfg: SceneConfig) -> Sample:
    """Pure function of (seed, index, cfg.size)."""
    cfg.validate()
    gen = SplitMix64(mix_seed_index(seed, index))
    h = w = cfg.size
    scene = sample_scene(gen)
    labels, depth, normal = cast_scene(scene, h, w)
    image = shade(labels, normal)
    noise = gen.normals(h * w * 3).reshape(h, w, 3) * NOISE_STD
    image = np.clip(image + noise, 0.0, 1.0)
    return Sample(
        image=image.astype(np.float32),
        labels=labels,
        depth=depth.astype(np.float32),
        normal=normal.astype(np.float32),
    )


def generate_split(seed: int, count: int, cfg: SceneConfig) -> List[Sample]:
    if count < 1:
        raise ContractError(f"split size {count} must be >= 1")
    return [generate_sample(seed, i, cfg) for i in range(count)]
