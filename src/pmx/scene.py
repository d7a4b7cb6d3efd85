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

Casting works on planes of pixels.  Each image size's rays are built once
and kept read-only, as ``(h, w, 3)`` directions and as x/y/z planes, with
that size's empty room: the mask of pixels where the floor is nearer than
the wall, and the t of that hit.  A z-buffer starts from the room and
visits the spheres, then the boxes; a hit takes a pixel only when its t is
strictly smaller, so of equal hits the first in the order wall, floor,
spheres, boxes wins (a box face in the wall plane stays wall).  Each
intersection returns the normal that faces the camera: inward on a
sphere's exit hit (the camera inside it), and -sign(d) on the axis of a
box face.  Each primitive is cast only inside its footprint, the pixels
whose centres its bounds project to plus a pixel of margin, or over the
whole image when its bounds reach the camera plane.  A footprint leaves
out only rays that miss the primitive, so the output is bit for bit that
of casting over the whole image.

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
_EPS_Z = 1e-6  # bounds reaching this near the camera plane are cast over the whole image
_MARGIN = 1    # pixels added around each footprint for rounding in the projection


@dataclass(frozen=True)
class SceneConfig:
    size: int = 64

    def __post_init__(self) -> None:
        if self.size < 16:
            raise ContractError(f"image size {self.size} below minimum 16")
        if self.size > MAX_SIZE:
            raise ContractError(f"image size {self.size} above maximum {MAX_SIZE}")


@dataclass
class Sample:
    image: np.ndarray   # (H, W, 3) float32 in [0, 1]
    labels: np.ndarray  # (H, W) uint8
    depth: np.ndarray   # (H, W) float32 in [D_MIN, D_MAX]
    normal: np.ndarray  # (H, W, 3) float32, unit rows facing the camera (n . ray < 0)


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


def _focal(h: int) -> float:
    """Focal length in pixels: the 60 degree vertical FOV spans h pixels."""
    return (h / 2.0) / math.tan(math.radians(30.0))


def camera_rays(h: int, w: int) -> np.ndarray:
    """(h, w, 3) unit ray directions for pixel centers.  Camera at the
    origin, +z forward, +y up; the vertical FOV spans exactly 60 degrees
    between the top and bottom pixel edges."""
    f = _focal(h)
    xs = (np.arange(w, dtype=np.float64) + 0.5) - w / 2.0
    ys = -((np.arange(h, dtype=np.float64) + 0.5) - h / 2.0)
    dirs = np.empty((h, w, 3), dtype=np.float64)
    dirs[:, :, 0] = xs[None, :]
    dirs[:, :, 1] = ys[:, None]
    dirs[:, :, 2] = f
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs


@lru_cache(maxsize=8)
def _ray_planes(h: int, w: int) -> Tuple[np.ndarray, ...]:
    """Read-only rays for one image size, built once: the ``(h, w, 3)``
    directions, their ``(3, h, w)`` x/y/z planes, the planes with
    components below 1e-12 in magnitude replaced by 1e-12 (the box slab
    divisors; the planes themselves unless a size is odd), and the empty
    room: the ``(h, w)`` mask of rays that hit the floor before the wall,
    and the t of that nearer hit."""
    dirs = camera_rays(h, w)
    planes = np.ascontiguousarray(dirs.transpose(2, 0, 1))
    tiny = np.abs(planes) < 1e-12
    slab = np.where(tiny, 1e-12, planes) if tiny.any() else planes
    t_wall = D_MAX / planes[2]
    with np.errstate(divide="ignore"):
        t_floor = np.where(planes[1] < 0, -1.0 / planes[1], np.inf)
    floor = t_floor < t_wall  # strict: of equal hits, the wall keeps the pixel
    t_room = np.where(floor, t_floor, t_wall)
    for arr in (dirs, planes, slab, floor, t_room):
        arr.flags.writeable = False
    return dirs, planes, slab, floor, t_room


def _footprint(lo: np.ndarray, hi: np.ndarray, h: int, w: int) -> Tuple[slice, slice]:
    """Rows and columns of the pixels whose rays can meet the axis-aligned
    bounds [lo, hi]: those whose centres project inside the bounding
    rectangle of the eight projected corners, widened by _MARGIN pixels for
    rounding and clipped to the image.  Bounds that reach z <= _EPS_Z (the
    camera inside, or a primitive straddling or behind the camera plane)
    do not project, and get the whole image."""
    (x0, y0, z0), (x1, y1, z1) = lo.tolist(), hi.tolist()
    if z0 <= _EPS_Z:
        return slice(0, h), slice(0, w)
    f = _focal(h)
    # pixel row i looks through y/z = (h/2 - 0.5 - i)/f and column j through
    # x/z = (j + 0.5 - w/2)/f; clipping keeps huge quotients finite
    rows = [min(max(h / 2.0 - 0.5 - f * y / z, -2.0), h + 2.0)
            for y in (y0, y1) for z in (z0, z1)]
    cols = [min(max(w / 2.0 - 0.5 + f * x / z, -2.0), w + 2.0)
            for x in (x0, x1) for z in (z0, z1)]
    return tuple(slice(max(0, math.ceil(min(v)) - _MARGIN),
                       max(0, math.floor(max(v)) + 1 + _MARGIN)) for v in (rows, cols))


def _cast_sphere(dirs: np.ndarray, planes: np.ndarray, sph: Sphere, win: Tuple[slice, slice]):
    """Nearest hit t (+inf on a miss) and the camera-facing normal planes
    over the pixel window ``win``: inward on exit hits (camera inside)."""
    c, r = sph.center, sph.radius
    # the product runs over the whole image, then is cropped: BLAS may sum
    # a sub-block in another order
    b = 2.0 * (dirs @ (-c))[win]
    c0 = float(c @ c) - r * r
    disc = b * b - 4.0 * c0
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    t0 = (-b - sq) / 2.0
    t1 = (-b + sq) / 2.0
    t = np.where(t0 > _EPS_T, t0, np.where(t1 > _EPS_T, t1, np.inf))
    t = np.where(ok, t, np.inf)
    tn = np.where(np.isfinite(t), t, 1.0)
    rs = np.where(t0 > _EPS_T, r, -r)  # exit hits divide by -r to face the camera
    n = [(tn * planes[k][win] - c[k]) / rs for k in range(3)]
    return t, n


def _cast_box(slab: np.ndarray, box: Box, win: Tuple[slice, slice]):
    """Slab-method entry t (+inf on a miss) and camera-facing normal planes
    over the pixel window ``win``: -sign(d) on the entry face's axis, equal
    entry times going to x, then y, then z.  A box that contains the camera
    gives its exit t, with -sign(d) on the earliest axis bounding the exit."""
    slab = slab[:, win[0], win[1]]
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
    hit = (t_near <= t_far) & (t_near > _EPS_T)
    t = np.where(hit, t_near, np.inf)
    n = [np.where(axis == k, -np.sign(slab[k]), 0.0) for k in range(3)]
    return t, n


def cast_scene(scene: Scene, h: int, w: int):
    """Analytic ground truth for every pixel: labels, depth, normal.

    The z-buffer starts from the empty room that ``_ray_planes`` keeps,
    with normals from its floor mask.  Each sphere and box is merged only
    inside its footprint, with normals that already face the camera, so
    the merged planes are the output as they stand."""
    dirs, planes, slab, floor, t_room = _ray_planes(h, w)
    t_best = t_room.copy()
    labels = floor.astype(np.uint8)  # class 1 on the floor, 0 on the wall
    n_y = floor.astype(np.float64)
    n_best = [np.zeros((h, w)), n_y, n_y - 1.0]  # floor (0, 1, 0), wall (0, 0, -1)
    prims = [(2, sph, sph.center - sph.radius, sph.center + sph.radius) for sph in scene.spheres]
    prims += [(3, box, box.bmin, box.bmax) for box in scene.boxes]
    for cls, prim, lo, hi in prims:
        win = _footprint(lo, hi, h, w)
        if cls == 2:
            t, n = _cast_sphere(dirs, planes, prim, win)
        else:
            t, n = _cast_box(slab, prim, win)
        t_win = t_best[win]
        closer = t < t_win  # strict: of equal hits, the first keeps the pixel
        np.copyto(t_win, t, where=closer)
        for bk, nk in zip(n_best, n):
            np.copyto(bk[win], nk, where=closer)
        labels[win][closer] = cls
    # hand-built scenes can put a hit nearer than D_MIN
    depth = np.clip(t_best * planes[2], D_MIN, D_MAX)
    return labels, depth, np.stack(n_best, axis=-1)


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
