"""Reference forms of the scene caster.

``pmx.scene.cast_scene`` intersects every pixel's ray at once, each
primitive only inside its footprint.  Its tests compare it against the
one-ray forms below and, byte for byte, against ``cast_whole_image``, the
same z-buffer with every primitive intersected over the whole image.
"""

import math
from typing import Optional, Tuple

import numpy as np

from pmx.scene import _EPS_T, D_MAX, D_MIN, camera_rays


def ray_sphere(origin, direction, center, radius) -> Optional[Tuple[float, np.ndarray]]:
    """Smallest t > 1e-6 with |o + t d - c| = r, and the outward normal
    (hit - c)/r there.  None on a miss.  A ray starting inside returns the
    exit hit, whose normal points along the ray."""
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    c = np.asarray(center, dtype=np.float64)
    oc = o - c
    b = 2.0 * float(d @ oc)
    c0 = float(oc @ oc) - radius * radius
    disc = b * b - 4.0 * c0
    if disc < 0:
        return None
    sq = math.sqrt(disc)
    for t in ((-b - sq) / 2.0, (-b + sq) / 2.0):
        if t > _EPS_T:
            hit = o + t * d
            return t, (hit - c) / radius
    return None


def ray_box(origin, direction, box_min, box_max) -> Optional[Tuple[float, np.ndarray]]:
    """Slab-method nearest hit with t > 1e-6; normal is the face normal of
    the slab that bounds entry.  Equal entry times are broken in x, y, z
    order.  A ray starting inside returns the exit face."""
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    bmin = np.asarray(box_min, dtype=np.float64)
    bmax = np.asarray(box_max, dtype=np.float64)
    t_near, t_far = -math.inf, math.inf
    ax_near, ax_far = -1, -1
    for a in range(3):
        if abs(d[a]) < 1e-12:
            if o[a] < bmin[a] or o[a] > bmax[a]:
                return None
            continue
        t1 = (bmin[a] - o[a]) / d[a]
        t2 = (bmax[a] - o[a]) / d[a]
        lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
        if lo > t_near:  # strict: the earliest axis keeps ties
            t_near, ax_near = lo, a
        if hi < t_far:
            t_far, ax_far = hi, a
    if t_near > t_far or t_far <= _EPS_T:
        return None
    if t_near > _EPS_T:
        n = np.zeros(3)
        n[ax_near] = -math.copysign(1.0, d[ax_near])
        return t_near, n
    n = np.zeros(3)
    n[ax_far] = math.copysign(1.0, d[ax_far])
    return t_far, n


def cast_whole_image(scene, h: int, w: int):
    """Labels, depth and normal with the wall, the floor and every sphere
    and box intersected and merged over all h x w rays, in that order."""
    dirs = camera_rays(h, w)
    planes = np.ascontiguousarray(dirs.transpose(2, 0, 1))
    slab = np.where(np.abs(planes) < 1e-12, 1e-12, planes)
    t_best = D_MAX / planes[2]
    n_best = (0.0, 0.0, -1.0)
    labels = np.zeros((h, w), dtype=np.uint8)
    with np.errstate(divide="ignore"):
        t_floor = np.where(planes[1] < 0, -1.0 / planes[1], np.inf)
    hits = [(1, t_floor, (0.0, 1.0, 0.0))]
    hits += [(2, *_sphere_planes(dirs, planes, sph)) for sph in scene.spheres]
    hits += [(3, *_box_planes(slab, box)) for box in scene.boxes]
    for cls, t, n in hits:
        closer = t < t_best
        t_best = np.where(closer, t, t_best)
        n_best = [np.where(closer, nk, bk) for nk, bk in zip(n, n_best)]
        labels[closer] = cls
    facing = (n_best[0] * planes[0] + n_best[1] * planes[1]) + n_best[2] * planes[2]
    flip = facing > 0
    normal = np.empty((h, w, 3))
    for k, nk in enumerate(n_best):
        normal[:, :, k] = np.where(flip, -nk, nk)
    depth = np.clip(t_best * planes[2], D_MIN, D_MAX)
    return labels, depth, normal


def _sphere_planes(dirs, planes, sph):
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
    return t, [(tn * planes[k] - c[k]) / r for k in range(3)]


def _box_planes(slab, box):
    t1 = box.bmin[:, None, None] / slab
    t2 = box.bmax[:, None, None] / slab
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    t_near = np.maximum(lo[0], lo[1])
    axis = np.where(lo[1] > lo[0], 1, 0)
    axis = np.where(lo[2] > t_near, 2, axis)
    t_near = np.maximum(t_near, lo[2])
    t_far = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    enter = t_near > _EPS_T
    far_axis = np.where(hi[1] < hi[0], 1, 0)
    far_axis = np.where(hi[2] < np.minimum(hi[0], hi[1]), 2, far_axis)
    t_near = np.where(enter, t_near, t_far)
    axis = np.where(enter, axis, far_axis)
    sign = np.where(enter, -1.0, 1.0)
    hit = (t_near <= t_far) & (t_near > _EPS_T)
    t = np.where(hit, t_near, np.inf)
    return t, [np.where(axis == k, sign * np.sign(slab[k]), 0.0) for k in range(3)]
