"""Scalar reference forms of the scene caster's ray intersections.

``pmx.scene.cast_scene`` intersects every pixel's ray at once; these
one-ray forms are the oracles its tests compare against.
"""

import math
from typing import Optional, Tuple

import numpy as np

from pmx.scene import _EPS_T


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
