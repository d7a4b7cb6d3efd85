"""Ray-cast scenes: intersection oracles, ground-truth invariants, determinism."""

import hashlib

import numpy as np
import pytest

from pmx.errors import ContractError
from pmx.rng import SplitMix64, mix_seed_index
from pmx.scene import (
    _EPS_Z,
    ALBEDO,
    CLASS_NAMES,
    D_MAX,
    D_MIN,
    N_CLASSES,
    Box,
    Sample,
    Scene,
    SceneConfig,
    Sphere,
    camera_rays,
    cast_scene,
    generate_sample,
    generate_split,
    sample_scene,
    shade,
)
from scene_oracles import cast_whole_image, ray_box, ray_sphere


# ---- closed-form intersections ------------------------------------------------


def test_ray_sphere_head_on_hit():
    t, n = ray_sphere((0, 0, 0), (0, 0, 1), (0, 0, 5), 1.0)
    assert abs(t - 4.0) < 1e-12
    np.testing.assert_allclose(n, [0, 0, -1], atol=1e-12)


def test_ray_sphere_miss_is_none():
    assert ray_sphere((0, 0, 0), (0, 0, 1), (10, 0, 5), 1.0) is None


def test_ray_sphere_from_center_exits():
    d = np.array([0.6, 0.0, 0.8])
    t, n = ray_sphere((0, 0, 0), d, (0, 0, 0), 1.0)
    assert abs(t - 1.0) < 1e-12
    np.testing.assert_allclose(n, d, atol=1e-12)


def test_ray_box_head_on_hit():
    t, n = ray_box((0, 0, 0), (0, 0, 1), (-0.5, -0.5, 4.5), (0.5, 0.5, 5.5))
    assert abs(t - 4.5) < 1e-12
    np.testing.assert_allclose(n, [0, 0, -1], atol=1e-12)


def test_ray_box_parallel_outside_slab_misses():
    assert ray_box((0, 2, 0), (0, 0, 1), (-0.5, -0.5, 4.5), (0.5, 0.5, 5.5)) is None


def test_ray_box_corner_tie_prefers_x_then_y():
    # entering exactly along the diagonal: tx == ty == tz at the corner
    t, n = ray_box((-2, -2, -2), np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
                   (-1, -1, -1), (1, 1, 1))
    assert n[0] != 0 and n[1] == 0 and n[2] == 0


def test_ray_box_face_normals_point_against_ray():
    for d, face in [((1, 0, 0), [-1, 0, 0]), ((-1, 0, 0), [1, 0, 0]),
                    ((0, 1, 0), [0, -1, 0])]:
        o = -4.0 * np.asarray(d, dtype=float)
        t, n = ray_box(o, d, (-1, -1, -1), (1, 1, 1))
        assert abs(t - 3.0) < 1e-12
        np.testing.assert_allclose(n, face, atol=1e-12)


# ---- camera geometry -----------------------------------------------------------


def test_camera_rays_center_looks_along_z():
    rays = camera_rays(64, 64)
    assert rays.shape == (64, 64, 3)
    np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-6)
    center = rays[31:33, 31:33].mean(axis=(0, 1))
    assert center[2] > 0.99


def test_camera_rays_vertical_fov_60_degrees():
    h = 64
    rays = camera_rays(h, h)
    # pixel centers sit half a pixel inside the 60-degree edge-to-edge span,
    # so the top-row ray is unit([x_off, h/2 - 0.5, (h/2)/tan 30])
    f = (h / 2.0) / np.tan(np.radians(30.0))
    top = np.array([0.5, (h / 2.0 - 0.5), f])
    top /= np.linalg.norm(top)
    np.testing.assert_allclose(rays[0, 32], top, atol=1e-6)


# ---- cast + ground truth --------------------------------------------------------


def test_wall_only_scene_has_wall_labels_depth_normals():
    cfg = SceneConfig()
    labels, depth, normal = cast_scene(Scene(), cfg.size, cfg.size)
    top = labels[: labels.shape[0] // 4]
    assert (top == 0).all()  # upper rows see the back wall past the floor
    assert np.allclose(depth[top.shape[0] - 1], D_MAX)
    np.testing.assert_allclose(normal[0, 0], [0, 0, -1], atol=1e-12)


def test_floor_pixels_have_up_normals():
    cfg = SceneConfig()
    labels, depth, normal = cast_scene(Scene(), cfg.size, cfg.size)
    floor = labels == 1
    assert floor.any()
    np.testing.assert_allclose(normal[floor], [[0, 1, 0]] * int(floor.sum()), atol=1e-12)


def test_center_sphere_matches_scalar_oracle():
    cfg = SceneConfig()
    sph = Sphere(center=np.array([0.0, 0.0, 5.0]), radius=1.0)
    labels, depth, normal = cast_scene(Scene(spheres=[sph]), cfg.size, cfg.size)
    h = cfg.size
    rays = camera_rays(h, h)
    mid = h // 2
    for (i, j) in [(mid, mid), (mid - 3, mid + 2)]:
        got = ray_sphere((0, 0, 0), rays[i, j], sph.center, sph.radius)
        assert got is not None
        t, n = got
        assert labels[i, j] == 2
        assert abs(depth[i, j] - t * rays[i, j][2]) < 1e-5
        np.testing.assert_allclose(normal[i, j], n, atol=1e-5)


def test_box_in_front_of_wall_wins_depth_race():
    cfg = SceneConfig()
    box = Box(bmin=np.array([-0.5, -0.5, 4.0]), bmax=np.array([0.5, 0.5, 5.0]))
    labels, depth, normal = cast_scene(Scene(boxes=[box]), cfg.size, cfg.size)
    mid = cfg.size // 2
    assert labels[mid, mid] == 3
    assert abs(depth[mid, mid] - 4.0) < 1e-3
    np.testing.assert_allclose(normal[mid, mid], [0, 0, -1], atol=1e-9)


def _cast_pixel(scene, d):
    """One ray through the scalar oracles: (label, depth, normal facing the
    camera, grazing).  ``grazing`` marks a ray whose sphere discriminant or
    box slab gap t_far - t_near is within 1e-9 of zero, where one ulp of a
    3-term dot product can flip the hit."""
    hits = [(D_MAX / d[2], np.array([0.0, 0.0, -1.0]), 0)]
    if d[1] < 0:
        hits.append((-1.0 / d[1], np.array([0.0, 1.0, 0.0]), 1))
    grazing = False
    for sph in scene.spheres:
        b = 2.0 * float(d @ -sph.center)
        disc = b * b - 4.0 * (float(sph.center @ sph.center) - sph.radius ** 2)
        grazing |= abs(disc) < 1e-9
        hit = ray_sphere((0, 0, 0), d, sph.center, sph.radius)
        if hit is not None:
            hits.append((*hit, 2))
    for box in scene.boxes:
        t1, t2 = box.bmin / d, box.bmax / d
        grazing |= abs(np.maximum(t1, t2).min() - np.minimum(t1, t2).max()) < 1e-9
        hit = ray_box((0, 0, 0), d, box.bmin, box.bmax)
        if hit is not None:
            hits.append((*hit, 3))
    t, n, label = min(hits, key=lambda hit: hit[0])  # the first of equal minima
    if n @ d > 0:
        n = -n
    return label, np.clip(t * d[2], D_MIN, D_MAX), n, grazing


def _assert_matches_oracles(scene, h, w):
    """Every pixel of ``cast_scene`` against the scalar oracles; returns the
    number of grazing pixels skipped."""
    labels, depth, normal = cast_scene(scene, h, w)
    assert labels.shape == depth.shape == (h, w) and normal.shape == (h, w, 3)
    rays = camera_rays(h, w)
    skipped = 0
    for i in range(h):
        for j in range(w):
            label, z, n, grazing = _cast_pixel(scene, rays[i, j])
            if grazing:
                skipped += 1
                continue
            assert labels[i, j] == label, (i, j)
            assert abs(depth[i, j] - z) <= 1e-6 * z, (i, j)
            np.testing.assert_allclose(normal[i, j], n, rtol=0, atol=1e-6)
    return skipped


@pytest.mark.parametrize("seed,index,h,w", [(0, 0, 32, 32), (1, 4, 32, 40),
                                            (2, 5, 40, 32), (1, 0, 32, 32)])
def test_cast_scene_matches_scalar_oracles_at_every_pixel(seed, index, h, w):
    scene = sample_scene(SplitMix64(mix_seed_index(seed, index)))
    assert scene.spheres and scene.boxes
    skipped = _assert_matches_oracles(scene, h, w)
    assert skipped <= 2, f"{skipped} grazing pixels skipped"


def _assert_same_as_whole_image(scene, h, w):
    """``cast_scene`` gives the bytes of the whole-image reference cast."""
    for got, want in zip(cast_scene(scene, h, w), cast_whole_image(scene, h, w)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h,w", [(17, 17), (31, 31), (32, 40), (40, 32)])
def test_footprint_cast_equals_whole_image_cast_on_sampled_scenes(h, w):
    for seed in range(3):
        for index in range(8):
            scene = sample_scene(SplitMix64(mix_seed_index(seed, index)))
            _assert_same_as_whole_image(scene, h, w)


def _box(lo, hi):
    return Box(np.array(lo, dtype=float), np.array(hi, dtype=float))


def _sphere(center, radius):
    return Sphere(np.array(center, dtype=float), radius)


# At 32x32 the image spans x/z and y/z in [-tan 30, tan 30], and pixel row i,
# column j looks through (j + 0.5 - 16, 15.5 - i) / F32.
_TAN30 = np.tan(np.radians(30.0))
_F32 = 16.0 / _TAN30
_EDGE = 4.0 * _TAN30  # the image edge at z = 4
_EDGE_SCENES = {
    "off_screen": Scene(
        spheres=[_sphere((6.0, 0.0, 4.0), 0.5), _sphere((-3.0, -3.5, 5.0), 0.4)],
        boxes=[_box((-0.5, 5.0, 4.0), (0.5, 6.0, 5.0))]),
    "cut_by_the_edges": Scene(
        spheres=[_sphere((5.0 * _TAN30, 0.3, 5.0), 0.6)],
        boxes=[_box((-0.5, _EDGE - 0.4, 4.0), (0.5, _EDGE + 0.4, 4.5)),
               _box((-_EDGE - 0.3, -_EDGE - 0.3, 4.0), (-_EDGE + 0.3, -0.9, 4.4))]),
    # the box's x/z spans 0.157-0.166, column 20 alone; the sphere covers
    # about one pixel around row 10, column 25
    "one_pixel_wide": Scene(
        spheres=[_sphere(np.array([9.5, 5.5, _F32]) * 5.0 / _F32, 0.02)],
        boxes=[_box((0.80, -0.5, 5.0), (0.83, 0.5, 5.1))]),
    # the box's left and bottom faces lie on rays through pixel centres
    "edges_through_pixel_centres": Scene(
        boxes=[_box((-4.0 * 4.5 / _F32, -4.0 * 5.5 / _F32, 4.0), (-4.0 * 0.5 / _F32, 0.3, 4.5))]),
    "just_above_eps": Scene(
        spheres=[_sphere((-0.4, 0.1, 0.3 + 2 * _EPS_Z), 0.3)],
        boxes=[_box((0.2, -0.3, np.nextafter(_EPS_Z, 1.0)), (0.6, 0.3, 3.0))]),
    "at_and_below_eps": Scene(
        spheres=[_sphere((-0.4, 0.1, 0.3 + _EPS_Z / 2), 0.3)],
        boxes=[_box((0.2, -0.3, _EPS_Z), (0.6, 0.3, 3.0)),
               _box((-0.6, -0.5, np.nextafter(_EPS_Z, 0.0)), (-0.2, -0.3, 2.0)),
               _box((-0.6, 0.2, 0.0), (-0.2, 0.4, 2.0))]),
    "behind_the_camera": Scene(
        spheres=[_sphere((0.0, 0.0, -3.0), 1.0)],
        boxes=[_box((-1.0, -1.0, -4.0), (1.0, 1.0, -2.0))]),
    # bounds behind the camera plane project mirrored: cast over the whole image
    "straddling_the_camera_plane": Scene(
        spheres=[_sphere((0.5, 0.0, 0.2), 0.4)],
        boxes=[_box((0.2, -0.25, -1.0), (0.4, 0.15, 3.0))]),
}


@pytest.mark.parametrize("name", sorted(_EDGE_SCENES))
def test_footprint_cast_equals_whole_image_cast_at_the_edges(name):
    scene = _EDGE_SCENES[name]
    for h, w in ((32, 32), (17, 17), (32, 40), (40, 32)):
        _assert_same_as_whole_image(scene, h, w)
    assert _assert_matches_oracles(scene, 32, 32) <= 16


def test_camera_inside_sphere_sees_exit_hits_facing_the_camera():
    scene = Scene(spheres=[Sphere(center=np.array([0.1, 0.05, 0.3]), radius=1.0)])
    assert _assert_matches_oracles(scene, 16, 16) == 0
    labels, _, normal = cast_scene(scene, 16, 16)
    assert (labels == 2).all()
    assert ((normal * camera_rays(16, 16)).sum(axis=-1) < 0).all()


@pytest.mark.parametrize("zmax", [0.5, 50.0])
def test_camera_inside_box_sees_exit_faces_facing_the_camera(zmax):
    # zmax 0.5: every ray leaves through the z face; zmax 50: through the x
    # and y faces (diagonal ties go to x), or the wall is nearer
    scene = Scene(boxes=[Box(np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, zmax]))])
    assert _assert_matches_oracles(scene, 16, 16) == 0
    labels, _, normal = cast_scene(scene, 16, 16)
    assert (labels == 3).sum() >= 16 * 16 // 2
    assert ((normal * camera_rays(16, 16)).sum(axis=-1) < 0).all()


def test_box_entry_ties_go_to_x_then_y_then_z():
    # pixel (27, 36) of a 64x64 image looks along d with d_x == d_y exactly;
    # a box whose min corner lies on that ray is entered through x, y and z at
    # once (or x and y), and the x face takes the pixel, as in ray_box
    i, j = 27, 36
    d = camera_rays(64, 64)[i, j]
    assert d[0] == d[1]
    a = 0.3
    for zmin in (a / d[0] * d[2], 2.0):
        bmin = np.array([a, a, zmin])
        bmax = bmin + np.array([1.0, 1.0, 5.0])
        labels, _, normal = cast_scene(Scene(boxes=[Box(bmin, bmax)]), 64, 64)
        assert labels[i, j] == 3
        assert normal[i, j].tolist() == [-1.0, 0.0, 0.0]
        assert ray_box((0, 0, 0), d, bmin, bmax)[1].tolist() == [-1.0, 0.0, 0.0]


def test_box_face_in_wall_plane_keeps_wall_label():
    # the box's front face and the wall give every such ray the same t, and
    # the wall, visited first, keeps the pixel; a millimetre forward, the box wins
    cfg = SceneConfig()
    n = cfg.size

    def box_at(front):
        return Scene(boxes=[Box(np.array([-1.0, -0.5, front]), np.array([1.0, 0.5, front + 1.0]))])

    empty = cast_scene(Scene(), n, n)
    tied = cast_scene(box_at(D_MAX), n, n)
    for a, b in zip(empty, tied):
        assert np.array_equal(a, b)
    ahead = cast_scene(box_at(D_MAX - 1e-3), n, n)[0]
    assert (ahead == 3).sum() > 50


def test_generated_samples_satisfy_invariants():
    cfg = SceneConfig()
    for s in generate_split(seed=3, count=100, cfg=cfg):
        assert s.image.dtype == np.float32 and s.image.min() >= 0 and s.image.max() <= 1
        assert s.labels.dtype == np.uint8 and s.labels.max() < N_CLASSES
        assert s.depth.min() >= D_MIN - 1e-6 and s.depth.max() <= D_MAX + 1e-6
        norms = np.linalg.norm(s.normal.astype(np.float64), axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_depth_finite_differences_agree_with_normals_on_planes():
    # on interior floor pixels the stored normal and the normal implied by the
    # depth gradient agree within 5 degrees
    cfg = SceneConfig()
    s = generate_sample(seed=11, index=0, cfg=cfg)
    h, w = s.labels.shape
    rays = camera_rays(h, w)
    pts = rays * (s.depth.astype(np.float64) / rays[..., 2])[..., None]
    checked = 0
    for i in range(2, h - 2):
        for j in range(2, w - 2):
            region = s.labels[i - 1 : i + 2, j - 1 : j + 2]
            if not (region == 1).all():
                continue
            dx = pts[i, j + 1] - pts[i, j - 1]
            dy = pts[i + 1, j] - pts[i - 1, j]
            n = np.cross(dy, dx)
            n /= np.linalg.norm(n)
            if n @ rays[i, j] > 0:
                n = -n
            cosang = abs(float(n @ s.normal[i, j].astype(np.float64)))
            assert np.degrees(np.arccos(min(1.0, cosang))) < 5.0
            checked += 1
    assert checked > 50


def test_sample_regeneration_is_bit_identical():
    cfg = SceneConfig()
    a = generate_sample(seed=9, index=4, cfg=cfg)
    b = generate_sample(seed=9, index=4, cfg=cfg)
    for field in ("image", "labels", "depth", "normal"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def _noise_free_sample(seed: int, index: int, size: int) -> Sample:
    """``generate_sample`` without its pixel noise: the same scene, ground
    truth and shading, with the shaded image clipped to [0, 1]."""
    scene = sample_scene(SplitMix64(mix_seed_index(seed, index)))
    labels, depth, normal = cast_scene(scene, size, size)
    image = np.clip(shade(labels, normal), 0.0, 1.0)
    return Sample(image=image.astype(np.float32), labels=labels,
                  depth=depth.astype(np.float32), normal=normal.astype(np.float32))


# (seed, index, size, noise) -> the first 16 hex digits of the sha256 of the
# bytes of image, labels, depth and normal: any change to what the generator
# writes fails here.  Sizes 16-128, a noise-free image, and scenes with spheres
# and boxes together (0/0, 1/4, 2/5), boxes only (2/3, 0/7) and a sphere only (0/2).
# At the odd sizes 17 and 31 the centre row and column have zero ray components,
# which the box slab divisors replace by 1e-12; both scenes have a box there.
_GOLDEN = [
    (0, 0, 16, True,
     ("170ade5546b165c5", "45183e8e0f7db6fd", "12e02a8671f1855b", "bd49d5284a49412b")),
    (2, 3, 16, True,
     ("9fee4ae3b19b1537", "d472c2596ffea2c6", "756e5359c4a55901", "5caf121a3e0b1191")),
    (0, 7, 32, True,
     ("b23db3d78152e9cd", "29ecd27f43765517", "67435038c0c16a1d", "64a8cc89b744bfe4")),
    (1, 4, 64, True,
     ("301630bbfb0a64ef", "4c37c8d402009f7b", "471f9af1bd40f06d", "30c8c6ebf51d754e")),
    (0, 2, 64, True,
     ("e18906c694602440", "3277aa6b306ef139", "7cfbf911947059b2", "89c7c9b1f7212e96")),
    (1, 0, 64, False,
     ("ab36bb09a8a60f32", "c69381073abff839", "754a173bcabae79e", "daafdbfa56a0618c")),
    (2, 5, 128, True,
     ("50e0d112cdfe641a", "3bdf2c3eea2f6465", "bf48c1806cf25384", "38824ba69dcaf894")),
    (0, 0, 17, True,
     ("b82ff872fa823ae6", "86f6d5c2dc3e8ff0", "d9bc332322592e1e", "8144578ee4ac646b")),
    (2, 4, 31, False,
     ("325f03ec87ce0597", "8211451b8ad8e6a4", "f3906f9bb89c82d1", "0461dc1de0a47f7e")),
]


def test_generated_bytes_golden():
    fields = ("image", "labels", "depth", "normal")
    dtypes = (np.float32, np.uint8, np.float32, np.float32)
    for seed, index, n, noise, want in _GOLDEN:
        if noise:
            s = generate_sample(seed, index, SceneConfig(size=n))
        else:
            s = _noise_free_sample(seed, index, n)
        for name, dtype, digest in zip(fields, dtypes, want):
            arr = getattr(s, name)
            assert arr.dtype == dtype
            assert arr.shape == ((n, n, 3) if name in ("image", "normal") else (n, n))
            got = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
            assert got == digest, f"seed {seed} index {index} size {n} {name}"


def test_split_sample_matches_lone_regeneration():
    cfg = SceneConfig()
    split = generate_split(seed=21, count=4, cfg=cfg)
    lone = generate_sample(seed=21, index=2, cfg=cfg)
    assert np.array_equal(split[2].image, lone.image)
    assert np.array_equal(split[2].labels, lone.labels)


def test_different_seeds_give_different_label_histograms():
    cfg = SceneConfig()
    h1 = np.bincount(
        np.concatenate([s.labels.ravel() for s in generate_split(seed=1, count=8, cfg=cfg)]),
        minlength=4,
    )
    h2 = np.bincount(
        np.concatenate([s.labels.ravel() for s in generate_split(seed=2, count=8, cfg=cfg)]),
        minlength=4,
    )
    assert not np.array_equal(h1, h2)


def test_all_classes_appear_across_a_split():
    cfg = SceneConfig()
    seen = set()
    for s in generate_split(seed=0, count=20, cfg=cfg):
        seen.update(np.unique(s.labels).tolist())
    assert seen == {0, 1, 2, 3}


def test_shading_brightens_toward_light():
    # noise-free image: a lit wall pixel is albedo*(ambient+diffuse*cos), so
    # image values stay within [ambient*albedo, albedo]
    s = _noise_free_sample(seed=2, index=0, size=64)
    wall = s.labels == 0
    vals = s.image[wall].astype(np.float64)
    assert (vals <= ALBEDO[0] + 1e-6).all()
    assert (vals >= 0.25 * ALBEDO[0] - 1e-6).all()


def test_config_validation_rejects_nonsense():
    with pytest.raises(ContractError):
        SceneConfig(size=8)
    with pytest.raises(ContractError):
        SceneConfig(size=65536)     # the dataset header stores H, W as u16
    SceneConfig(size=65535)


def test_class_names_cover_the_label_set():
    assert len(CLASS_NAMES) == N_CLASSES == 4
