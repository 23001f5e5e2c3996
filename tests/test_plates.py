import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.core import HeisBall, gauge_norm, heis_dist
from heislab.delta_sets import generate
from heislab.duality import LightRay, dual_ray
from heislab.plates import (ModifiedPlate, Plate, _modified_contains_arrays,
                            _plate_candidates, _uniform_euclidean_ball,
                            ball_to_modified_plate, center_decomposition,
                            compose_center, count_memberships,
                            direction_bin, plate_to_ball,
                            rect_contains, same_direction_separation,
                            shear_matrix)
from heislab.sampling import ball_points, make_rng

coord = st.floats(-1, 1, allow_nan=False)


def contains_grid(plate, q, n_grid=65, tol=1e-9):
    """Grid + golden-section oracle for ModifiedPlate.contains().

    Minimizes the rectangle violation over y' on an n_grid-point grid
    and refines around the best grid point by golden-section search.
    """
    q = np.asarray(q, dtype=float)
    s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]

    def violation(yp):
        w1 = q2 - plate.u + s * yp
        w2 = q3 - plate.v - 0.5 * s * yp ** 2
        g = w2 + plate.y * w1
        return (np.maximum(np.abs(w1) - plate.r, 0.0)
                + np.maximum(np.abs(g) - plate.r ** 2, 0.0))

    grid = np.linspace(plate.y - plate.r, plate.y + plate.r, n_grid)
    vals = np.stack([violation(yp) for yp in grid])
    best = np.argmin(vals, axis=0)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, n_grid - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = hi - (hi - lo) * (1 - invphi)
    fc, fd = violation(c), violation(d)
    for _ in range(40):
        take = fc < fd
        hi = np.where(take, d, hi)
        lo = np.where(take, lo, c)
        c = hi - invphi * (hi - lo)
        d = hi - (hi - lo) * (1 - invphi)
        fc, fd = violation(c), violation(d)
    return np.minimum(fc, fd) <= tol


def count_memberships_bruteforce(u, v, y, r, pts, tol=1e-9):
    """Plate-by-plate count; oracle for count_memberships."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    counts = np.zeros(len(pts), dtype=np.int64)
    for ui, vi, yi in zip(np.atleast_1d(u), np.atleast_1d(v), np.atleast_1d(y)):
        counts += _modified_contains_arrays(
            ui, vi, yi, r, pts[:, 0], pts[:, 1], pts[:, 2], tol).astype(np.int64)
    return counts


def test_shear_rect_membership():
    y = 0.7
    r = 0.25
    M = shear_matrix(y)
    rng = make_rng(0)
    w0 = rng.random((500, 2)) * [2 * r, 2 * r ** 2] - [r, r ** 2]
    w = w0 @ M.T
    assert np.all(rect_contains(y, r, w, tol=1e-12))
    outside = (w0 * 1.2) @ M.T
    # scaling the axis rectangle by 1.2 pushes most points out
    frac_out = 1.0 - rect_contains(y, r, outside, tol=0).mean()
    assert frac_out > 0.25


@given(coord, coord, coord)
@settings(max_examples=200, deadline=None)
def test_center_decomposition_roundtrip(x, y, t):
    u, v, yy = center_decomposition([x, y, t])
    back = compose_center(u, v, yy)
    assert np.allclose(back, [x, y, t], atol=1e-12)
    assert yy == y


def test_direction_bin_half_away_from_zero():
    d = 0.5
    ys = np.array([-0.75, -0.25, -0.2499, 0.0, 0.2499, 0.25, 0.75])
    assert direction_bin(ys, d).tolist() == [-2, -1, 0, 0, 0, 1, 2]


def test_plate_samples_are_members():
    plate = Plate(0.3, -0.1, 0.8, 0.2, x_halfwidth=1.5)
    pts = plate.sample(2000, make_rng(1))
    assert np.all(plate.contains(pts, tol=1e-9))
    assert float(np.abs(pts[:, 0]).max()) <= 1.5 + 1e-12


def test_plate_rejects_far_points():
    plate = Plate(0.0, 0.0, 0.0, 0.1)
    assert not plate.contains(np.array([0.0, 0.5, 0.0]))
    assert not plate.contains(np.array([5.0, 0.0, 0.0]))  # s beyond halfwidth


def test_modified_plate_samples_are_members():
    plate = ModifiedPlate(0.3, -0.1, 0.8, 0.2)
    pts = plate.sample(2000, make_rng(2))
    assert np.all(plate.contains(pts))


def test_modified_contains_matches_grid_oracle():
    rng = make_rng(3)
    for k in range(6):
        plate = ModifiedPlate(float(rng.random() - 0.5),
                              float(rng.random() - 0.5),
                              float(rng.random() * 2 - 1),
                              float(rng.random() * 0.3 + 0.05))
        pts = rng.random((2000, 3)) * [4, 2, 2] - [2, 1, 1]
        # mix in near-boundary points from the plate itself
        near = plate.sample(500, rng) + (rng.random((500, 3)) - 0.5) * 0.02
        q = np.concatenate([pts, near])
        fast = plate.contains(q)
        slow = contains_grid(plate, q)
        assert np.array_equal(fast, slow)


def test_modified_plate_contains_fixed_direction_plate():
    mp = ModifiedPlate(0.1, 0.2, 0.5, 0.2)
    fixed = Plate(0.1, 0.2, 0.5, 0.2, x_halfwidth=2.0)
    pts = fixed.sample(3000, make_rng(4))
    assert np.all(mp.contains(pts, tol=1e-9))


def test_contains_ray_vs_pointwise():
    mp = ModifiedPlate(0.0, 0.0, 0.4, 0.25)
    rng = make_rng(5)
    for _ in range(200):
        up, vp, yp = mp.sample_ray(rng)
        ray = LightRay(up, vp, yp)
        assert mp.contains_ray(ray)
        s = rng.random(32) * 4 - 2
        pts = np.array([ray.point_at(si) for si in s])
        assert np.all(mp.contains(pts, tol=1e-9))
    far = LightRay(0.0, 0.0, 0.4 + 0.26)
    assert not mp.contains_ray(far)


def test_ball_dual_rays_fill_modified_plate():
    rng = make_rng(6)
    failures = 0
    for _ in range(200):
        center = rng.random(3) * [1.0, 1.0, 0.2] - [0.5, 0.5, 0.1]
        r = float(rng.random() * 0.3 + 0.05)
        ball = HeisBall(tuple(center), r)
        plate = ball_to_modified_plate(ball)
        pts = ball_points(center, r, 64)
        for p in pts:
            ray = dual_ray(tuple(p))
            if not plate.contains_ray(ray, tol=1e-9):
                failures += 1
    assert failures == 0


def test_ball_to_plate_scale_and_center():
    ball = HeisBall((0.2, -0.3, 0.1), 0.25)
    plate = ball_to_modified_plate(ball)
    assert plate.r == 0.5
    u, v, y = center_decomposition([0.2, -0.3, 0.1])
    assert (plate.u, plate.v, plate.y) == (u, v, y)


def test_ball_to_plate_preconditions():
    with pytest.raises(ValueError):
        ball_to_modified_plate(HeisBall((3.0, 0.0, 0.0), 0.1))
    with pytest.raises(ValueError):
        ball_to_modified_plate(HeisBall((0.0, 0.0, 0.0), 0.8))


def test_plate_to_ball_roundtrip():
    ball = HeisBall((0.2, -0.3, 0.1), 0.2)
    plate = ball_to_modified_plate(ball)
    back = plate_to_ball(plate)
    assert np.allclose(back.center_array(), ball.center_array(), atol=1e-12)
    assert back.radius == pytest.approx(ball.radius)


def test_ray_base_point_duality():
    u, v, y = 0.3, -0.2, 0.7
    p = compose_center(u, v, y)
    ray = dual_ray(tuple(p))
    assert np.allclose([ray.u, ray.v, ray.y], [u, v, y], atol=1e-12)


def test_same_direction_separation_bounded():
    # same-direction balls with overlapping dual plates sit within a
    # bounded multiple of the radius of each other
    rng = make_rng(7)
    r = 0.1
    ratios = []
    for _ in range(100):
        c1 = rng.random(3) * [0.8, 0.8, 0.2] - [0.4, 0.4, 0.1]
        c2 = c1 + rng.random(3) * [0.4, r, 0.1] - [0.2, r / 2, 0.05]
        ratio = same_direction_separation(HeisBall(tuple(c1), r),
                                          HeisBall(tuple(c2), r),
                                          n_samples=256, seed=11)
        if ratio is not None:
            ratios.append(ratio)
    assert ratios, "expected some overlapping plate pairs"
    assert max(ratios) < 8.0


def test_same_direction_separation_validation():
    with pytest.raises(ValueError):
        same_direction_separation(HeisBall((0, 0, 0), 0.1),
                                  HeisBall((0, 0, 0), 0.2))
    with pytest.raises(ValueError):
        same_direction_separation(HeisBall((0, 0.0, 0), 0.1),
                                  HeisBall((0, 0.5, 0), 0.1))


def test_count_memberships_matches_bruteforce():
    rng = make_rng(8)
    n_plates = 300
    r = 2.0 ** -3
    u = rng.random(n_plates) * 2 - 1
    v = rng.random(n_plates) * 2 - 1
    y = rng.random(n_plates) * 2 - 1
    pts = rng.random((1500, 3)) * [4, 3, 3] - [2, 1.5, 1.5]
    fast = count_memberships(u, v, y, r, pts)
    slow = count_memberships_bruteforce(u, v, y, r, pts)
    assert np.array_equal(fast, slow)
    assert fast.sum() > 0


def test_count_memberships_empty_inputs():
    assert count_memberships(np.array([]), np.array([]), np.array([]),
                             0.1, np.zeros((5, 3))).tolist() == [0] * 5
    assert len(count_memberships(np.array([0.0]), np.array([0.0]),
                                 np.array([0.0]), 0.1,
                                 np.zeros((0, 3)))) == 0


@st.composite
def plate_edge_cases(draw):
    """Plates on direction-bin edges or with |y| > 1, duplicated, and
    points built on their boundaries, with s = 0 and |s| > 2."""
    r = draw(st.sampled_from([0.0, 2.0 ** -5, 2.0 ** -3, 0.25]))
    if draw(st.booleans()):
        ydir = st.integers(-12, 12).map(lambda k: k * r)
    else:
        ydir = st.floats(-3, 3)
    plate = st.tuples(st.floats(-1, 1), st.floats(-1, 1), ydir)
    uvy = draw(st.lists(plate, min_size=1, max_size=10))
    uvy += draw(st.lists(st.sampled_from(uvy), max_size=4))
    u, v, y = np.array(uvy).T
    side = st.sampled_from([-1.0, 1.0])
    built = st.tuples(st.integers(0, len(uvy) - 1),
                      st.one_of(st.just(0.0), st.floats(-4, 4)),
                      st.one_of(side, st.floats(-1, 1)),
                      st.one_of(side, st.floats(-1, 1)),
                      st.one_of(side, st.floats(-1, 1)),
                      st.sampled_from([0.0, 1e-9, -1e-9, 1e-12, -1e-12]))
    pts = []
    for j, s, dy, w1, g, nudge in draw(st.lists(built, min_size=1,
                                                max_size=30)):
        # on the ray of direction y_j + dy r through (0, u + w1 r,
        # v + w2) with w2 + y_j w1 r = g r^2, moved by nudge
        yp = y[j] + dy * r
        w2 = g * r * r - y[j] * w1 * r
        pts.append([s, u[j] + w1 * r - s * yp + nudge,
                    v[j] + w2 + 0.5 * s * yp * yp - nudge])
    free = st.tuples(st.floats(-4, 4), st.floats(-3, 3), st.floats(-3, 3))
    pts += draw(st.lists(free, max_size=10))
    return u, v, y, r, np.array(pts)


@given(plate_edge_cases())
@settings(max_examples=300, deadline=None)
# s near 0 overflows trial directions to inf, which the membership test
# discards without a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_memberships_edge_cases_match_bruteforce(case):
    u, v, y, r, pts = case
    assert np.array_equal(count_memberships(u, v, y, r, pts),
                          count_memberships_bruteforce(u, v, y, r, pts))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_s_counts_without_warning():
    pts = np.array([[5e-324, 0.0, 0.0], [-5e-324, 0.1, 0.0],
                    [1e-310, 0.0, 0.01]])
    u = np.array([0.0, 0.05])
    v = np.array([0.0, 0.0])
    y = np.array([0.0, 0.3])
    want = count_memberships_bruteforce(u, v, y, 0.1, pts)
    assert np.array_equal(count_memberships(u, v, y, 0.1, pts), want)
    for plate in map(ModifiedPlate, u, v, y, [0.1, 0.1]):
        assert np.array_equal(plate.contains(pts), contains_grid(plate, pts))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_plate_candidates_per_hit_stay_flat(k):
    # the index reads windows that fit the plates' thin sheared tube, so
    # the proposals per hit do not grow as delta shrinks
    fam = generate("random3", 2.0 ** -k, seed=1)
    uvy = center_decomposition(fam.centers)
    u, v, y = uvy[:, 0], uvy[:, 1], uvy[:, 2]
    r = 2.0 ** (1 - k)
    pts = _uniform_euclidean_ball(5000, make_rng(k), 2.0)
    proposed = sum(len(i) for i, _, _ in
                   _plate_candidates(u, v, y, r, pts, 1e-9))
    hits = int(count_memberships(u, v, y, r, pts).sum())
    assert hits > 10000
    assert proposed <= 16 * hits, proposed / hits


def test_count_memberships_rejects_bad_input():
    pts = np.zeros((3, 3))
    with pytest.raises(ValueError):
        count_memberships([0.0, 1.0], [0.0, 1.0], [0.0], 0.1, pts)
    with pytest.raises(ValueError):
        count_memberships([0.0], [np.nan], [0.0], 0.1, pts)
    with pytest.raises(ValueError):
        count_memberships([0.0], [0.0], [0.0], 0.1,
                          [[np.inf, 0.0, 0.0]])
    with pytest.raises(ValueError):
        count_memberships([0.0], [0.0], [0.0], np.nan, pts)
    with pytest.raises(ValueError):
        count_memberships([0.0], [0.0], [0.0], -0.1, pts)
