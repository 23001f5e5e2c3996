import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heislab.core
import heislab.plates
from heislab.core import (dilate, gauge_norm, group_mul, heis_dist,
                          window_blocks)
from heislab.delta_sets import generate
from heislab.duality import LightRay, dual_ray
from heislab.plates import (PLATE_OUTER_C, ModifiedPlate, _plate_candidates,
                            ball_to_modified_plate, count_memberships,
                            same_direction_separation)
from heislab.sampling import (make_rng, uniform_ball_points,
                              uniform_euclidean_ball)

coord = st.floats(-1, 1, allow_nan=False)


def rect_contains(y, r, w, tol=0.0):
    """Membership in R_r(y); w has shape (..., 2)."""
    w = np.asarray(w, dtype=float)
    w1 = w[..., 0]
    w2 = w[..., 1]
    return (np.abs(w1) <= r + tol) & (np.abs(w2 + y * w1) <= r * r + tol)


def contains_ray(plate, ray, tol=1e-12):
    """Whole-ray membership of a LightRay in a ModifiedPlate: the ray is
    one of the plate's rays.  Fields of both may be arrays; exact.  The
    oracle of the closed entries dual_ray_inclusion_rate and
    plate_recovery_C."""
    w = np.stack(np.broadcast_arrays(ray.u - plate.u, ray.v - plate.v),
                 axis=-1)
    return ((np.abs(ray.y - plate.y) <= plate.r + tol)
            & rect_contains(plate.y, plate.r, w, tol))


def compose_center(u, v, y):
    """Inverse of duality.dual_ray: the point (u, 0, v) * (0, y, 0)."""
    u = np.asarray(u, dtype=float)
    return np.stack(np.broadcast_arrays(u, np.asarray(y, dtype=float),
                                        np.asarray(v, dtype=float) + 0.5 * u * y),
                    axis=-1)


@dataclass(frozen=True)
class Plate:
    """Fixed-direction ray bundle P_r(y) based at (u, v); oracle for the
    sandwich constant plates.SANDWICH_INNER_C.

    Fields may be arrays, one plate per entry, broadcast against q.
    """

    u: object
    v: object
    y: object
    r: object

    def contains(self, q, tol=1e-12):
        q = np.asarray(q, dtype=float)
        s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
        w1 = q2 - self.u + s * self.y
        w2 = q3 - self.v - 0.5 * s * (self.y * self.y)
        inside = rect_contains(self.y, self.r, np.stack([w1, w2], axis=-1), tol)
        return inside & (np.abs(s) <= 2.0 + tol)


def sample_rays(plate, uniforms):
    """Rays of a ModifiedPlate, as a LightRay of arrays, from uniforms.

    uniforms has shape (..., 3), leading axes broadcast against the
    fields; rng.random((n, 3)) gives n uniform rays: a point (w1, w2) of
    the base rectangle and a direction offset each.
    """
    w = np.moveaxis(np.asarray(uniforms, dtype=float), -1, 0)
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    w1 = w[0] * (2 * r) - r
    w2 = w[1] * (2 * r * r) - r * r
    return LightRay(u + w1, v + w2 - y * w1, y + (w[2] * 2 - 1) * r)


def _plate_sample(plate, n, rng):
    """n uniform points of a fixed-direction Plate, |s| <= 2."""
    w0 = rng.random((n, 2)) * [2 * plate.r, 2 * plate.r ** 2] \
        - [plate.r, plate.r ** 2]
    s = rng.random(n) * 4.0 - 2.0
    w1 = w0[:, 0]
    w2 = w0[:, 1] - plate.y * w0[:, 0]
    return np.stack([s,
                     plate.u + w1 - s * plate.y,
                     plate.v + w2 + 0.5 * s * plate.y ** 2], axis=1)


def _plate_to_ball(plate):
    """(center, radius) of the ball whose dual plate is the given plate."""
    return compose_center(plate.u, plate.v, plate.y), plate.r / 2.0


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


def contains_endpoints(plate, q, tol=1e-9):
    """Eight-candidate oracle for ModifiedPlate.contains.

    The feasible set over y' in [y - r, y + r] of |A + s y'| <= r and
    |Bc + y s y' - (s / 2) y'^2| <= r^2, with A = q2 - u and
    Bc = q3 - v + y A, is a union of at most two intervals; q is a
    member iff one of their eight possible endpoints meets the bounds
    widened by tol.
    """
    q = np.asarray(q, dtype=float)
    s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    A = q2 - u
    Bc = q3 - v + y * A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cands = [y - r, y + r, (-r - A) / s, (r - A) / s]
        for sign in (-1.0, 1.0):
            root = np.sqrt(y * y + 2.0 * (Bc + sign * r * r) / s)
            cands += [y - root, y + root]
        cands = np.stack(np.broadcast_arrays(*cands))
        h = Bc + (y * s) * cands - 0.5 * s * cands ** 2
        ok = (cands >= y - r - tol) & (cands <= y + r + tol) \
            & (np.abs(A + s * cands) <= r + tol) \
            & (np.abs(h) <= r * r + tol)
    return np.any(np.where(np.isfinite(cands), ok, False), axis=0)


def contains_exact(plate, q, tol=1e-9):
    """ModifiedPlate.contains on Fractions, one plate and point at a time.

    The rule of the plates module docstring: the box and the linear band
    give [a, b] in d = y' - y, d^2 fills [m, M] over it, and q is a
    member iff a <= b and [m, M] meets the quadratic band's [lo2, hi2].
    At s = 0 each band holds for all d or for none.
    """
    q = np.asarray(q, dtype=float)
    cols = np.broadcast_arrays(plate.u, plate.v, plate.y, plate.r,
                               q[..., 0], q[..., 1], q[..., 2])
    out = np.zeros(cols[0].shape, dtype=bool)
    t = Fraction(tol)
    for idx in np.ndindex(out.shape):
        u, v, y, r, s, q2, q3 = (Fraction(float(c[idx])) for c in cols)
        w, h = r + t, r * r + t
        A = q2 - u + s * y
        K = q3 - v + y * (q2 - u) + s * y * y / 2
        if s == 0:
            out[idx] = abs(A) <= w and abs(K) <= h
            continue
        a, b = sorted([(-w - A) / s, (w - A) / s])
        a, b = max(a, -w), min(b, w)
        m = 0 if a <= 0 <= b else min(a * a, b * b)
        lo2, hi2 = sorted([2 * (K - h) / s, 2 * (K + h) / s])
        out[idx] = a <= b and m <= hi2 and max(a * a, b * b) >= lo2
    return out


def count_memberships_bruteforce(u, v, y, r, pts, tol=1e-9):
    """Plate-by-plate count; oracle for count_memberships."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    counts = np.zeros(len(pts), dtype=np.int64)
    for ui, vi, yi in zip(np.atleast_1d(u), np.atleast_1d(v), np.atleast_1d(y)):
        counts += ModifiedPlate(ui, vi, yi, r).contains(pts, tol)
    return counts


def contains_ray_scalar(plate, ray, tol=1e-12):
    """One plate, one ray: whole-ray membership written per ray."""
    w = np.array([ray.u - plate.u, ray.v - plate.v])
    return bool(abs(ray.y - plate.y) <= plate.r + tol
                and rect_contains(plate.y, plate.r, w, tol))


def sample_ray_scalar(plate, rng):
    """One uniform ray of the bundle from random(2) and random() draws."""
    w0 = rng.random(2) * [2 * plate.r, 2 * plate.r ** 2] \
        - [plate.r, plate.r ** 2]
    yp = plate.y + (rng.random() * 2 - 1) * plate.r
    return (plate.u + w0[0], plate.v + w0[1] - plate.y * w0[0], yp)


def test_shear_rect_membership():
    y = 0.7
    r = 0.25
    M = np.array([[1.0, 0.0], [-y, 1.0]])  # the shear M_y of R_r(y)
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
def test_dual_ray_compose_center_roundtrip(x, y, t):
    ray = dual_ray(np.array([x, y, t]))
    back = compose_center(ray.u, ray.v, ray.y)
    assert np.allclose(back, [x, y, t], atol=1e-12)
    assert ray.y == y
    # the same on columns: one ray per point
    pts = np.array([[x, y, t], [t, x, y]])
    rays = dual_ray(pts.T)
    assert np.allclose(compose_center(rays.u, rays.v, rays.y), pts,
                       atol=1e-12)


def test_plate_samples_are_members():
    plate = Plate(0.3, -0.1, 0.8, 0.2)
    pts = _plate_sample(plate, 2000, make_rng(1))
    assert np.all(plate.contains(pts, tol=1e-9))
    assert float(np.abs(pts[:, 0]).max()) <= 2.0


def test_plate_on_array_fields_matches_each_plate():
    rng = make_rng(14)
    u, v, y = rng.random((3, 5, 1)) - 0.5
    r = rng.random((5, 1)) * 0.2 + 0.05
    q = rng.random((5, 300, 3)) * [4, 1, 1] - [2, 0.5, 0.5]
    got = Plate(u, v, y, r).contains(q)
    for i in range(5):
        one = Plate(float(u[i, 0]), float(v[i, 0]), float(y[i, 0]),
                    float(r[i, 0]))
        assert np.array_equal(got[i], one.contains(q[i]))
    assert 0 < got.sum() < got.size


def test_plate_rejects_far_points():
    plate = Plate(0.0, 0.0, 0.0, 0.1)
    assert not plate.contains(np.array([0.0, 0.5, 0.0]))
    assert not plate.contains(np.array([5.0, 0.0, 0.0]))  # s beyond halfwidth


def test_modified_plate_samples_are_members():
    plate = ModifiedPlate(0.3, -0.1, 0.8, 0.2)
    pts = plate.sample(make_rng(2).random(4 * 2000))
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
        near = plate.sample(rng.random(4 * 500)) \
            + (rng.random((500, 3)) - 0.5) * 0.02
        q = np.concatenate([pts, near])
        fast = plate.contains(q)
        slow = contains_grid(plate, q)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, contains_endpoints(plate, q))


def test_contains_matches_endpoints_on_plate_candidates():
    # every pair the count index reads on random3 at 2^-3, near or not
    fam = generate("random3", 2.0 ** -3, seed=1)
    plate = ball_to_modified_plate(fam.centers, fam.delta)
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    pts = uniform_euclidean_ball(5000, make_rng(3), 2.0)
    pairs = hits = 0
    for i, j, _ in _plate_candidates(u, v, y, r, pts):
        pair = ModifiedPlate(u[j], v[j], y[j], r)
        got = pair.contains(pts[i])
        assert np.array_equal(got, contains_endpoints(pair, pts[i]))
        pairs, hits = pairs + len(i), hits + int(got.sum())
    assert 0 < hits < pairs


def test_contains_decides_s_zero_on_band_edges():
    # at s = 0 with tol = 0, points exactly on an edge of the linear or
    # the quadratic band are members, and one ulp beyond it are not
    plate = ModifiedPlate(0.0, 0.0, 0.0, 0.5)
    out = np.nextafter(0.5, 1.0)
    q = np.array([[s, q2, q3] for s in (0.0, -0.0)
                  for q2, q3 in [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.25),
                                 (0.0, -0.25), (0.5, 0.25), (out, 0.0),
                                 (0.0, np.nextafter(0.25, 1.0))]])
    want = np.tile([True] * 5 + [False] * 2, 2)
    assert np.array_equal(plate.contains(q, tol=0.0), want)
    assert np.array_equal(contains_exact(plate, q, tol=0.0), want)
    assert np.array_equal(contains_endpoints(plate, q, tol=0.0), want)


def test_contains_broadcasts_fields_against_points():
    # plate fields (n, 1) against ray points (21, n, 24, 3), as the
    # constants' plate recovery pass calls it; one plate and one point
    # give a 0-d result
    rng = make_rng(15)
    n = 5
    c = uniform_ball_points(n, rng, 0.9)[:, None]
    rb = rng.random((n, 1)) * 0.2 + 0.02
    plate = ball_to_modified_plate(c, rb)
    q = group_mul(c, dilate(4 * rb, uniform_ball_points(n * 24, rng)
                            .reshape(n, 24, 3)))
    pts = np.stack(np.broadcast_arrays(*dual_ray(np.moveaxis(q, -1, 0))
                                       .point_at(np.linspace(-1, 1, 21)
                                                 [:, None, None])), axis=-1)
    got = plate.contains(pts)
    assert got.shape == (21, n, 24)
    assert 0 < got.sum() < got.size
    for i in range(n):
        one = ModifiedPlate(*(f[i, 0] for f in (plate.u, plate.v, plate.y,
                                                 plate.r)))
        assert np.array_equal(got[:, i], one.contains(pts[:, i]))
        point = one.contains(pts[3, i, 5])
        assert np.shape(point) == () and point == got[3, i, 5]


def test_modified_plate_contains_fixed_direction_plate():
    mp = ModifiedPlate(0.1, 0.2, 0.5, 0.2)
    fixed = Plate(0.1, 0.2, 0.5, 0.2)
    pts = _plate_sample(fixed, 3000, make_rng(4))
    assert np.all(mp.contains(pts, tol=1e-9))


def test_contains_ray_vs_pointwise():
    mp = ModifiedPlate(0.0, 0.0, 0.4, 0.25)
    rng = make_rng(5)
    rays = sample_rays(mp, rng.random((200, 3)))
    assert np.all(contains_ray(mp, rays))
    for ray in map(LightRay, rays.u, rays.v, rays.y):
        s = rng.random(32) * 4 - 2
        pts = np.array([ray.point_at(si) for si in s])
        assert np.all(mp.contains(pts, tol=1e-9))
    far = LightRay(0.0, 0.0, 0.4 + 0.26)
    assert not contains_ray(mp, far)


def test_contains_ray_on_arrays_matches_per_ray():
    rng = make_rng(12)
    mp = ModifiedPlate(0.1, -0.2, 0.3, 0.2)
    du, dv, dy = (rng.random((3, 2000)) - 0.5) * [[0.5], [0.1], [0.5]]
    # a third of the rays on the edge |y' - y| = r of the direction slack
    dy[::3] = np.sign(dy[::3]) * 0.2
    rays = LightRay(0.1 + du, -0.2 + dv, 0.3 + dy)
    fast = contains_ray(mp, rays)
    slow = [contains_ray_scalar(mp, LightRay(*t))
            for t in zip(rays.u, rays.v, rays.y)]
    assert np.array_equal(fast, slow)
    assert 0 < fast.sum() < len(fast)


@given(st.lists(st.tuples(coord, coord, st.floats(-3, 3), st.floats(0, 0.5)),
                min_size=1, max_size=6),
       st.lists(st.tuples(st.floats(-4, 4), st.floats(-2, 2),
                          st.floats(-2, 2)), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_array_plate_fields_match_scalar_plates(uvyr, pts):
    q = np.array(pts)
    slow = np.array([ModifiedPlate(*f).contains(q) for f in uvyr])
    u, v, y, r = np.array(uvyr).T
    # every plate against every point, and plate k against point k
    fast = ModifiedPlate(u[:, None], v[:, None], y[:, None],
                         r[:, None]).contains(q)
    assert np.array_equal(fast, slow)
    k = min(len(q), len(u))
    aligned = ModifiedPlate(u[:k], v[:k], y[:k], r[:k]).contains(q[:k])
    assert np.array_equal(aligned, np.diagonal(slow)[:k])


@pytest.mark.parametrize("n", [1, 7, 1001])
def test_sample_rays_equal_one_ray_draws(n):
    mp = ModifiedPlate(0.3, -0.1, 0.8, 0.2)
    fast_rng, slow_rng = make_rng(9), make_rng(9)
    rays = sample_rays(mp, fast_rng.random((n, 3)))
    want = np.array([sample_ray_scalar(mp, slow_rng) for _ in range(n)])
    assert np.array_equal(np.stack([rays.u, rays.v, rays.y], axis=1), want)
    # both generators stand at the same place in the stream
    assert fast_rng.random() == slow_rng.random()


def test_sample_rays_on_array_fields_match_each_plate():
    # plate i of an array broadcasts against row i of the uniforms
    rng = make_rng(13)
    u, v, y = rng.random((3, 4, 1)) - 0.5
    r = rng.random((4, 1)) * 0.2 + 0.05
    uni = rng.random((4, 6, 3))
    rays = sample_rays(ModifiedPlate(u, v, y, r), uni)
    assert rays.u.shape == (4, 6)
    for i in range(4):
        one = sample_rays(ModifiedPlate(u[i, 0], v[i, 0], y[i, 0], r[i, 0]),
                          uni[i])
        for got, want in zip((rays.u, rays.v, rays.y),
                             (one.u, one.v, one.y)):
            assert got[i].tobytes() == want.tobytes()


def test_ball_dual_rays_fill_modified_plate():
    rng = make_rng(6)
    failures = 0
    for _ in range(200):
        center = rng.random(3) * [1.0, 1.0, 0.2] - [0.5, 0.5, 0.1]
        r = float(rng.random() * 0.3 + 0.05)
        plate = ball_to_modified_plate(center, r)
        pts = group_mul(center, dilate(r, uniform_ball_points(64, rng)))
        for p in pts:
            ray = dual_ray(tuple(p))
            if not contains_ray(plate, ray, tol=1e-9):
                failures += 1
    assert failures == 0


def test_ball_to_plate_scale_and_center():
    plate = ball_to_modified_plate((0.2, -0.3, 0.1), 0.25)
    assert plate.r == 0.5
    ray = dual_ray((0.2, -0.3, 0.1))
    assert (plate.u, plate.v, plate.y) == (ray.u, ray.v, ray.y)


def test_ball_to_plate_on_arrays_matches_per_center():
    centers = uniform_ball_points(50, make_rng(50), 0.9)
    plate = ball_to_modified_plate(centers, 0.1)
    for k, c in enumerate(centers):
        one = ball_to_modified_plate(c, 0.1)
        assert (plate.u[k], plate.v[k], plate.y[k]) == (one.u, one.v, one.y)
        assert plate.r == one.r
    # one bad center, or one bad radius, rejects the whole array
    bad = centers.copy()
    bad[17] = (3.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="unit gauge ball"):
        ball_to_modified_plate(bad, 0.1)
    radii = np.full(len(centers), 0.1)
    radii[31] = float("nan")
    with pytest.raises(ValueError, match="radius"):
        ball_to_modified_plate(centers, radii)


def test_ball_to_plate_preconditions():
    with pytest.raises(ValueError):
        ball_to_modified_plate((3.0, 0.0, 0.0), 0.1)
    # a radius outside (0, 1/2], NaN included
    for r in (0.8, 0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius"):
            ball_to_modified_plate((0.0, 0.0, 0.0), r)


def test_plate_to_ball_roundtrip():
    center = (0.2, -0.3, 0.1)
    plate = ball_to_modified_plate(center, 0.2)
    back_center, back_radius = _plate_to_ball(plate)
    assert np.allclose(back_center, center, atol=1e-12)
    assert back_radius == pytest.approx(0.2)


def test_ray_base_point_duality():
    u, v, y = 0.3, -0.2, 0.7
    p = compose_center(u, v, y)
    ray = dual_ray(tuple(p))
    assert np.allclose([ray.u, ray.v, ray.y], [u, v, y], atol=1e-12)


def test_plate_ray_bases_lie_within_outer_constant():
    # the sampling behind the closed form PLATE_OUTER_C = 2 40^(1/4): the
    # base point of every ray of the plate Pi_{2r} of B(c, r) lies within
    # PLATE_OUTER_C r of c, and the corner |w1| = |e| = 2r, w2 = 4r^2 of
    # the ray box (uniforms 1, 1, 1) reaches it
    rng = make_rng(0)
    n = 1000
    c = uniform_ball_points(n, rng, 0.9)
    c[:, 1] = np.clip(c[:, 1], -0.95, 0.95)
    r = rng.random((n, 1)) * 0.2 + 0.02
    plate = ball_to_modified_plate(c[:, None], r)

    def ratios(uniforms):
        rays = sample_rays(plate, uniforms)
        return heis_dist(compose_center(rays.u, rays.v, rays.y),
                         c[:, None]) / r

    sampled = ratios(rng.random((n, 10, 3)))
    assert sampled.max() <= PLATE_OUTER_C * (1 + 1e-12)
    corner = ratios(np.ones((n, 1, 3)))
    assert np.allclose(corner, PLATE_OUTER_C, rtol=1e-12, atol=0.0)


def test_same_direction_separation_bounded():
    # same-direction balls with overlapping dual plates sit within a
    # bounded multiple of the radius of each other
    rng = make_rng(7)
    r = 0.1
    c1, c2 = [], []
    for _ in range(100):
        c1.append(rng.random(3) * [0.8, 0.8, 0.2] - [0.4, 0.4, 0.1])
        c2.append(c1[-1] + rng.random(3) * [0.4, r, 0.1] - [0.2, r / 2, 0.05])
    ratios = same_direction_separation(c1, c2, r, make_rng(11))
    ratios = ratios[~np.isnan(ratios)]
    assert len(ratios), "expected some overlapping plate pairs"
    assert max(ratios) < 8.0


def test_same_direction_separation_validation():
    rng = make_rng(0)
    with pytest.raises(ValueError, match="directions"):
        same_direction_separation([(0, 0.0, 0)], [(0, 0.5, 0)], 0.1, rng)
    with pytest.raises(ValueError, match="same length"):
        same_direction_separation([(0, 0.0, 0)], [(0, 0.0, 0)] * 2, 0.1, rng)
    empty = same_direction_separation(np.empty((0, 3)), np.empty((0, 3)),
                                      0.1, rng)
    assert empty.shape == (0,)
    # no pair draws nothing
    assert rng.random() == make_rng(0).random()


def test_modified_plate_sample_on_array_fields_matches_each_plate():
    # one row of uniforms per plate gives that plate's own points, bit
    # for bit, and the layout is the order of the three rng draws
    rng = make_rng(12)
    u, v, y = rng.random((3, 5)) - 0.5
    r = rng.random(5) * 0.2 + 0.05
    uni = rng.random((5, 4 * 64))
    pts = ModifiedPlate(u, v, y, r).sample(uni)
    assert pts.shape == (5, 64, 3)
    for i in range(5):
        one = ModifiedPlate(u[i], v[i], y[i], r[i])
        assert pts[i].tobytes() == one.sample(uni[i]).tobytes()
        assert np.all(one.contains(pts[i]))
    draws = make_rng(3)
    w0, yp, s = draws.random((64, 2)), draws.random(64), draws.random(64)
    got = ModifiedPlate(0.0, 0.0, 0.0, 0.5).sample(make_rng(3).random(256))
    assert np.array_equal(got[:, 0], (s * 2 - 1) * 2.0)
    assert np.array_equal(got[:, 1], w0[:, 0] - 0.5 - got[:, 0] * (yp - 0.5))


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


@pytest.mark.parametrize("block", [1, 7, None])
def test_count_memberships_does_not_depend_on_blocking(monkeypatch, block):
    # budget 1 puts every window in a block of its own, most of them
    # longer than the budget
    rng = make_rng(8)
    r = 2.0 ** -3
    u, v, y = (rng.random(300) * 2 - 1 for _ in range(3))
    pts = rng.random((500, 3)) * [4, 3, 3] - [2, 1.5, 1.5]
    want = count_memberships_bruteforce(u, v, y, r, pts)
    if block is not None:
        monkeypatch.setattr(heislab.core, "PAIR_BLOCK", block)
    assert np.array_equal(count_memberships(u, v, y, r, pts), want)
    assert want.sum() > 0


def test_count_memberships_empty_inputs():
    assert count_memberships(np.array([]), np.array([]), np.array([]),
                             0.1, np.zeros((5, 3))).tolist() == [0] * 5
    assert len(count_memberships(np.array([0.0]), np.array([0.0]),
                                 np.array([0.0]), 0.1,
                                 np.zeros((0, 3)))) == 0


@st.composite
def plate_edge_cases(draw, nudges=(0.0, 1e-9, -1e-9, 1e-12, -1e-12)):
    """Plates on direction-bin edges or with |y| > 1, duplicated, and
    points built on their boundaries, with s = 0 and |s| > 2, each moved
    by one of the nudges.  In some cases every point has s = 0 or -0.0,
    so the largest |s| is 0; in others every |s| lies on an edge S / 3 or
    2 S / 3 of the count index's |s| bands, or on S, the largest.  r is 0
    in a quarter of the cases, where only the index's caps of 1024 bins
    and 1024 u-cells keep its keys precise."""
    r = draw(st.sampled_from([0.0, 2.0 ** -5, 2.0 ** -3, 0.25]))
    if draw(st.booleans()):
        ydir = st.integers(-12, 12).map(lambda k: k * r)
    else:
        ydir = st.floats(-3, 3)
    plate = st.tuples(st.floats(-1, 1), st.floats(-1, 1), ydir)
    uvy = draw(st.lists(plate, min_size=1, max_size=10))
    uvy += draw(st.lists(st.sampled_from(uvy), max_size=4))
    u, v, y = np.array(uvy).T
    mode = draw(st.sampled_from(["any", "zero", "edges"]))
    if mode == "zero":
        svals = st.sampled_from([0.0, -0.0])
    elif mode == "edges":
        smax = draw(st.floats(1e-3, 4))
        svals = st.sampled_from([smax / 3, -smax / 3, 2 * smax / 3,
                                 -2 * smax / 3, smax, -smax])
    else:
        svals = st.one_of(st.just(0.0), st.floats(-4, 4))
    side = st.sampled_from([-1.0, 1.0])
    built = st.tuples(st.integers(0, len(uvy) - 1), svals,
                      st.one_of(side, st.floats(-1, 1)),
                      st.one_of(side, st.floats(-1, 1)),
                      st.one_of(side, st.floats(-1, 1)),
                      st.sampled_from(nudges))
    pts = []
    for j, s, dy, w1, g, nudge in draw(st.lists(built, min_size=1,
                                                max_size=30)):
        # on the ray of direction y_j + dy r through (0, u + w1 r,
        # v + w2) with w2 + y_j w1 r = g r^2, moved by nudge
        yp = y[j] + dy * r
        w2 = g * r * r - y[j] * w1 * r
        pts.append([s, u[j] + w1 * r - s * yp + nudge,
                    v[j] + w2 + 0.5 * s * yp * yp - nudge])
    free = st.tuples(svals, st.floats(-3, 3), st.floats(-3, 3))
    pts += draw(st.lists(free, max_size=10))
    if mode == "edges":
        # the largest |s| is smax, so the band edges are the ones drawn
        pts.append([smax, 0.0, 0.0])
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


# a nudge of exactly tol puts a point on the widened boundary, where the
# rounding of its coordinates decides: those are left out
@given(plate_edge_cases(nudges=(0.0, 1e-12, -1e-12, 1e-6, -1e-6)))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_contains_matches_exact_rule_on_edge_cases(case):
    u, v, y, r, pts = case
    plate = ModifiedPlate(u[:, None], v[:, None], y[:, None], r)
    assert np.array_equal(plate.contains(pts), contains_exact(plate, pts))


@given(hnp.arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
                  elements=st.floats(allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_three_product_sqrt_has_the_bits_of_norm(x):
    # the Euclidean norm written out in plates and experiments, against
    # np.linalg.norm, on rows of edge floats, one row and many, and on a
    # view whose rows are not adjacent (as ModifiedPlate.sample returns)
    big = np.tile(x, (300, 1))
    with np.errstate(over="ignore"):
        for p in (x, x[:1], big.reshape(-1, 20, 3), np.moveaxis(
                np.stack([big] * 4, axis=0), 0, -2)):
            x1, x2, x3 = np.moveaxis(p, -1, 0)
            got = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            assert got.tobytes() == np.linalg.norm(p, axis=-1).tobytes()


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
    plate = ball_to_modified_plate(fam.centers, fam.delta)
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    pts = uniform_euclidean_ball(5000, make_rng(k), 2.0)
    proposed = sum(len(i) for i, _, _ in
                   _plate_candidates(u, v, y, r, pts))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_count_memberships_at_the_size_bound():
    # r and every |coordinate| up to 2^200 are counted exactly, with the
    # index's margins, keys and window ends finite; 1e80 is rejected
    big = 2.0 ** 200
    u = np.array([0.0, big, -big, 0.5])
    v = np.array([0.0, -big, big, big])
    y = np.array([0.0, 0.5, -0.5, -big])
    pts = np.array([[0.0, 0.0, 0.0], [0.5, big, -big], [-1.0, -big, big],
                    [big, 0.0, 0.0], [1.0, 0.1, -big], [0.0, 0.5, big],
                    [-big, big, big]])
    for r in (0.1, big):
        want = count_memberships_bruteforce(u, v, y, r, pts)
        assert np.array_equal(count_memberships(u, v, y, r, pts), want)
        assert 0 < want.sum() < want.size * len(u)
    for bad in (1e80, -1e80, np.nextafter(big, np.inf)):
        with pytest.raises(ValueError, match="2\\^200"):
            count_memberships(u + np.array([bad, 0, 0, 0]), v, y, 0.1, pts)
        with pytest.raises(ValueError, match="2\\^200"):
            count_memberships(u, v, y, 0.1, np.append(pts, [[0, bad, 0]], 0))
    with pytest.raises(ValueError, match="2\\^200"):
        count_memberships(u, v, y, 1e80, pts)


@pytest.mark.parametrize("kind, params", [("random3", {"seed": 7}),
                                          ("slab", {"x0": 0.07})])
def test_count_memberships_matches_bruteforce_on_families(kind, params):
    # the slab's plates all have u = 0.07: each band has a single u-cell
    fam = generate(kind, 2.0 ** -4, **params)
    plate = ball_to_modified_plate(fam.centers, fam.delta)
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    if kind == "slab":
        assert np.all(u == 0.07)
    pts = uniform_euclidean_ball(2000, make_rng(7), 2.0)
    want = count_memberships_bruteforce(u, v, y, r, pts)
    assert np.array_equal(count_memberships(u, v, y, r, pts), want)
    assert want.sum() > 1000


def test_plate_windows_do_not_grow_with_the_points(monkeypatch):
    # each plate reads at most nine windows in its direction bin, and the
    # points only set the largest |s| and |coordinate|: both samples hold
    # (+-2, 0, 0), so twice the points read exactly the same windows
    fam = generate("random3", 2.0 ** -4, seed=7)
    plate = ball_to_modified_plate(fam.centers, fam.delta)
    u, v, y, r = plate.u, plate.v, plate.y, plate.r
    windows = []

    def counted(first, lens):
        windows[-1] += len(first)
        return window_blocks(first, lens)

    monkeypatch.setattr(heislab.core, "window_blocks", counted)
    ends = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    for n in (2000, 4000):
        pts = np.concatenate([ends, uniform_euclidean_ball(n, make_rng(n),
                                                           2.0)])
        windows.append(0)
        pairs = sum(len(i) for i, _, _ in
                    _plate_candidates(u, v, y, r, pts))
        assert pairs > 10 * n
    assert windows[0] == windows[1] <= 9 * len(u)
