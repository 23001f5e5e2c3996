import math

import numpy as np
import pytest

from heislab.core import group_mul, heis_dist, dilate
from heislab.projections import (PlanePoint, parabolic_dist, pi_e, pi_xt,
                                 pixel_area, plane_embed, project_measure,
                                 rho_e)
from heislab.sampling import make_rng, uniform_ball_points


def random_points(n, seed=0, scale=2.0):
    return (make_rng(seed).random((n, 3)) * 2 - 1) * scale


def test_closed_forms_e1_e2():
    p = random_points(10000, seed=1)
    x, y, t = p[:, 0], p[:, 1], p[:, 2]
    # direction (1, 0): chart (y, t + x y / 2)
    w = pi_e(0.0, p)
    assert np.allclose(w[:, 0], y, atol=1e-12)
    assert np.allclose(w[:, 1], t + x * y / 2, atol=1e-12)
    # direction (0, 1): chart (-x, t - x y / 2)
    w = pi_e(math.pi / 2, p)
    assert np.max(np.abs(w[:, 0] + x)) <= 1e-12 * np.abs(x).max()
    assert np.max(np.abs(w[:, 1] - (t - x * y / 2))) <= 1e-10


def test_pi_xt_matches_quarter_turn_chart():
    p = random_points(2000, seed=2)
    w = pi_e(math.pi / 2, p)
    embedded = np.stack([-w[:, 0], np.zeros(len(p)), w[:, 1]], axis=1)
    assert np.allclose(pi_xt(p), embedded, atol=1e-12)


def test_fiber_collapse():
    # moving along the horizontal fiber direction e does not change pi_e
    theta = 0.83
    e = np.array([math.cos(theta), math.sin(theta), 0.0])
    p = random_points(2000, seed=3)
    s = make_rng(4).random((2000, 1)) * 4 - 2
    moved = group_mul(p, s * e)
    assert np.allclose(pi_e(theta, moved), pi_e(theta, p), atol=1e-12)


def test_idempotent_on_plane():
    theta = 1.3
    w = make_rng(5).random((500, 2)) * 2 - 1
    pts = plane_embed(theta, w)
    assert np.allclose(pi_e(theta, pts), w, atol=1e-12)


def test_plane_point_roundtrip():
    pp = PlanePoint(0.4, -0.7, 0.2)
    w = pi_e(0.4, pp.to_point())
    assert w[0] == pytest.approx(-0.7, abs=1e-14)
    assert w[1] == pytest.approx(0.2, abs=1e-14)


def test_vertical_axis_maps_to_height_axis():
    p = np.array([[0.0, 0.0, 0.7]])
    for theta in (0.0, 0.5, 2.0):
        w = pi_e(theta, p)
        assert w[0, 0] == 0.0
        assert w[0, 1] == 0.7


def test_rho_matches_second_component():
    p = random_points(100, seed=6)
    assert np.allclose(rho_e(1.1, p), pi_e(1.1, p)[:, 1], atol=0)


def test_rho_bit_identical_to_pi_e_height():
    p = random_points(600, seed=9).reshape(4, 150, 3)
    for theta in (0.0, 0.3, math.pi / 2, 2.7, -1.0):
        assert np.array_equal(rho_e(theta, p), pi_e(theta, p)[..., 1])


def test_left_invariance_of_projected_area():
    # Leb(pi_e(g E)) = Leb(pi_e(E)) for the sampled unit ball
    rng = make_rng(7)
    E = uniform_ball_points(200000, rng, 0.5)
    g = np.array([0.3, -0.4, 0.2])
    pix = 2.0 ** -7
    a0 = pixel_area(pi_e(0.9, E), pix)
    a1 = pixel_area(pi_e(0.9, group_mul(g, E)), pix)
    assert a1 == pytest.approx(a0, rel=0.02)


def test_projected_ball_area_scales_as_r_cubed():
    rng = make_rng(8)
    E = uniform_ball_points(200000, rng, 1.0)
    pix = 2.0 ** -6
    a1 = pixel_area(pi_e(0.3, E), pix)
    a2 = pixel_area(pi_e(0.3, dilate(0.5, E)), pix * 0.5)
    assert a2 == pytest.approx(a1 / 8, rel=0.05)


def test_parabolic_dist_properties():
    w = np.array([0.0, 0.0])
    v = np.array([0.0, 0.04])
    assert parabolic_dist(w, v) == pytest.approx(0.2)
    u = np.array([0.3, -0.5])
    assert parabolic_dist(u, u) == 0.0
    a, b, c = (make_rng(9).random((3, 2)) * 2 - 1)
    assert parabolic_dist(a, b) <= parabolic_dist(a, c) \
        + parabolic_dist(c, b) + 1e-12


def test_parabolic_comparable_to_gauge_on_plane():
    # bilipschitz band measured in the constants manifest: [0.77, 2.0]
    w = make_rng(10).random((5000, 2, 2)) * 2 - 1
    emb = np.zeros((5000, 2, 3))
    emb[..., 1] = w[..., 0]
    emb[..., 2] = w[..., 1]
    dg = heis_dist(emb[:, 0], emb[:, 1])
    dp = parabolic_dist(w[:, 0], w[:, 1])
    ok = dp > 1e-9
    ratio = dg[ok] / dp[ok]
    assert 0.7 <= ratio.min() and ratio.max() <= 2.0 + 1e-9


def test_project_measure_preserves_mass():
    pts = random_points(100, seed=11)
    weights = make_rng(12).random(100)
    pm = project_measure(0.7, pts, weights)
    assert pm.total_mass == pytest.approx(weights.sum())
    assert pm.points.shape == (100, 2)


def test_pixel_area_basics():
    w = np.array([[0.01, 0.01], [0.02, 0.02], [0.9, 0.9]])
    assert pixel_area(w, 0.1) == pytest.approx(2 * 0.01)
    with pytest.raises(ValueError):
        pixel_area(w, 0.0)


def test_pixel_area_rejects_indices_outside_int32():
    # index 2^32 would share the key of index 0 in a 32-bit packing
    p = 0.1
    with pytest.raises(ValueError):
        pixel_area(np.array([[0.0, 0.0], [2.0 ** 32 * p, 0.0]]), p)
    with pytest.raises(ValueError):
        pixel_area(np.array([[0.0, -(2.0 ** 31 + 1) * p]]), p)
    assert pixel_area(np.array([[0.0, 0.0], [(2.0 ** 31 - 1) * p, 0.0]]),
                      p) == pytest.approx(2 * p * p)
