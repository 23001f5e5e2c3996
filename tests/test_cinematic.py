import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heislab.core
from heislab.cinematic import (f_d1, f_d2, f_eval, graph_overlap_integral,
                               jet_jacobian_absdet, rotate_point,
                               rotation_residual)
from heislab.core import _as_points
from heislab.delta_sets import gen_random3
from heislab.projections import pi_e
from heislab.sampling import make_rng

coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord).map(np.array)
angle = st.floats(-7, 7, allow_nan=False, allow_infinity=False)


def _jet_map(p):
    """2-jet F(p) = (f_p(0), f_p'(0), f_p''(0))."""
    return np.stack([f(p, 0.0) for f in (f_eval, f_d1, f_d2)], axis=-1)


def _jet_jacobian(p):
    """Jacobian matrix of F at p, shape (..., 3, 3)."""
    p = _as_points(p)
    x, y = p[..., 0], p[..., 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    rows = [
        np.stack([0.5 * y, 0.5 * x, one], axis=-1),
        np.stack([-x, y, zero], axis=-1),
        np.stack([-2.0 * y, -2.0 * x, zero], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def _graph_overlap_loop(points, delta):
    """Oracle for graph_overlap_integral: one point's slab at a time."""
    points = _as_points(points).reshape(-1, 3)
    h = delta / 2.0
    y0 = -4.0
    ncol = max(1, int(np.ceil(2.0 * np.pi / h)))
    nrow = max(1, int(np.ceil(8.0 / h)))
    thetas = (np.arange(ncol) + 0.5) * h
    counts = np.zeros((ncol, nrow + 1), dtype=np.int64)
    cols = np.arange(ncol)
    for p in points:
        f = f_eval(p, thetas)
        # center y0 + (k + 0.5) h lies in [f - delta, f + delta]
        lo = np.ceil((f - delta - y0) / h - 0.5).astype(np.int64)
        hi = np.floor((f + delta - y0) / h - 0.5).astype(np.int64)
        lo = np.clip(lo, 0, nrow)
        hi = np.clip(hi, -1, nrow - 1)
        ok = hi >= lo
        np.add.at(counts, (cols[ok], lo[ok]), 1)
        np.add.at(counts, (cols[ok], hi[ok] + 1), -1)
    counts = np.cumsum(counts, axis=1)[:, :nrow]
    return float(np.sum(counts.astype(float) ** 1.5) * h * h)


def test_f_equals_projection_height():
    # f_p(theta) is the height of pi_e(theta)(p), bit for bit
    p = (make_rng(0).random((600, 3)) * 2 - 1).reshape(4, 150, 3)
    for theta in (0.0, 0.3, 0.9, np.pi / 2, 2.4, 2.7, -1.0):
        assert np.array_equal(f_eval(p, theta), pi_e(theta, p)[..., 1])


def test_derivatives_against_central_differences():
    p = make_rng(1).random((10000, 3)) * 4 - 2
    thetas = make_rng(2).random(10000) * 2 * np.pi
    h = 1e-4
    fd1 = (f_eval(p, thetas + h) - f_eval(p, thetas - h)) / (2 * h)
    fd2 = (f_eval(p, thetas + h) - 2 * f_eval(p, thetas)
           + f_eval(p, thetas - h)) / h ** 2
    d1 = f_d1(p, thetas)
    d2 = f_d2(p, thetas)
    scale1 = np.maximum(np.abs(d1), 1e-3)
    scale2 = np.maximum(np.abs(d2), 1e-2)
    assert float(np.max(np.abs(d1 - fd1) / scale1)) < 1e-5
    assert float(np.max(np.abs(d2 - fd2) / scale2)) < 1e-4


def test_jet_map_closed_form():
    p = np.array([1.0, 2.0, 3.0])
    assert np.allclose(_jet_map(p), [3 + 1.0, 0.5 * (4 - 1), -4.0])
    assert np.allclose(_jet_map(p),
                       [f_eval(p, 0.0), f_d1(p, 0.0), f_d2(p, 0.0)])


def test_jet_jacobian_matches_finite_differences():
    p = make_rng(3).random((50, 3)) * 2 - 1
    J = _jet_jacobian(p)
    h = 1e-6
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        fd = (_jet_map(p + dp) - _jet_map(p - dp)) / (2 * h)
        assert np.allclose(J[..., :, k], fd, atol=1e-6)


def test_jacobian_determinant():
    p = make_rng(4).random((5000, 3)) * 4 - 2
    det = np.abs(np.linalg.det(_jet_jacobian(p)))
    closed = jet_jacobian_absdet(p)
    assert float(np.max(np.abs(det - closed))) < 1e-8
    # vanishes exactly on the vertical axis
    assert jet_jacobian_absdet(np.array([0.0, 0.0, 5.0])) == 0.0


@given(point, angle, angle)
@settings(max_examples=200, deadline=None)
def test_rotation_identity(p, phi, theta):
    assert float(rotation_residual(p, phi, theta)) <= 1e-10 * (
        1 + float(np.abs(p).max()) ** 2)


def test_rotate_point_preserves_height_and_radius():
    p = np.array([0.3, -0.4, 0.7])
    q = rotate_point(1.1, p)
    assert q[2] == p[2]
    assert np.hypot(q[0], q[1]) == pytest.approx(np.hypot(p[0], p[1]))


def test_graph_overlap_single_point():
    delta = 2.0 ** -6
    val = graph_overlap_integral(np.array([[0.3, -0.2, 0.1]]), delta)
    assert val == pytest.approx(2 * delta * 2 * np.pi, rel=0.1)


def test_graph_overlap_empty_region():
    delta = 2.0 ** -6
    assert graph_overlap_integral(np.array([[0.0, 0.0, 100.0]]), delta) == 0.0


def test_graph_overlap_duplicate_scaling():
    delta = 2.0 ** -5
    p = np.array([[0.3, -0.2, 0.1]])
    one = graph_overlap_integral(p, delta)
    two = graph_overlap_integral(np.repeat(p, 2, axis=0), delta)
    assert two == pytest.approx(2 ** 1.5 * one, rel=1e-12)


def test_graph_overlap_disjoint_additivity():
    delta = 2.0 ** -6
    p1 = np.array([[0.0, 0.0, 0.0]])
    p2 = np.array([[0.0, 0.0, 2.0]])  # graphs 2 apart, slabs disjoint
    both = graph_overlap_integral(np.concatenate([p1, p2]), delta)
    sep = graph_overlap_integral(p1, delta) + graph_overlap_integral(p2, delta)
    assert both == pytest.approx(sep, rel=1e-12)


def test_graph_overlap_rejects_bad_delta():
    with pytest.raises(ValueError):
        graph_overlap_integral(np.zeros((1, 3)), 0.0)
    with pytest.raises(ValueError):
        graph_overlap_integral(np.zeros((1, 3)), np.nan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("points, delta", [
    ([[0.3, -0.2, 0.1]], np.inf),
    ([[np.nan, -0.2, 0.1]], 2.0 ** -4),
    ([[0.3, -0.2, np.inf]], 2.0 ** -4),
    ([[0.3, 2.0 ** 260, 0.1]], 2.0 ** -4),
], ids=["inf-delta", "nan-point", "inf-point", "huge-point"])
def test_graph_overlap_rejects_nonfinite_input(points, delta):
    # had warned in a cast and returned junk
    with pytest.raises(ValueError, match="finite"):
        graph_overlap_integral(points, delta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_graph_overlap_far_off_the_region_casts_no_overflow():
    # a slab 2^70 cells above E: its rows clip before the cast to int
    assert graph_overlap_integral([[0.0, 0.0, 2.0 ** 64]], 2.0 ** -4) == 0.0


@pytest.mark.parametrize("seed", [7, 8, 101])
def test_graph_overlap_matches_loop_on_random3(seed):
    centers = gen_random3(0.075, seed=seed).centers
    assert graph_overlap_integral(centers, 0.075) \
        == _graph_overlap_loop(centers, 0.075)


@pytest.mark.parametrize("points, delta", [
    ([[0.3, -0.2, 0.1]], 2.0 ** -6),
    ([[0.0, 0.0, 100.0]], 2.0 ** -6),
    ([[0.3, -0.2, 0.1], [0.3, -0.2, 0.1]], 2.0 ** -5),
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]], 2.0 ** -6),
    (np.zeros((0, 3)), 2.0 ** -4),
])
def test_graph_overlap_matches_loop_on_small_sets(points, delta):
    assert graph_overlap_integral(points, delta) \
        == _graph_overlap_loop(points, delta)


def test_graph_overlap_matches_loop_across_blocks(monkeypatch):
    # 403 columns at delta 2^-5: a block of 2,000 entries holds 4 points
    monkeypatch.setattr(heislab.core, "PAIR_BLOCK", 2000)
    pts = (make_rng(9).random((40, 3)) * 2 - 1) * [1.0, 1.0, 3.0]
    assert graph_overlap_integral(pts, 2.0 ** -5) \
        == _graph_overlap_loop(pts, 2.0 ** -5)
