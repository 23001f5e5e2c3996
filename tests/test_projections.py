import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from heislab.core import _as_points, group_mul, heis_dist, dilate
from heislab.projections import (PARABOLIC_BILIP_LO, PROJECTED_BALL_AREA,
                                 PROJECTED_BALL_PROFILE_MAX, distinct, pi_e,
                                 pixel_keys, projected_ball_profile)
from heislab.sampling import make_rng, uniform_ball_points


def parabolic_dist(w, v):
    """Parabolic metric |a - a'| + sqrt(|b - b'|) on chart coordinates."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.abs(w[..., 0] - v[..., 0]) + np.sqrt(np.abs(w[..., 1] - v[..., 1]))


def _pi_xt(p):
    """Projection to the x-t plane along fibers of pi_{e(pi/2)}."""
    p = _as_points(p)
    out = np.zeros_like(p)
    out[..., 0] = p[..., 0]
    out[..., 2] = p[..., 2] - 0.5 * p[..., 0] * p[..., 1]
    return out


def _plane_embed(theta, w):
    """Chart inverse: (a, b) -> a * Je + b * t-axis as a point of R^3."""
    w = np.asarray(w, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty(w.shape[:-1] + (3,))
    out[..., 0] = -s * w[..., 0]
    out[..., 1] = c * w[..., 0]
    out[..., 2] = w[..., 1]
    return out


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
    assert np.allclose(_pi_xt(p), embedded, atol=1e-12)


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
    pts = _plane_embed(theta, w)
    assert np.allclose(pi_e(theta, pts), w, atol=1e-12)


def test_vertical_axis_maps_to_height_axis():
    p = np.array([[0.0, 0.0, 0.7]])
    for theta in (0.0, 0.5, 2.0):
        w = pi_e(theta, p)
        assert w[0, 0] == 0.0
        assert w[0, 1] == 0.7


def cloud_area(w, pixel):
    """Area of the pixels that hold a chart point of the cloud w."""
    return len(np.unique(pixel_keys(w, pixel))) * pixel * pixel


def test_left_invariance_of_projected_area():
    # Leb(pi_e(g E)) = Leb(pi_e(E)) for the sampled unit ball
    rng = make_rng(7)
    E = uniform_ball_points(200000, rng, 0.5)
    g = np.array([0.3, -0.4, 0.2])
    pix = 2.0 ** -7
    a0 = cloud_area(pi_e(0.9, E), pix)
    a1 = cloud_area(pi_e(0.9, group_mul(g, E)), pix)
    assert a1 == pytest.approx(a0, rel=0.02)


def test_projected_ball_area_scales_as_r_cubed():
    rng = make_rng(8)
    E = uniform_ball_points(200000, rng, 1.0)
    pix = 2.0 ** -6
    a1 = cloud_area(pi_e(0.3, E), pix)
    a2 = cloud_area(pi_e(0.3, dilate(0.5, E)), pix * 0.5)
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
    # the sampling behind the closed band [PARABOLIC_BILIP_LO, 2) of the
    # gauge / parabolic ratio: 20,000 pairs on the plane x = 0
    w = make_rng(0).random((20000, 2, 2)) * 2 - 1
    emb = np.zeros((20000, 2, 3))
    emb[..., 1] = w[..., 0]
    emb[..., 2] = w[..., 1]
    dg = heis_dist(emb[:, 0], emb[:, 1])
    dp = parabolic_dist(w[:, 0], w[:, 1])
    ok = dp > 0
    ratio = dg[ok] / dp[ok]
    assert PARABOLIC_BILIP_LO - 1e-12 <= ratio.min() < PARABOLIC_BILIP_LO + 1e-6
    assert 1.99 < ratio.max() < 2.0


def test_parabolic_band_ends_are_closed_forms():
    # with k = sqrt|db| / |da| the ratio is (1 + 16 k^4)^(1/4) / (1 + k):
    # least at 16 k^3 = 1, tending to 2 as k grows
    def ratio(k):
        return (1.0 + 16.0 * k ** 4) ** 0.25 / (1.0 + k)

    res = minimize_scalar(ratio, bounds=(0.0, 10.0), method="bounded",
                          options={"xatol": 1e-12})
    assert res.fun == pytest.approx(PARABOLIC_BILIP_LO, rel=1e-12)
    assert 16.0 * res.x ** 3 == pytest.approx(1.0, rel=1e-5)
    assert ratio(2.0 ** (-4.0 / 3.0)) == pytest.approx(PARABOLIC_BILIP_LO,
                                                       rel=1e-14)
    assert 2.0 - 1e-5 < ratio(1e6) < 2.0


def test_pixel_keys_reject_indices_outside_int32():
    # index 2^32 would share the key of index 0 in a 32-bit packing
    p = 0.1
    with pytest.raises(ValueError):
        pixel_keys(np.array([[0.0, 0.0], [2.0 ** 32 * p, 0.0]]), p)
    with pytest.raises(ValueError):
        pixel_keys(np.array([[0.0, -(2.0 ** 31 + 1) * p]]), p)
    keys = pixel_keys(np.array([[0.0, 0.0], [(2.0 ** 31 - 1) * p, 0.0]]), p)
    assert len(np.unique(keys)) == 2


def test_pixel_keys_take_one_side_or_two():
    w = np.random.default_rng(2).uniform(-1, 1, (500, 2))
    keys = pixel_keys(w, (0.1, 0.01))
    ia, ib = np.floor(w[:, 0] / 0.1), np.floor(w[:, 1] / 0.01)
    assert np.array_equal(keys >> 32, ia)
    assert np.array_equal(keys.astype(np.int32), ib)
    assert np.array_equal(pixel_keys(w, 0.1), pixel_keys(w, (0.1, 0.1)))


INT64 = np.iinfo(np.int64)


@st.composite
def int64_keys(draw):
    some = st.integers(-5, 5) | st.integers(INT64.min, INT64.max) \
        | st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1,
                           INT64.max, 0, -1])
    keys = draw(st.lists(some, max_size=60))
    if keys:
        keys += draw(st.lists(st.sampled_from(keys), max_size=30))
    return np.array(draw(st.permutations(keys)), dtype=np.int64)


@given(int64_keys())
@settings(max_examples=300, deadline=None)
def test_distinct_matches_unique(keys):
    want = np.unique(keys)
    got = distinct(keys)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_distinct_of_nothing_and_of_one_key():
    assert distinct(np.empty(0, dtype=np.int64)).shape == (0,)
    assert list(distinct(np.array([INT64.min] * 3))) == [INT64.min]


def profile_by_maximisation(alpha):
    """max over the ball's fibre {<z, Je> = alpha} of the chart height
    t + W alpha / 2, W = <z, e>, by scipy's bounded scalar search."""
    wmax = math.sqrt(max(0.0, 1.0 - alpha * alpha))

    def height(w):
        return math.sqrt(max(0.0, 1.0 - (w * w + alpha * alpha) ** 2)) / 4 \
            + w * alpha / 2
    if wmax == 0.0:
        return height(0.0)
    res = minimize_scalar(lambda w: -height(w), bounds=(-wmax, wmax),
                          method="bounded", options={"xatol": 1e-14})
    return -res.fun


def test_projected_ball_profile_matches_maximisation():
    alphas = np.concatenate([np.linspace(-1.0, 1.0, 401), [0.0, 1.0, -1.0]])
    got = projected_ball_profile(alphas)
    want = np.array([profile_by_maximisation(float(a)) for a in alphas])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert projected_ball_profile(0.0) == 0.25
    assert projected_ball_profile(1.0) == projected_ball_profile(-1.0) == 0.0


def test_projected_ball_profile_maximum():
    # g <= 2^(-3/2), reached at |alpha| = 2^(-3/4), not at alpha = 0: the
    # bound of projection_area's raster box rests on it
    assert PROJECTED_BALL_PROFILE_MAX == math.sqrt(2.0) / 4
    alphas = np.linspace(-1.0, 1.0, 2_000_001)
    g = projected_ball_profile(alphas)
    assert g.max() <= PROJECTED_BALL_PROFILE_MAX
    assert abs(abs(alphas[np.argmax(g)]) - 2.0 ** -0.75) <= 1e-6
    peak = 2.0 ** -0.75 + np.arange(-1000, 1001) * 2.0 ** -52
    for a in (peak, -peak):
        g = projected_ball_profile(a)
        assert g.max() <= PROJECTED_BALL_PROFILE_MAX
        assert g.max() >= PROJECTED_BALL_PROFILE_MAX * (1 - 1e-15)
    assert projected_ball_profile(0.0) < PROJECTED_BALL_PROFILE_MAX


# numpy's CPU features above its baseline on an AVX-512 host; a process
# with these disabled runs the kernels of a host without AVX-512
BASELINE_KERNELS = "X86_V4 AVX512_ICL AVX512_SPR"


def test_projected_ball_profile_on_baseline_kernels(tmp_path, child_env):
    # the baseline cbrt rounds cbrt(alpha^2)^2 above 1 at
    # |alpha| = 1 - 2^-53: the profile must stay finite and nonnegative
    # there, and the ball whose edge column lands on it keeps the area
    # it has on this host's kernels
    code = "\n".join([
        "import numpy as np",
        "from heislab.experiments import projection_area",
        "from heislab.projections import projected_ball_profile",
        "a = 1.0 - 2.0 ** -53",
        "g = projected_ball_profile(np.array([a, -a]))",
        "assert np.all(np.isfinite(g)) and np.all(g >= 0), g",
        "area = projection_area(0.0, [[0, -0.75 + 2.0 ** -53, 0]], 1.0, 0.5)",
        "assert area == 2.25, area"])
    r = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True, text=True, cwd=tmp_path,
        env=child_env(NPY_DISABLE_CPU_FEATURES=BASELINE_KERNELS))
    assert r.returncode == 0, r.stderr


def test_projected_ball_profile_area_is_closed_form():
    area, _ = quad(lambda a: 2.0 * projected_ball_profile(a), -1.0, 1.0,
                   epsabs=0.0, epsrel=1e-13)
    assert area == pytest.approx(PROJECTED_BALL_AREA, rel=1e-10)


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1,
                max_size=50), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_projected_ball_profile_does_not_depend_on_blocking(alphas, step):
    a = np.array(alphas)
    whole = projected_ball_profile(a)
    blocked = np.concatenate([projected_ball_profile(a[i:i + step])
                              for i in range(0, len(a), step)])
    one = np.array([projected_ball_profile(x) for x in alphas])
    assert blocked.tobytes() == whole.tobytes() == one.tobytes()
