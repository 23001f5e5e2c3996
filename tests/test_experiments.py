import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import cli, core, experiments, plates
from heislab.cinematic import f_eval
from heislab.core import dilate, gauge_norm, group_mul, heis_dist
from heislab.delta_sets import (BallFamily, gen_horizontal_line,
                                gen_lattice_slab, gen_random3, gen_t_axis)
from heislab.experiments import (_cell_counts,
                                 best_direction_scan, box_dimension,
                                 covering_count_2d, directional_l2_vs_xray,
                                 family_regularity_constant, fit_loglog,
                                 plate_l2_energy,
                                 projection_area, projection_exponent,
                                 rho_dimension)
from heislab.measures import DiscreteMeasure, rasterize
from heislab.duality import dual_ray
from heislab.plates import (PLATE_OUTER_C, SANDWICH_INNER_C, ModifiedPlate,
                            ball_to_modified_plate, same_direction_separation)
from heislab.projections import (PROJECTED_BALL_AREA,
                                 PROJECTED_BALL_PROFILE_MAX, distinct, pi_e,
                                 projected_ball_profile, ze_zje)
from heislab.reports import ExperimentReport, read_manifest, write_manifest
from heislab.sampling import (make_rng, monte_carlo_ball_volume,
                              uniform_ball_points)
from test_plates import (Plate, compose_center, contains_ray, row_layout,
                         sample_rows)


def projection_pixels(theta, centers, radius, pixel):
    """Oracle for projection_area: a Python set of (column, row) pixels,
    filled one ball and one column at a time from the same interval ends."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(centers),))
    pixels = set()
    for c, r in zip(centers, radius):
        ze, ac = (float(v) for v in ze_zje(theta, c))
        bc = float(f_eval(c, theta))
        r = float(r)
        for col in range(math.ceil((ac - r) / pixel - 0.5),
                         math.floor((ac + r) / pixel - 0.5) + 1):
            da = (col + 0.5) * pixel - ac
            half = r * r * float(projected_ball_profile(
                min(max(da / r, -1.0), 1.0)))
            mid = bc + ze * da
            for row in range(math.floor((mid - half) / pixel),
                             math.floor((mid + half) / pixel) + 1):
                pixels.add((col, row))
    return pixels


def projection_area_set(theta, centers, radius, pixel):
    """The oracle's pixel count times the pixel area."""
    return len(projection_pixels(theta, centers, radius, pixel)) \
        * pixel * pixel


def area_on_path(path, theta, centers, radius, pixel):
    """projection_area with its union forced onto the box path ("box":
    every box qualifies) or the sort path ("sort": none does), both in
    blocks of about 5 intervals; the sort path alone calls np.argsort."""
    calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return argsort(a, *args, **kwargs)

    box = path == "box"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", spy)
        mp.setattr(experiments, "BOX_PIXELS_PER_INTERVAL",
                   math.inf if box else 0)
        mp.setattr(core, "PAIR_BLOCK", 5)
        area = projection_area(theta, centers, radius, pixel)
    assert bool(calls) == (not box and len(np.reshape(centers, (-1, 3))) > 0)
    return area


def greedy_net_2d(points, scale, metric="euclidean"):
    """Greedy first-fit net count; oracle for covering_count_2d factors."""
    w = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(w) == 0:
        return 0
    net = w[:1]
    for p in w[1:]:
        if metric == "euclidean":
            d = np.sqrt(((net - p) ** 2).sum(axis=1))
        else:
            d = np.abs(net[:, 0] - p[0]) + np.sqrt(np.abs(net[:, 1] - p[1]))
        if float(d.min()) > scale:
            net = np.concatenate([net, p[None, :]])
    return len(net)


def test_fit_loglog_exact_power_law():
    scales = [0.5, 0.25, 0.125, 0.0625]
    counts = [7.0 / s ** 1.5 for s in scales]
    slope, intercept, resid = fit_loglog(scales, counts)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(7.0)


def test_projection_exponent_sign_convention():
    # area ~ delta^2 must report exponent 2
    areas = {d: 3.0 * d ** 2 for d in (0.1, 0.05, 0.025)}
    exp, resid = projection_exponent(areas)
    assert exp == pytest.approx(2.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("k", [6, 8, 10])
def test_projection_area_single_ball_matches_closed_form(k):
    # each column's two floor roundings add about one pixel: the raster
    # exceeds the area by about 2 pixel, never by less than 0
    pix = 2.0 ** -k
    for th in (0.0, 0.4, 2.5):
        excess = projection_area(th, np.zeros((1, 3)), 1.0, pix) \
            - PROJECTED_BALL_AREA
        assert 0.0 <= excess <= 4 * pix, (th, excess)


def test_projection_area_converges_to_closed_form():
    # the raster behind the closed form PROJECTED_BALL_AREA: its excess
    # about halves with each halving of the pixel
    errs = [projection_area(0.0, np.zeros(3), 1.0, 2.0 ** -k)
            - PROJECTED_BALL_AREA for k in (8, 9, 10)]
    assert 0.0 < errs[2] < errs[1] < errs[0]
    for fine, coarse in zip(errs[1:], errs):
        assert 0.45 <= fine / coarse <= 0.55, errs


def test_projection_area_union_subadditive():
    pix = 2.0 ** -5
    centers = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    both = projection_area(0.0, centers, 0.3, pix)
    one = projection_area(0.0, centers[:1], 0.3, pix)
    assert one < both < 2 * one  # heavy overlap


def test_projection_area_per_ball_radii():
    pix = 2.0 ** -6
    centers = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    a = projection_area(0.3, centers, [0.2, 0.3], pix)
    b = projection_area(0.3, centers, [0.3, 0.2], pix)
    assert a > 0 and b > 0 and a != b


def test_projection_area_pixel_guard():
    with pytest.raises(ValueError):
        projection_area(0.0, np.zeros((1, 3)), 0.1, 0.06)
    with pytest.raises(ValueError):
        projection_area(0.0, np.zeros((1, 3)), 0.1, 0.0)
    # two tiny balls far apart: 2^28 columns times 2^28 rows of keys
    with pytest.raises(ValueError, match="too many pixels"):
        projection_area(0.0, [[0.0, -1.0, -1.0], [0.0, 1.0, 1.0]], 2.0 ** -26,
                        2.0 ** -27)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -0.1])
def test_projection_area_rejects_bad_radius(radius):
    # a NaN or inf radius had passed, warned in a cast and returned junk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="radius must be finite"):
            projection_area(0.0, np.zeros((1, 3)), radius, 0.01)


def test_projection_area_rejects_a_far_center_against_the_pixel():
    # had returned 0.0001, one pixel, where the ball at the origin (left
    # invariance) gives 0.004
    assert projection_area(0.3, np.zeros((1, 3)), 0.1, 0.01) \
        == pytest.approx(0.004)
    with pytest.raises(ValueError, match="too large against the pixel"):
        projection_area(0.3, [[1e17, 0.0, 0.0]], 0.1, 0.01)


def test_projection_area_limits_chart_values_to_2_46_pixels():
    r, pix = 2.0 ** -5, 2.0 ** -6
    for t in (2.0 ** 39, -2.0 ** 39):  # 2^45 pixels high
        assert projection_area(0.0, [[0.0, 0.0, t]], r, pix) \
            == projection_area_set(0.0, [[0.0, 0.0, t]], r, pix)
    with pytest.raises(ValueError, match="too large against the pixel"):
        projection_area(0.0, [[0.0, 0.0, 2.0 ** 41]], r, pix)
    # a at 2^40.8 pixels and b at 0, but the rim column's a rounds by
    # 1e-4 pixel and <z, e> = 2^20 moves its row by 92 rows: had returned
    # an area, and a box without the |<z, e>| |a| term overran
    x, y = 2.0 ** 20, 15096271400.192656
    with pytest.raises(ValueError, match="too large against the pixel"):
        projection_area(0.0, [[x, y, -0.5 * x * y]], 0.03, 2.0 ** -7)


def test_projection_area_rejects_an_overflowing_center():
    # had overflowed in a multiply and returned nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large against the pixel"):
            projection_area(0.3, [[1e300, 0.0, 0.0]], 0.1, 0.01)


@pytest.mark.parametrize("theta,center", [
    (np.nan, (0.0, 0.0, 0.0)), (np.inf, (0.0, 0.0, 0.0)),
    (0.3, (np.nan, 0.0, 0.0)), (0.3, (0.0, 0.0, -np.inf)),
], ids=["nan-theta", "inf-theta", "nan-center", "inf-center"])
def test_projection_area_rejects_nonfinite_input(theta, center):
    # had warned and failed in np.repeat on negative column counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            projection_area(theta, [center], 0.1, 0.01)


def test_projection_area_memory_on_the_bench_slab():
    # the box path holds no interval-sized array: the sort path's peak
    # here was 11.8 MB
    fam = gen_lattice_slab(2.0 ** -5, 0.05)
    for th in np.arange(4) * math.pi / 4:
        tracemalloc.start()
        try:
            projection_area(th, fam.centers, fam.delta, fam.delta / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, (th, peak)


def test_projection_area_sort_union_memory_on_a_fine_line():
    # 8,193 balls on the x-axis at 2^-12, seen at 45 degrees: the box holds
    # far more pixels than the intervals, so the sort union counts them.
    # It holds the blocks' keys and their sort, no ball or column ids:
    # its peak here had been 3.67 MB
    fam = gen_horizontal_line(2.0 ** -12)
    theta, pixel = math.pi / 4, fam.delta / 2
    sorts = []
    argsort = np.argsort
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", lambda a: sorts.append(len(a)) or argsort(a))
        tracemalloc.start()
        try:
            area = projection_area(theta, fam.centers, fam.delta, pixel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(sorts) == 1 and peak < 3.0e6, (sorts, peak)
    assert area == projection_area_set(theta, fam.centers, fam.delta, pixel)


def test_projection_area_ignores_points_per_ball():
    fam = gen_lattice_slab(2.0 ** -4, x0=0.3)
    want = projection_area(0.9, fam.centers, fam.delta, fam.delta / 2)
    for pts in (1, 100, 4000):
        assert projection_area(0.9, fam.centers, fam.delta, fam.delta / 2,
                               pts) == want


@pytest.mark.parametrize("make,pixel_of", [
    (gen_lattice_slab, lambda d: d / 2),
    (gen_horizontal_line, lambda d: d * d / 2),
    (lambda d: gen_t_axis(d, s=2.0), lambda d: d / 2),
], ids=["slab", "line", "t-axis"])
def test_projection_area_matches_set_oracle(make, pixel_of):
    fam = make(2.0 ** -3)
    pix = pixel_of(fam.delta)
    for th in np.arange(8) * math.pi / 8:
        assert projection_area(th, fam.centers, fam.delta, pix) \
            == projection_area_set(th, fam.centers, fam.delta, pix)


def test_projection_area_per_ball_radii_match_set_oracle():
    rng = make_rng(11)
    centers = uniform_ball_points(60, rng, 0.8)
    radii = rng.random(60) * 0.2 + 0.05
    for th in (0.0, 0.4, math.pi / 2, 2.9):
        assert projection_area(th, centers, radii, 2.0 ** -6) \
            == projection_area_set(th, centers, radii, 2.0 ** -6)


@st.composite
def ball_families(draw):
    """Balls that nest, overlap, repeat or sit far off the axis (sheared),
    with one radius or one per ball, and a pixel at most half of each;
    or, in the sparse mode, a few small balls far apart for their size."""
    if draw(st.booleans()):
        return draw(sparse_ball_families())
    n = draw(st.integers(0, 6))
    # dyadic coordinates, radii and directions 0 and pi/2 put column
    # centres on the rim, where g = 0, and interval ends on pixel edges
    unit = st.floats(-1.0, 1.0, allow_nan=False) \
        | st.integers(-256, 256).map(lambda i: i / 256)
    centers = [draw(st.tuples(unit, unit, unit)) for _ in range(n)]
    # a ball at another's center (nested), or one pixel-scale step away
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        c = draw(st.sampled_from(centers))
        step = draw(st.sampled_from([0.0, 1e-3, 2.0 ** -6, 0.1]))
        centers.append((c[0] + step, c[1], c[2] - step))
    n = len(centers)
    radii = st.floats(0.05, 0.5) | st.sampled_from([0.0625, 0.125, 0.5])
    if draw(st.booleans()):
        radius = draw(radii)
        rmin = radius
    else:
        radius = draw(st.lists(radii, min_size=n, max_size=n))
        rmin = min(radius, default=0.5)
    pixel = rmin / 2 * draw(st.sampled_from([1.0, 0.5, 0.3, 0.125]))
    pixel = draw(st.sampled_from([pixel, 2.0 ** math.floor(math.log2(pixel))]))
    theta = draw(st.floats(-7.0, 7.0) | st.sampled_from([0.0, math.pi / 2]))
    return theta, np.array(centers).reshape(-1, 3), radius, pixel


@st.composite
def sparse_ball_families(draw):
    """Up to 6 balls of radius 2^-8 to 2^-5 anywhere in the unit cube, and
    a pixel of a half or a quarter of it: a raster whose box holds far
    more pixels than it has intervals, so projection_area sorts them."""
    unit = st.floats(-1.0, 1.0, allow_nan=False) \
        | st.integers(-256, 256).map(lambda i: i / 256)
    centers = draw(st.lists(st.tuples(unit, unit, unit), min_size=1,
                            max_size=6))
    radius = 2.0 ** -draw(st.integers(5, 8))
    pixel = radius / draw(st.sampled_from([2.0, 4.0]))
    theta = draw(st.floats(-7.0, 7.0) | st.sampled_from([0.0, math.pi / 2]))
    return theta, np.array(centers).reshape(-1, 3), radius, pixel


@given(ball_families())
@settings(max_examples=200, deadline=None)
def test_projection_area_matches_set_oracle_on_any_family(case):
    # on the path the raster selects, and on each path forced
    theta, centers, radius, pixel = case
    want = projection_area_set(theta, centers, radius, pixel)
    assert projection_area(theta, centers, radius, pixel) == want
    for path in ("box", "sort"):
        assert area_on_path(path, theta, centers, radius, pixel) == want


@st.composite
def far_chart_families(draw):
    """Balls whose chart values, in pixels, reach 2^45, beside one another
    in the chart: (<z, e>, <z, Je>, height) = (ze, a + da, b + db), with
    |a| / pixel up to 2^38, |b| / pixel up to 2^44 and |ze| up to 64."""
    pixel = 2.0 ** -6
    theta = draw(st.floats(-7.0, 7.0) | st.sampled_from([0.0, math.pi / 2]))
    a = draw(st.floats(-1.0, 1.0)) * 2.0 ** draw(st.integers(0, 38)) * pixel
    b = draw(st.floats(-1.0, 1.0)) * 2.0 ** draw(st.integers(0, 44)) * pixel
    near = st.floats(-0.25, 0.25)
    charts = draw(st.lists(st.tuples(st.floats(-64.0, 64.0), near, near),
                           min_size=1, max_size=5))
    ze, da, db = np.array(charts).T
    ac = a + da
    c, s = math.cos(theta), math.sin(theta)
    x, y = ze * c - ac * s, ze * s + ac * c
    ze, ac = ze_zje(theta, np.stack([x, y, 0 * x], axis=-1))
    centers = np.stack([x, y, b + db - 0.5 * ze * ac], axis=-1)
    return theta, centers, 2 * pixel, pixel


@given(far_chart_families())
@settings(max_examples=100, deadline=None)
def test_projection_area_far_from_the_origin_matches_set_oracle(case):
    # rounding at 2^45 pixels moves interval ends by a fraction of a row,
    # which the box's row of slack absorbs
    theta, centers, radius, pixel = case
    want = projection_area_set(theta, centers, radius, pixel)
    assert projection_area(theta, centers, radius, pixel) == want
    for path in ("box", "sort"):
        assert area_on_path(path, theta, centers, radius, pixel) == want


@pytest.mark.parametrize("path", ["box", "sort"])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_projection_area_interval_ends_on_the_box_edges(theta, path):
    # dyadic charts (ze, a_c, b_c): the rim columns, at a_c -+ r where
    # g = 0, hold the one row of b_c -+ ze r, half a pixel inside the row
    # of b_c -+ (|ze| r + 2^(-3/2) r^2); so the raster reaches the box's
    # first and last columns, and its first and last rows before their
    # row of slack.  At pi/2, cos theta is 6e-17, not 0: the ends round off
    # the dyadic values, and the first rim column drops out.
    r, pix = 0.125, 0.0625
    ze, ac, bc = np.array([[0.5, 1 / 32, -1 / 32], [1.0, 33 / 32, 33 / 32]]).T
    x, y = (ze, ac) if theta == 0.0 else (-ac, ze)
    centers = np.stack([x, y, bc - 0.5 * ze * ac], axis=-1)
    pixels = projection_pixels(theta, centers, r, pix)
    ze, ac = ze_zje(theta, centers)
    bc = f_eval(centers, theta)
    ext = np.abs(ze) * r + r * r * PROJECTED_BALL_PROFILE_MAX
    cols, rows = np.array(sorted(pixels)).T
    assert cols[0] == np.ceil((ac - r) / pix - 0.5).min()
    assert cols[-1] == np.floor((ac + r) / pix - 0.5).max() == 18
    assert rows.min() == np.floor((bc - ext) / pix).min() == -2
    assert rows.max() == np.floor((bc + ext) / pix).max() == 18
    assert area_on_path(path, theta, centers, r, pix) \
        == len(pixels) * pix * pix


def test_covering_count_2d_matches_unique_oracle():
    w = make_rng(6).random((5000, 2)) * 4 - 2
    for metric, h in (("euclidean", lambda s: (s, s)),
                      ("parabolic", lambda s: (s, s * s))):
        for s in (0.5, 0.1, 0.013):
            ha, hb = h(s)
            keys = np.floor(w[:, 0] / ha) * 1e6 + np.floor(w[:, 1] / hb)
            assert covering_count_2d(w, s, metric) == len(np.unique(keys))


def test_projection_area_empty_family_is_zero():
    assert projection_area(0.3, np.empty((0, 3)), 0.1, 0.01) == 0.0
    assert projection_area(0.3, [], [], 0.01) == 0.0
    fam = BallFamily(np.empty((0, 3)), 0.125, 3.0, 1.0)
    out = best_direction_scan(fam, n_directions=2)
    assert list(out["areas"]) == [0.0, 0.0]


coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@given(st.floats(-7.0, 7.0), st.tuples(coord, coord, coord),
       st.floats(1e-3, 2.0), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_ball_charts_shear_identity(theta, c, r, seed):
    # pi_e(c * delta_r(u)) = (a_c + r alpha, b_c + <z_c, e> r alpha
    # + r^2 beta) with (alpha, beta) = pi_e(u) and |beta| <= g(alpha):
    # each chart point lies in its column's interval
    c = np.array(c)
    u = uniform_ball_points(200, make_rng(seed))
    w = pi_e(theta, group_mul(c, dilate(r, u)))
    alpha, beta = pi_e(theta, u).T
    ze, ac = ze_zje(theta, c)
    bc = f_eval(c, theta)
    assert np.allclose(w, np.stack([ac + r * alpha, bc + r * r * beta
                                    + ze * r * alpha], axis=-1),
                       rtol=0, atol=1e-12)
    da = w[:, 0] - ac
    off = w[:, 1] - bc - ze * da
    g = projected_ball_profile(np.clip(da / r, -1.0, 1.0))
    assert np.all(np.abs(off) <= r * r * g + 1e-12 * (1.0 + r * r))


def unique_cell_counts(vals, cells):
    return [len(np.unique(np.floor(np.asarray(vals) / c).astype(np.int64)))
            for c in cells]


cells_st = st.lists(st.sampled_from([2.0 ** -k for k in range(0, 15)])
                    | st.floats(1e-6, 2.0), min_size=1, max_size=6)


@st.composite
def heights(draw):
    cells = draw(cells_st)
    # integer multiples of a cell land on cell edges; repeats are duplicates
    edges = st.builds(lambda m, c: m * c, st.integers(-50, 50),
                      st.sampled_from(cells))
    free = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    vals = draw(st.lists(edges | free, max_size=60))
    if vals:
        vals += draw(st.lists(st.sampled_from(vals), max_size=20))
    return np.array(vals, dtype=float), cells


@given(heights())
@settings(max_examples=300, deadline=None)
def test_cell_counts_match_unique(case):
    vals, cells = case
    assert _cell_counts(vals, cells) == unique_cell_counts(vals, cells)


def test_rho_dimension_matches_unique_counts():
    pts = uniform_ball_points(5000, make_rng(13))
    scales = [2.0 ** -k for k in range(3, 8)]
    thetas = [0.0, 0.5, 2.0]
    out = rho_dimension(pts, thetas, scales)
    for i, th in enumerate(thetas):
        vals = pi_e(th, pts)[:, 1]
        euc = unique_cell_counts(vals, scales)
        sq = unique_cell_counts(vals, [s * s for s in scales])
        assert out["euclidean_slope"][i] == fit_loglog(scales, euc)[0]
        assert out["sqrt_slope"][i] == fit_loglog(scales, sq)[0]


def per_direction_rho(points, thetas, scales):
    """rho_dimension as one distinct and one fit_loglog per direction and
    metric: the oracle of its single fit."""
    out = {"thetas": [], "euclidean_slope": [], "sqrt_slope": []}
    for th in thetas:
        vals = f_eval(points, th)
        out["thetas"].append(float(th))
        for key, cells in (("euclidean_slope", scales),
                           ("sqrt_slope", [s * s for s in scales])):
            counts = [len(distinct(np.floor(vals / c))) for c in cells]
            out[key].append(fit_loglog(scales, counts)[0])
    return out


@pytest.mark.parametrize("n", [1, 2, 32, 64])
@pytest.mark.parametrize("family", [
    gen_lattice_slab(2.0 ** -4, 0.0371), gen_t_axis(2.0 ** -5),
    gen_random3(2.0 ** -4, seed=3)], ids=lambda f: f.kind)
def test_rho_dimension_matches_per_direction_fits(family, n):
    # the CLI's directions and scales; slopes bit for bit
    thetas = np.arange(n) * np.pi / n
    scales = [2.0 ** -k for k in range(3, 8)]
    assert (rho_dimension(family.centers, thetas, scales)
            == per_direction_rho(family.centers, thetas, scales))


def test_best_direction_scan_tiny_family():
    fam = gen_horizontal_line(0.25)
    out = best_direction_scan(fam, n_directions=8)
    assert len(out["thetas"]) == 8
    assert out["best_area"] == pytest.approx(max(out["areas"]))
    assert out["best_theta"] in out["thetas"]
    # projecting along the line itself collapses it to ~delta^2 per ball,
    # so the best direction beats the worst by a wide margin
    assert out["best_area"] > 2 * min(out["areas"])


def test_family_regularity_constant_lattice():
    fam = gen_random3(2.0 ** -4, seed=1)
    c38 = family_regularity_constant(fam)
    assert 0 < c38 < 8.0


@pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), 0.75])
def test_family_regularity_constant_rejects_bad_delta(delta):
    fam = BallFamily([[0, 0, 0], [0.5, 0, 0]], delta, 3.0, 8.0)
    with pytest.raises(ValueError, match="delta"):
        family_regularity_constant(fam)


@pytest.mark.parametrize("seed", [7, 8])
def test_family_regularity_constant_does_not_depend_on_blocking(monkeypatch,
                                                                seed):
    fam = gen_random3(0.075, seed=seed)
    want = family_regularity_constant(fam, seed=seed)
    monkeypatch.setattr(core, "PAIR_BLOCK", 7)
    assert family_regularity_constant(fam, seed=seed) == want


def test_plate_l2_energy_requires_dim3():
    fam = gen_t_axis(2.0 ** -3, s=1.0)
    with pytest.raises(ValueError):
        plate_l2_energy(fam, n_samples=1000)


def test_plate_l2_energy_smoke():
    fam = gen_random3(2.0 ** -3, seed=1)
    out = plate_l2_energy(fam, n_samples=20000, seed=3)
    assert out["energy"] > 0
    assert out["normalized"] > 0
    assert out["normalized_claimed"] > 0
    assert out["max_count"] >= out["mean_count"] > 0
    assert out["verify"]["passes"]
    again = plate_l2_energy(fam, n_samples=20000, seed=3)
    assert again == out  # deterministic


def test_covering_count_metrics():
    rng = make_rng(2)
    w = rng.random((5000, 2))
    s = 0.1
    euc = covering_count_2d(w, s, "euclidean")
    par = covering_count_2d(w, s, "parabolic")
    assert euc <= 11 ** 2
    assert par > euc  # parabolic cells are thinner in the second axis
    with pytest.raises(ValueError):
        covering_count_2d(w, s, "taxicab")


def test_grid_and_greedy_counts_comparable():
    rng = make_rng(3)
    w = rng.random((2000, 2)) * 2 - 1
    for metric in ("euclidean", "parabolic"):
        for s in (0.2, 0.1):
            grid = covering_count_2d(w, s, metric)
            net = greedy_net_2d(w, s, metric)
            assert grid / net < 8.0
            assert net / grid < 8.0


def test_box_dimension_of_square_and_segment():
    rng = make_rng(4)
    square = rng.random((200000, 2))
    seg = np.stack([np.linspace(0, 1, 100000), np.zeros(100000)], axis=1)
    scales = [2.0 ** -k for k in range(3, 8)]
    d2 = box_dimension(square, scales)["slope"]
    d1 = box_dimension(seg, scales)["slope"]
    assert d2 == pytest.approx(2.0, abs=0.1)
    assert d1 == pytest.approx(1.0, abs=0.05)


def test_box_dimension_parabolic_segment():
    # a horizontal segment {b = const} has parabolic dimension 1, while a
    # vertical segment {a = const} has parabolic dimension 2
    n = 400000
    scales = [2.0 ** -k for k in range(4, 8)]
    horiz = np.stack([np.linspace(0, 1, n), np.zeros(n)], axis=1)
    vert = np.stack([np.zeros(n), np.linspace(0, 1, n)], axis=1)
    dh = box_dimension(horiz, scales, metric="parabolic")["slope"]
    dv = box_dimension(vert, scales, metric="parabolic")["slope"]
    assert dh == pytest.approx(1.0, abs=0.1)
    assert dv == pytest.approx(2.0, abs=0.1)


def test_rho_dimension_axis_family():
    # the vertical axis has full height shadow in every direction: the
    # sqrt-metric (cells scale^2) sees dimension ~2, euclidean cells ~1
    fam = gen_t_axis(2.0 ** -5, s=2.0)
    # keep cells coarser than the point spacing so counts don't saturate
    scales = [2.0 ** -k for k in range(2, 6)]
    out = rho_dimension(fam.centers, [0.0, 0.8], scales)
    assert all(abs(e - 1.0) < 0.2 for e in out["euclidean_slope"])
    assert all(abs(q - 2.0) < 0.3 for q in out["sqrt_slope"])


def test_directional_l2_vs_xray_bounded_ratio():
    rng = make_rng(5)
    mu = DiscreteMeasure.uniform(rng.random((20000, 3)) * 0.8 - 0.4)
    grid = rasterize(mu, [0.05, 0.05, 0.05])
    out = directional_l2_vs_xray(grid)
    assert out["left"] > 0 and out["right"] > 0
    assert 0.05 < out["ratio"] < 20.0


def test_experiment_report_writers(tmp_path):
    rep = ExperimentReport("demo", params={"seed": 1},
                           scalars={"value": 2.5},
                           series={"x": [1, 2, 3], "y": [2.0, 4.0, 8.0]})
    j = tmp_path / "r.json"
    c = tmp_path / "r.csv"
    s = tmp_path / "r.svg"
    rep.write_json(j)
    rep.write_csv(c)
    rep.write_svg(s, "x")
    assert '"name": "demo"' in j.read_text()
    lines = c.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 4
    assert s.read_text().startswith("<svg")
    rep2 = ExperimentReport("demo2")
    with pytest.raises(ValueError):
        rep2.write_csv(tmp_path / "no.csv")
    with pytest.raises(ValueError):
        rep2.write_svg(tmp_path / "no.svg", "x")


def test_manifest_roundtrip(tmp_path):
    entries = {
        "alpha": {"value": 1.25, "samples": 100, "seed": 0,
                  "description": "a thing with spaces"},
        "beta": {"value": -0.5, "samples": 7, "seed": 3,
                 "description": "another"},
    }
    p = tmp_path / "m.txt"
    write_manifest(p, entries)
    back = read_manifest(p)
    assert back == entries


def separation_pair_oracle(c1, c2, r, uniforms):
    """same_direction_separation of one pair, mapping its row of 1024
    uniforms to 256 plate points with ModifiedPlate.sample's formula
    inline and testing all of them.

    Returns the ratio and the index of the first sample in the unit ball
    and in the second plate, both None where the plates do not meet.
    """
    if abs(c1[1] - c2[1]) > r + 1e-12:
        raise ValueError("directions differ by more than the radius")
    p1 = ball_to_modified_plate(c1, r)
    p2 = ball_to_modified_plate(c2, r)
    n = 256
    w0 = uniforms[:2 * n].reshape(n, 2) * [2 * p1.r, 2 * p1.r ** 2] \
        - [p1.r, p1.r ** 2]
    yp = p1.y + (uniforms[2 * n:3 * n] * 2 - 1) * p1.r
    s = (uniforms[3 * n:] * 2 - 1) * 2.0
    w1 = w0[:, 0]
    w2 = w0[:, 1] - p1.y * w0[:, 0]
    pts = np.stack([s, p1.u + w1 - s * yp,
                    p1.v + w2 + 0.5 * s * yp ** 2], axis=1)
    hit = np.flatnonzero((np.linalg.norm(pts, axis=1) <= 1.0)
                         & p2.contains(pts))
    if len(hit):
        return float(heis_dist(c1, c2)) / r, int(hit[0])
    return None, None


def separation_loop_oracle(rng, n_pairs):
    """derive_constants' same-direction pass, one pair at a time over the
    same draws: the centers, then one row of 1024 uniforms a kept pair.

    Returns the kept pairs' centers, ratios (NaN where the plates do not
    meet) and first in-plate sample indices (-1 where they do not meet).
    """
    r = experiments.SEPARATION_RADIUS
    p1 = uniform_ball_points(n_pairs, rng, 0.8)
    a = rng.random(n_pairs)
    p2 = uniform_ball_points(n_pairs, rng)
    kept = []
    for i in range(n_pairs):
        c1 = p1[i].copy()
        c1[1] = min(max(c1[1], -0.9), 0.9)
        c2 = group_mul(c1, dilate(r * float(a[i] * 6.0), p2[i]))
        # clamp the direction gap to the radius, the regime where the
        # separation bound applies
        c2[1] = c1[1] + (c2[1] - c1[1]) * min(
            1.0, r / (abs(c2[1] - c1[1]) + 1e-300))
        if gauge_norm(c2) <= 1.0 and abs(c2[1]) <= 1.0:
            kept.append((c1, c2))
    rows = rng.random((len(kept), 1024))
    out = [separation_pair_oracle(c1, c2, r, row)
           for (c1, c2), row in zip(kept, rows)]
    c1, c2 = (np.array(z).reshape(-1, 3) for z in zip(*kept)) if kept \
        else (np.empty((0, 3)), np.empty((0, 3)))
    return (c1, c2, np.array([np.nan if x is None else x for x, _ in out]),
            np.array([-1 if k is None else k for _, k in out], dtype=int))


def separation_batch_against_loop(seed, n_pairs):
    """Assert that derive_constants' separation pass equals the per-pair
    loop bit for bit and leaves the generator in the loop's state.

    Returns the ratios and the loop's first in-plate sample indices.
    """
    want_rng, rng = make_rng(seed), make_rng(seed)
    want = separation_loop_oracle(want_rng, n_pairs)
    c1, c2 = experiments._separation_pairs(rng, n_pairs)
    ratios = same_direction_separation(
        c1, c2, experiments.SEPARATION_RADIUS, rng)
    assert c1.tobytes() == want[0].tobytes()
    assert c2.tobytes() == want[1].tobytes()
    assert ratios.tobytes() == want[2].tobytes()
    # the generator ends where the per-pair draws leave it
    assert rng.random() == want_rng.random()
    return ratios, want[3]


@pytest.mark.parametrize("n_pairs", [0, 1, 300])
@pytest.mark.parametrize("seed", [0, 7, 8])
def test_separation_batch_matches_per_pair_loop(seed, n_pairs):
    ratios, _ = separation_batch_against_loop(seed, n_pairs)
    if n_pairs == 300:
        assert 0 < np.count_nonzero(ratios > 0) < len(ratios) <= 300


def test_separation_batch_matches_per_pair_loop_at_bench_size():
    # the benchmark's 3,000 pairs, whose draws reach both passes: pairs
    # met among the first samples, pairs first met after them, and pairs
    # whose plates never meet
    _, first = separation_batch_against_loop(7, 3000)
    assert np.any((first >= 0) & (first < plates.FIRST_SAMPLES))
    assert np.any(first >= plates.FIRST_SAMPLES)
    assert np.any(first < 0)


def ball_plate_loop(rng, n_balls):
    """The closed entries dual_ray_inclusion_rate and plate_recovery_C
    re-derived ball by ball with the whole-ray oracle contains_ray.

    Ball i is B(c_i, r_i), c_i uniform in the unit ball (so |y| <= 1) and
    r_i uniform in [0.02, 0.5).  Returns, over all balls: the fraction of
    dual rays inside Pi_{2 r_i} of 10 points drawn in the ball and 10 at
    gauge distance r_i from c_i; the largest |w2 + y w1| / r_i^2 of those
    rays; the largest d / r_i over 24 candidates drawn in B(c_i, 6 r_i)
    whose whole dual ray lies in the plate; and the largest d / r_i of the
    plate's corner ray |w1| = |e| = 2r, w2 = 4r^2, pulled in by 1e-9.
    """
    c = uniform_ball_points(n_balls, rng)
    r = rng.random(n_balls) * 0.48 + 0.02
    pts = uniform_ball_points(n_balls * 20, rng).reshape(n_balls, 20, 3)
    pts[:, 10:] = dilate(1.0 / gauge_norm(pts[:, 10:]), pts[:, 10:])
    cand = uniform_ball_points(n_balls * 24, rng).reshape(n_balls, 24, 3)
    inc, shear, recov, corner = 0, 0.0, 0.0, 0.0
    for i in range(n_balls):
        plate = ball_to_modified_plate(c[i], r[i])
        ray = dual_ray(group_mul(c[i], dilate(r[i], pts[i])).T)
        inc += int(np.count_nonzero(contains_ray(plate, ray)))
        w1 = ray.u - plate.u
        shear = max(shear, float(np.abs(ray.v - plate.v + plate.y * w1)
                                 .max()) / r[i] ** 2)
        q = group_mul(c[i], dilate(6 * r[i], cand[i]))
        kept = contains_ray(plate, dual_ray(q.T), tol=0.0)
        recov = max(recov, float((heis_dist(q[kept], c[i]) / r[i])
                                 .max(initial=0.0)))
        w = plate.r * (1 - 1e-9)
        p = compose_center(plate.u + w, plate.v + w * w - plate.y * w,
                           plate.y + w)
        assert contains_ray(plate, dual_ray(p), tol=0.0)
        corner = max(corner, float(heis_dist(p, c[i])) / r[i])
    return inc / (20 * n_balls), shear, recov, corner


@pytest.mark.parametrize("n_balls", [1, 13, 150])
@pytest.mark.parametrize("seed", [0, 7, 8])
def test_ball_plate_pass_matches_per_ball_loop(seed, n_balls):
    # derive_constants' ball-plate entries are closed (proof in the plates
    # docstring): every dual ray of a ball point is a ray of the plate,
    # |w2 + y w1| <= sqrt(2) r^2 / 4 <= r^2 / 2, and a whole dual ray in
    # the plate has its point within PLATE_OUTER_C r, reached at the corner
    rate, shear, recov, corner = ball_plate_loop(make_rng(seed), n_balls)
    entries = experiments.derive_constants(seed=seed, n_pairs=0)
    assert rate == entries["dual_ray_inclusion_rate"]["value"] == 1.0
    assert shear <= math.sqrt(2) / 4 + 1e-9
    closed = entries["plate_recovery_C"]["value"]
    assert closed == PLATE_OUTER_C
    assert recov <= closed * (1 + 1e-12)
    assert 0.999 * closed <= corner <= closed * (1 + 1e-12)
    if n_balls > 1:
        assert recov > 1.0


def sandwich_grid_c(rng):
    """Largest c = k / 16 whose 40 trials all hold; the sampling behind
    the closed form plates.SANDWICH_INNER_C.

    A trial draws a center c0 uniform in B(0.8) with |y| clamped to 0.9
    and a radius r uniform in [0.01, 0.11), and holds if 200 points of
    the modified plate Pi_{c r} on the dual ray of c0 lie in the rigid
    plate P_r there.  The 640 trials are drawn at once, c-major.
    """
    cvals = np.linspace(1.0 / 16, 1.0, 16)
    n = len(cvals) * 40
    c0 = uniform_ball_points(n, rng, 0.8)
    c0[:, 1] = np.clip(c0[:, 1], -0.9, 0.9)
    r = rng.random(n) * 0.1 + 0.01
    cr = np.repeat(cvals, 40) * r
    ray = dual_ray(c0.T)
    held = np.empty(n, dtype=bool)
    for sl in core.blocks(n, 800):
        u, v, y = ray.u[sl], ray.v[sl], ray.y[sl]
        uni = rng.random((len(u), 800))[:, row_layout(200)]
        pts = ModifiedPlate(u[:, None], v[:, None], y[:, None],
                            cr[sl, None]).sample(uni)
        rigid = Plate(u[:, None], v[:, None], y[:, None], r[sl, None])
        held[sl] = np.all(rigid.contains(pts, tol=1e-9), axis=-1)
    return float(cvals[held.reshape(-1, 40).all(axis=1)].max(initial=0.0))


def sandwich_loop_oracle(rng):
    """derive_constants' sandwich constant by the double loop over c and
    its 40 trials, over the same pre-drawn trials (c-major)."""
    cvals = np.linspace(1.0 / 16, 1.0, 16)
    c0 = uniform_ball_points(640, rng, 0.8)
    r = rng.random(640) * 0.1 + 0.01
    uni = rng.random((640, 800))
    best_c = 0.0
    for ic, cval in enumerate(cvals):
        good = True
        for k in range(40):
            trial = 40 * ic + k
            c = c0[trial].copy()
            c[1] = min(max(c[1], -0.9), 0.9)
            ray = dual_ray(c)
            inner = ModifiedPlate(ray.u, ray.v, ray.y, cval * r[trial])
            rigid = Plate(ray.u, ray.v, ray.y, r[trial])
            pts = inner.sample(uni[trial, row_layout(200)])
            if not bool(np.all(rigid.contains(pts, tol=1e-9))):
                good = False
                break
        if good:
            best_c = float(cval)
    return best_c


@pytest.mark.parametrize("seed", [0, 1, 7, 8])
def test_sandwich_matches_double_loop(seed):
    want_rng, rng = make_rng(seed), make_rng(seed)
    want = sandwich_loop_oracle(want_rng)
    assert sandwich_grid_c(rng) == want
    # the largest grid value k / 16 below the closed form 1/3
    assert want == 5 / 16 == math.floor(16 * SANDWICH_INNER_C) / 16
    assert rng.random() == want_rng.random()


def test_sandwich_corner_fails_just_above_closed_form():
    # Pi_{c r}'s point with w1 = c r and w2 + y w1 = 0 on the ray with
    # offset e = -c r at s = 2 (uniforms 1, 0.5, 0, 1) has W1 = 3 c r:
    # inside the rigid plate P_r at c = 1/3, outside just above it
    u, v, y, r = 0.3, -0.1, 0.4, 0.1
    rigid = Plate(u, v, y, r)
    corner = [1.0, 0.5, 0.0, 1.0]
    for c, inside in ((SANDWICH_INNER_C, True),
                      (SANDWICH_INNER_C * (1 + 1e-9), False),
                      (SANDWICH_INNER_C + 1e-3, False)):
        pts = ModifiedPlate(u, v, y, c * r).sample(corner)
        assert pts.tobytes() == sample_rows(
            ModifiedPlate(u, v, y, c * r), corner)[0].tobytes()
        assert bool(rigid.contains(pts)) is inside, c
    held = ModifiedPlate(u, v, y, SANDWICH_INNER_C * r).sample(
        make_rng(5).random(4 * 20000)[row_layout(20000)])
    assert np.all(rigid.contains(held))


@pytest.mark.parametrize("block", [1, 7, 10 ** 6])
def test_monte_carlo_volume_does_not_depend_on_blocking(monkeypatch, block):
    # the same draw loop at any n, so a small n checks every budget
    want = monte_carlo_ball_volume(30_000, seed=0)
    monkeypatch.setattr(core, "PAIR_BLOCK", block)
    assert monte_carlo_ball_volume(30_000, seed=0) == want


@pytest.mark.parametrize("block", [1, 7, 10 ** 6])
def test_constants_do_not_depend_on_blocking(tmp_path, monkeypatch, block):
    # the seed-0 manifest at the default sizes is the checked-in fixture;
    # the Monte Carlo volume, whose 10^6 rows would be drawn a row or two
    # at a time at budgets 1 and 7, runs at the default budget (the test
    # above checks its blocking)
    default = core.PAIR_BLOCK

    def mc_at_default_budget(n, seed):
        with monkeypatch.context() as m:
            m.setattr(core, "PAIR_BLOCK", default)
            return monte_carlo_ball_volume(n, seed=seed)

    monkeypatch.setattr(experiments, "monte_carlo_ball_volume",
                        mc_at_default_budget)
    monkeypatch.setattr(core, "PAIR_BLOCK", block)
    path = tmp_path / "m.txt"
    write_manifest(path, experiments.derive_constants(seed=0))
    with open("tests/fixtures/constants_manifest.txt", "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_constants_at_bench_size_match_fixture(tmp_path):
    # seed 7 at the benchmark's 3,000 pairs, written before the separation
    # pass was split in two: the manifest keeps every byte
    path = tmp_path / "m.txt"
    assert cli.main(["constants", "--seed", "7", "--pairs", "3000",
                     "--out", str(path)]) == 0
    with open("tests/fixtures/constants_manifest_seed7_3000.txt", "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_fixture_manifest_readable():
    back = read_manifest("tests/fixtures/constants_manifest.txt")
    assert set(back) == {
        "ball_volume_mc", "same_direction_separation_C", "parabolic_bilip_hi",
        "parabolic_bilip_lo", "plate_outer_C", "plate_recovery_C",
        "proj_ball_area", "dual_ray_inclusion_rate", "sandwich_inner_c",
    }
    assert back["dual_ray_inclusion_rate"]["value"] == 1.0
    assert back["plate_recovery_C"]["value"] == back["plate_outer_C"]["value"]
    assert [name for name in back if back[name]["samples"]] == [
        "ball_volume_mc", "same_direction_separation_C"]
