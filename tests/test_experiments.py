import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import core, experiments
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
from heislab.plates import (ModifiedPlate, Plate, ball_to_modified_plate,
                            compose_center, same_direction_separation)
from heislab.projections import pi_e, projected_ball_profile, ze_zje
from heislab.reports import ExperimentReport, read_manifest, write_manifest
from heislab.sampling import make_rng, uniform_ball_points


def projection_area_set(theta, centers, radius, pixel):
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
    return len(pixels) * pixel * pixel


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


PROJECTED_BALL_AREA = 2 * math.sqrt(math.pi) * math.gamma(0.75) \
    / math.gamma(0.25)


@pytest.mark.parametrize("k", [6, 8, 10])
def test_projection_area_single_ball_matches_closed_form(k):
    # each column's two floor roundings add about one pixel: the raster
    # exceeds the area by about 2 pixel, never by less than 0
    pix = 2.0 ** -k
    for th in (0.0, 0.4, 2.5):
        excess = projection_area(th, np.zeros((1, 3)), 1.0, pix) \
            - PROJECTED_BALL_AREA
        assert 0.0 <= excess <= 4 * pix, (th, excess)


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
    with one radius or one per ball, and a pixel at most half of each."""
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


@given(ball_families())
@settings(max_examples=200, deadline=None)
def test_projection_area_matches_set_oracle_on_any_family(case):
    theta, centers, radius, pixel = case
    assert projection_area(theta, centers, radius, pixel) \
        == projection_area_set(theta, centers, radius, pixel)


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
    inline."""
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
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    if len(pts) and bool(np.any(p2.contains(pts))):
        return float(heis_dist(c1, c2)) / r
    return None


def separation_loop_oracle(rng, n_pairs):
    """derive_constants' same-direction pass, one pair at a time over the
    same draws: the centers, then one row of 1024 uniforms a kept pair.

    Returns the kept pairs' centers and ratios (NaN where the plates do
    not meet).
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
    ratios = [separation_pair_oracle(c1, c2, r, row)
              for (c1, c2), row in zip(kept, rows)]
    c1, c2 = (np.array(z).reshape(-1, 3) for z in zip(*kept)) if kept \
        else (np.empty((0, 3)), np.empty((0, 3)))
    return c1, c2, np.array([np.nan if x is None else x for x in ratios])


@pytest.mark.parametrize("n_pairs", [0, 1, 300])
@pytest.mark.parametrize("seed", [0, 7, 8])
def test_separation_batch_matches_per_pair_loop(seed, n_pairs):
    want_rng, rng = make_rng(seed), make_rng(seed)
    want = separation_loop_oracle(want_rng, n_pairs)
    c1, c2 = experiments._separation_pairs(rng, n_pairs)
    ratios = same_direction_separation(
        c1, c2, experiments.SEPARATION_RADIUS, rng)
    assert c1.tobytes() == want[0].tobytes()
    assert c2.tobytes() == want[1].tobytes()
    assert ratios.tobytes() == want[2].tobytes()
    if n_pairs == 300:
        assert 0 < np.count_nonzero(ratios > 0) < len(ratios) <= 300
    # the generator ends where the per-pair draws leave it
    assert rng.random() == want_rng.random()


def ball_plate_loop_oracle(rng, n_balls):
    """derive_constants' ball-plate pass, one ball at a time over the same
    pre-drawn arrays: centers, radii, ball points, plate-ray uniforms and
    recovery candidates."""
    c = uniform_ball_points(n_balls, rng, 0.9)
    r = rng.random(n_balls) * 0.2 + 0.02
    pts = uniform_ball_points(n_balls * 10, rng).reshape(n_balls, 10, 3)
    ray_uni = rng.random((n_balls, 10, 3))
    cand = uniform_ball_points(n_balls * 24, rng).reshape(n_balls, 24, 3)
    inc, outer, recov = 0, 0.0, 0.0
    svals = np.linspace(-1.0, 1.0, 21)[:, None]
    for i in range(n_balls):
        ci = c[i].copy()
        ci[1] = min(max(ci[1], -0.95), 0.95)
        plate = ball_to_modified_plate(ci, r[i])
        qs = group_mul(ci, dilate(r[i] * 0.999, pts[i]))
        inc += int(np.count_nonzero(plate.contains_ray(dual_ray(qs.T))))
        rays = plate.sample_rays(ray_uni[i])
        p = compose_center(rays.u, rays.v, rays.y)
        outer = max(outer, float((heis_dist(p, ci) / r[i]).max()))
        # ray point s of candidate k is ray_pts[s, k], tested if in B(1)
        q = group_mul(ci, dilate(4 * r[i], cand[i]))
        ray_pts = np.stack(np.broadcast_arrays(
            *dual_ray(q.T).point_at(svals)), axis=-1)
        tested = np.linalg.norm(ray_pts, axis=-1) <= 1.0
        kept = np.any(tested, axis=0) & np.all(
            plate.contains(ray_pts) | ~tested, axis=0)
        if np.any(kept):
            recov = max(recov, float((heis_dist(q[kept], ci) / r[i]).max()))
    return inc, outer, recov


@pytest.mark.parametrize("n_balls", [1, 13, 150])
@pytest.mark.parametrize("seed", [0, 7, 8])
def test_ball_plate_pass_matches_per_ball_loop(seed, n_balls):
    want_rng, rng = make_rng(seed), make_rng(seed)
    want = ball_plate_loop_oracle(want_rng, n_balls)
    got = experiments._ball_plate_pass(rng, n_balls)
    assert got == want
    assert got[0] == 10 * n_balls and got[1] > 1.0 and got[2] > 1.0
    assert rng.random() == want_rng.random()


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
            pts = inner.sample(uni[trial])
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
    assert experiments._sandwich_c(rng) == want
    assert 0.0 < want < 1.0
    assert rng.random() == want_rng.random()


@pytest.mark.parametrize("block", [1, 7, 10 ** 6])
def test_constants_do_not_depend_on_blocking(tmp_path, monkeypatch, block):
    # the seed-0 manifest at the default sizes is the checked-in fixture
    monkeypatch.setattr(core, "PAIR_BLOCK", block)
    path = tmp_path / "m.txt"
    write_manifest(path, experiments.derive_constants(seed=0))
    with open("tests/fixtures/constants_manifest.txt", "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_fixture_manifest_readable():
    back = read_manifest("tests/fixtures/constants_manifest.txt")
    assert set(back) == {
        "ball_volume_mc", "same_direction_separation_C", "parabolic_bilip_hi",
        "parabolic_bilip_lo", "plate_outer_C", "plate_recovery_C",
        "proj_ball_area", "dual_ray_inclusion_rate", "sandwich_inner_c",
    }
    assert back["dual_ray_inclusion_rate"]["value"] == 1.0
