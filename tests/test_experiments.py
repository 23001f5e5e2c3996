import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import experiments
from heislab.core import dilate, group_mul
from heislab.delta_sets import (BallFamily, gen_horizontal_line,
                                gen_lattice_slab, gen_random3, gen_t_axis)
from heislab.experiments import (_ball_charts, _cell_counts,
                                 best_direction_scan, box_dimension,
                                 covering_count_2d, directional_l2_vs_xray,
                                 family_regularity_constant, fit_loglog,
                                 greedy_net_2d, plate_l2_energy,
                                 projection_area, projection_exponent,
                                 rho_dimension)
from heislab.measures import DiscreteMeasure, rasterize
from heislab.projections import pi_e, pixel_area, pixel_keys, rho_e
from heislab.reports import ExperimentReport, read_manifest, write_manifest
from heislab.sampling import (ball_points, make_rng, uniform_ball_points,
                              unit_ball_points)


def projection_area_cloud(theta, centers, radius, pixel, pts_per_ball=200,
                          chunk=20000):
    """Oracle for projection_area: left-translate the dilated 3-D cloud of
    every ball with group_mul, then project every point with pi_e."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(centers),))
    cloud = unit_ball_points(pts_per_ball)
    parts = []
    for i in range(0, len(centers), chunk):
        r = radius[i:i + chunk, None, None]
        offs = cloud[None, :, :] * np.concatenate(
            [np.broadcast_to(r, (len(r), len(cloud), 2)),
             np.broadcast_to(r ** 2, (len(r), len(cloud), 1))], axis=2)
        pts = group_mul(centers[i:i + chunk, None, :], offs).reshape(-1, 3)
        parts.append(np.unique(pixel_keys(pi_e(theta, pts), pixel)))
    total = np.unique(np.concatenate(parts)) if parts else np.empty(0)
    return len(total) * pixel * pixel


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


def test_projection_area_single_ball_matches_pixel_area():
    pix = 2.0 ** -6
    a = projection_area(0.4, np.zeros((1, 3)), 1.0, pix, pts_per_ball=50000)
    cloud = ball_points(np.zeros(3), 1.0, 50000)
    b = pixel_area(pi_e(0.4, cloud), pix)
    assert a == pytest.approx(b, rel=1e-12)


def test_projection_area_union_subadditive():
    pix = 2.0 ** -5
    centers = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
    both = projection_area(0.0, centers, 0.3, pix, pts_per_ball=5000)
    one = projection_area(0.0, centers[:1], 0.3, pix, pts_per_ball=5000)
    assert one < both < 2 * one  # heavy overlap


def test_projection_area_per_ball_radii():
    pix = 2.0 ** -6
    centers = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    a = projection_area(0.3, centers, [0.2, 0.3], pix, pts_per_ball=2000)
    b = projection_area(0.3, centers, [0.3, 0.2], pix, pts_per_ball=2000)
    assert a > 0 and b > 0 and a != b


def test_projection_area_pixel_guard():
    with pytest.raises(ValueError):
        projection_area(0.0, np.zeros((1, 3)), 0.1, 0.06)


@pytest.mark.parametrize("make,pixel_of,pts", [
    (gen_lattice_slab, lambda d: d / 2, 200),
    (gen_horizontal_line, lambda d: d * d / 2, 2000),
    (lambda d: gen_t_axis(d, s=2.0), lambda d: d / 2, 200),
], ids=["slab", "line", "t-axis"])
def test_projection_area_matches_cloud_oracle(make, pixel_of, pts):
    fam = make(2.0 ** -4)
    pix = pixel_of(fam.delta)
    for th in np.arange(8) * math.pi / 8:
        assert projection_area(th, fam.centers, fam.delta, pix, pts) \
            == projection_area_cloud(th, fam.centers, fam.delta, pix, pts)


def test_projection_area_per_ball_radii_match_cloud_oracle():
    rng = make_rng(11)
    centers = uniform_ball_points(300, rng, 0.8)
    radii = rng.random(300) * 0.2 + 0.05
    for th in (0.0, 0.4, math.pi / 2, 2.9):
        assert projection_area(th, centers, radii, 2.0 ** -7, 500) \
            == projection_area_cloud(th, centers, radii, 2.0 ** -7, 500)


@pytest.mark.parametrize("block", [30000, 15000, 10000, 100])
def test_projection_area_blocks_match_cloud_oracle(monkeypatch, block):
    # 150 balls x 200 points: one block, two, three, and blocks smaller
    # than one ball's cloud
    rng = make_rng(12)
    centers = uniform_ball_points(150, rng, 0.7)
    radii = rng.random(150) * 0.1 + 0.1
    want = projection_area_cloud(1.3, centers, radii, 2.0 ** -7)
    monkeypatch.setattr(experiments, "PAIR_BLOCK", block)
    assert projection_area(1.3, centers, radii, 2.0 ** -7) == want


def test_projection_area_empty_family_is_zero():
    assert projection_area(0.3, np.empty((0, 3)), 0.1, 0.01) == 0.0
    assert projection_area(0.3, [], [], 0.01) == 0.0
    fam = BallFamily(np.empty((0, 3)), 0.125, 3.0, 1.0)
    out = best_direction_scan(fam, n_directions=2)
    assert list(out["areas"]) == [0.0, 0.0]


coord = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)


@given(st.floats(-7.0, 7.0), st.tuples(coord, coord, coord),
       st.floats(1e-6, 2.0), st.integers(0, 999))
@settings(max_examples=300, deadline=None)
def test_ball_charts_shear_identity(theta, c, r, k):
    c = np.array(c)
    u = unit_ball_points(1000)[k]
    w = _ball_charts(theta, c[None], np.array([r]), pi_e(theta, u[None]))
    want = pi_e(theta, group_mul(c, dilate(r, u)))
    assert np.allclose(w[0, 0], want, rtol=0, atol=1e-12)


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
        vals = rho_e(th, pts)
        euc = unique_cell_counts(vals, scales)
        sq = unique_cell_counts(vals, [s * s for s in scales])
        assert out["euclidean_slope"][i] == fit_loglog(scales, euc)[0]
        assert out["sqrt_slope"][i] == fit_loglog(scales, sq)[0]


def test_best_direction_scan_tiny_family():
    fam = gen_horizontal_line(0.25)
    out = best_direction_scan(fam, n_directions=8, pts_per_ball=500)
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
    grid = rasterize(mu, [0.05, 0.05, 0.05],
                     origin=[-0.5, -0.5, -0.5], shape=(20, 20, 20))
    out = directional_l2_vs_xray(grid, n_theta=5, n_a=5, n_bc=11)
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


def test_fixture_manifest_readable():
    back = read_manifest("tests/fixtures/constants_manifest.txt")
    assert set(back) == {
        "ball_volume_mc", "same_direction_separation_C", "parabolic_bilip_hi",
        "parabolic_bilip_lo", "plate_outer_C", "plate_recovery_C",
        "proj_ball_area", "dual_ray_inclusion_rate", "sandwich_inner_c",
    }
    assert back["dual_ray_inclusion_rate"]["value"] == 1.0
