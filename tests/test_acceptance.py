"""End-to-end acceptance checks with pinned tolerances.

Each test prints a PASS line with the measured quantity so a verbose run
doubles as a quantitative report.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from heislab.cinematic import (f_d1, f_d2, f_eval, jet_jacobian_absdet,
                               rotation_residual)
from heislab.core import (UNIT_BALL_VOLUME, gauge_norm, group_mul,
                          heis_dist_trunc)
from heislab.delta_sets import (BallFamily, gen_heis_lattice,
                                gen_horizontal_line, gen_lattice_slab,
                                gen_random3, gen_t_axis)
from heislab.duality import (HorizontalLine, dual_ray, incident_point_line,
                             incident_point_ray, line_residuals,
                             ray_residuals)
from heislab.experiments import (box_dimension, derive_constants, fit_loglog,
                                 plate_l2_energy, projection_area,
                                 projection_exponent)
from heislab.measures import (DiscreteMeasure, augment_to_dim3, grid_z,
                              riesz_energy)
from heislab.projections import pi_e
from heislab.reports import read_manifest
from heislab.sampling import (make_rng, monte_carlo_ball_volume,
                              uniform_ball_points)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_acceptance_01_duality_biconditional():
    # float side: 1e5 incident pairs have residuals at rounding level and
    # perturbed pairs are flagged identically by both predicates
    rng = make_rng(10)
    abc = rng.random((100000, 3)) * 2 - 1
    s = rng.random(100000) * 2 - 1
    pts = np.stack([abc[:, 0] * s + abc[:, 1], s,
                    abc[:, 1] * s / 2 + abc[:, 2]], axis=1)
    R = np.stack(line_residuals(pts.T, HorizontalLine(*abc.T)), axis=1)
    S = np.stack(ray_residuals(abc.T, dual_ray(pts.T)), axis=1)
    worst = max(float(np.max(np.abs(R))), float(np.max(np.abs(S))))
    assert worst <= 1e-10

    # moved points fail or pass both predicates together
    bump = np.zeros_like(pts)
    bump[:, 2] = np.where(rng.random(100000) < 0.5, 0.0, 1e-3)
    moved = pts + bump
    Rm = np.stack(line_residuals(moved.T, HorizontalLine(*abc.T)), axis=1)
    Sm = np.stack(ray_residuals(abc.T, dual_ray(moved.T)), axis=1)
    hit_line = np.all(np.abs(Rm) <= 1e-10, axis=1)
    hit_ray = np.all(np.abs(Sm) <= 1e-10, axis=1)
    assert np.array_equal(hit_line, hit_ray)

    # exact side: rational points on/off rational lines agree exactly
    rng2 = make_rng(11)
    for _ in range(200):
        a, b, c, y, off = (Fraction(int(k), 64)
                           for k in rng2.integers(-640, 640, 5))
        line = HorizontalLine(a, b, c)
        p = line.point_at(y)
        q = (p[0], p[1], p[2] + off)
        for pt in (p, q):
            on_line = incident_point_line(pt, line)
            on_ray = incident_point_ray((a, b, c), dual_ray(pt))
            assert on_line == on_ray
        assert incident_point_line(p, line)
    print("PASS duality biconditional: max float residual %.3g" % worst)


def test_acceptance_02_projection_closed_forms():
    rng = make_rng(12)
    p = rng.random((10000, 3)) * 4 - 2
    x, y, t = p[:, 0], p[:, 1], p[:, 2]
    e1 = pi_e(0.0, p)
    want1 = np.stack([y, t + 0.5 * x * y], axis=1)
    e2 = pi_e(math.pi / 2, p)
    want2 = np.stack([-x, t - 0.5 * x * y], axis=1)
    d1 = float(np.max(np.abs(e1 - want1)))
    d2 = float(np.max(np.abs(e2 - want2)))
    assert d1 <= 1e-12
    assert d2 <= 1e-12
    print("PASS projection closed forms: max errors %.3g / %.3g" % (d1, d2))


def test_acceptance_03_cinematic_derivatives_and_jet():
    rng = make_rng(13)
    p = rng.random((20000, 3)) * 4 - 2
    th = rng.random(20000) * 2 * np.pi
    h = 1e-4
    fd1 = (f_eval(p, th + h) - f_eval(p, th - h)) / (2 * h)
    fd2 = (f_eval(p, th + h) - 2 * f_eval(p, th)
           + f_eval(p, th - h)) / h ** 2
    err1 = float(np.max(np.abs(f_d1(p, th) - fd1)
                        / np.maximum(np.abs(fd1), 1.0)))
    err2 = float(np.max(np.abs(f_d2(p, th) - fd2)
                        / np.maximum(np.abs(fd2), 1.0)))
    assert err1 < 1e-5
    assert err2 < 1e-4

    # |det DF| = 2 |z|^2 exactly
    det_err = float(np.max(np.abs(
        jet_jacobian_absdet(p) - 2 * (p[:, 0] ** 2 + p[:, 1] ** 2))))
    assert det_err <= 1e-12

    # rotating the point shifts the graph: f_{R_phi p}(theta + phi) = f_p(theta)
    phis = rng.random(20000) * 2 * np.pi
    rot = float(np.max(rotation_residual(p, phis, th)))
    assert rot <= 1e-10
    print("PASS cinematic: d1 err %.2g, d2 err %.2g, det err %.2g, "
          "rotation %.2g" % (err1, err2, det_err, rot))


def test_acceptance_04_ball_volume_three_ways():
    closed = UNIT_BALL_VOLUME
    integral, quad_err = quad(lambda r: math.pi * r * math.sqrt(1 - r ** 4),
                              0.0, 1.0)
    assert integral == pytest.approx(closed, rel=1e-10)
    mc = monte_carlo_ball_volume(10_000_000, seed=14)
    rel = abs(mc - closed) / closed
    assert rel < 0.005
    print("PASS ball volume: closed %.10f, quad %.10f, MC %.6f "
          "(rel dev %.4f%%)" % (closed, integral, mc, 100 * rel))


def test_acceptance_05_projected_area_left_invariance():
    rng = make_rng(15)
    centers = uniform_ball_points(50, rng, 0.6)
    radii = rng.random(50) * 0.3 + 0.2
    translates = uniform_ball_points(5, rng, 0.5)
    pix = 2.0 ** -7
    thetas = np.arange(16) * math.pi / 16
    worst = 0.0
    for th in thetas:
        base = projection_area(th, centers, radii, pix)
        for g in translates:
            moved = group_mul(g, centers)
            area = projection_area(th, moved, radii, pix)
            worst = max(worst, abs(area - base) / base)
    assert worst <= 0.02
    print("PASS projected-area left invariance: worst rel dev %.4f" % worst)


def test_acceptance_06_constants_manifest():
    # every dual ray of a ball point lands in the scale-2r plate, the
    # closed entries come from no samples and do not move with the seed,
    # the derived constants are stable across seeds, and the checked-in
    # manifest still matches a fresh derivation at its recorded seed
    fixture = read_manifest(os.path.join(FIXTURES, "constants_manifest.txt"))
    seed0 = derive_constants(seed=0)
    assert set(seed0) == set(fixture)
    for name, entry in seed0.items():
        assert entry["value"] == pytest.approx(
            fixture[name]["value"], rel=1e-12, abs=1e-15), name
    assert seed0["dual_ray_inclusion_rate"]["value"] == 1.0

    seed1 = derive_constants(seed=1)
    closed = [name for name, entry in seed0.items()
              if entry["description"].startswith("closed:")]
    assert "plate_recovery_C" in closed and len(closed) == 7
    for name in closed:
        assert seed0[name]["samples"] == seed1[name]["samples"] == 0, name
        assert seed0[name]["value"] == seed1[name]["value"], name
    worst = 0.0
    for name in seed0:
        a, b = seed0[name]["value"], seed1[name]["value"]
        dev = abs(a - b) / max(abs(a), abs(b), 1e-12)
        worst = max(worst, dev)
        assert dev <= 0.20, (name, a, b)
    print("PASS constants manifest: regression exact, cross-seed "
          "max rel dev %.3f" % worst)


def test_acceptance_07_riesz_energy_oracle():
    rng = make_rng(16)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        pts = rng.random((n, 3)) - 0.5
        w = rng.random(n) + 0.1
        mu = DiscreteMeasure(pts, w)
        s = float(rng.random() * 3)
        delta = float(rng.random() * 0.2 + 0.01)
        fast = riesz_energy(mu, s, delta)
        slow = 0.0
        for i in range(n):
            for j in range(n):
                d = max(float(heis_dist_trunc(pts[i], pts[j], delta)), delta)
                slow += w[i] * w[j] / d ** s
        worst = max(worst, abs(fast - slow) / slow)
    assert worst <= 1e-12
    print("PASS riesz energy vs loop oracle: worst rel dev %.2g" % worst)


def test_acceptance_08_dimension_augmentation():
    deltas = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    ratios_all = {}
    for t, s in ((1.0, 2.0), (2.0, 1.0)):
        ratios = []
        for delta in deltas:
            fam = gen_t_axis(delta, s=t)
            mu = DiscreteMeasure.uniform(fam.centers)
            eta, conv, rep = augment_to_dim3(mu, s=s, t=t, delta=delta,
                                             seed=42)
            assert 0 < rep["H_size"] <= rep["H_bound"]
            assert rep["retries"] <= 64
            ratios.append(rep["energy_ratio"])
        ratios_all[(t, s)] = ratios
        # the augmented (s+t)-energy stays controlled by the t-energy of
        # the base: the log^2-normalized ratio must not blow up as
        # delta shrinks
        assert max(ratios) <= 1.5 * ratios[0] + 1e-12, ratios

    # |H| concentrates at its expectation: over 200 seeds the sample mean
    # is within 3 standard errors of prob * |Z|
    delta = 2.0 ** -4
    Z = grid_z(delta)
    nz = len(Z)
    prob = min(1.0, delta ** -2.0 / (2.0 * nz))
    sizes = [int((make_rng(seed).random(nz) < prob).sum())
             for seed in range(200)]
    expected = prob * nz
    se = math.sqrt(nz * prob * (1 - prob) / 200)
    assert abs(np.mean(sizes) - expected) <= 3 * se
    print("PASS augmentation: ratios %s; E|H| %.2f vs %.2f (3se %.2f)"
          % ({k: [round(r, 4) for r in v] for k, v in ratios_all.items()},
             np.mean(sizes), expected, 3 * se))


def test_acceptance_09_plate_energy_growth_and_violation():
    deltas = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    normalized = []
    claimed = []
    for delta in deltas:
        fam = gen_random3(delta, seed=1)
        out = plate_l2_energy(fam, n_samples=200000, seed=3)
        normalized.append(out["normalized"])
        claimed.append(out["normalized_claimed"])
    slope, _, _ = fit_loglog(deltas, normalized)
    assert abs(slope) < 0.4, (normalized, slope)

    # a concentrated family (everything packed in one 10 delta ball) making
    # the same (delta, 3, C) claim must show a strongly elevated
    # C-normalized energy
    delta = 2.0 ** -5
    pts = gen_heis_lattice(delta).centers
    pts = pts[gauge_norm(pts) <= 10 * delta]
    bad = BallFamily(pts, delta, 3.0, 8.0, kind="concentrated")
    bad.validate()
    out_bad = plate_l2_energy(bad, n_samples=200000, seed=3)
    ratio = out_bad["normalized_claimed"] / claimed[-1]
    assert ratio >= 4.0, (out_bad["normalized_claimed"], claimed[-1])
    print("PASS plate energy: normalized %s (slope %.3f), concentrated "
          "violation x%.1f" % ([round(v) for v in normalized], slope, ratio))


def test_acceptance_10_projection_exponents_by_dimension():
    deltas = [2.0 ** -k for k in range(3, 7)]
    thetas = np.arange(16) * math.pi / 16

    def best_areas(make_family, pixel_of):
        areas = {}
        for delta in deltas:
            fam = make_family(delta)
            pix = pixel_of(delta)
            areas[delta] = max(
                projection_area(th, fam.centers, fam.delta, pix)
                for th in thetas)
        return areas

    # t = 1: a line of balls projects to area ~ delta^2 in the best
    # direction; resolving that needs pixels below delta^2
    a1 = best_areas(gen_horizontal_line, lambda d: d * d / 2)
    e1, _ = projection_exponent(a1)
    assert abs(e1 - 2.0) <= 0.35, (a1, e1)

    # t = 2: vertical-axis families project to area ~ delta
    a2 = best_areas(lambda d: gen_t_axis(d, s=2.0), lambda d: d / 2)
    e2, _ = projection_exponent(a2)
    assert abs(e2 - 1.0) <= 0.35, (a2, e2)

    # t = 3: full-dimensional families keep area ~ 1
    a3 = best_areas(gen_lattice_slab, lambda d: d / 2)
    e3, _ = projection_exponent(a3)
    assert abs(e3 - 0.0) <= 0.35, (a3, e3)

    # the axis family is direction-independent: every direction gives
    # comparable area (no exceptional directions)
    delta = 2.0 ** -5
    fam = gen_t_axis(delta, s=2.0)
    per_dir = [projection_area(th, fam.centers, delta, delta / 2)
               for th in thetas]
    assert max(per_dir) / min(per_dir) <= 3.0
    print("PASS projection exponents: t=1 -> %.2f, t=2 -> %.2f, "
          "t=3 -> %.2f; axis anisotropy %.2f"
          % (e1, e2, e3, max(per_dir) / min(per_dir)))


def test_acceptance_11_parabolic_metric_slopes():
    scales = [2.0 ** -k for k in range(4, 8)]

    def slope_of(w):
        return box_dimension(w, scales)["slope"]

    n = 200001
    u = np.linspace(-1.0, 1.0, n)
    vertical = np.stack([np.zeros(n), u], axis=1)
    horizontal = np.stack([u, np.zeros(n)], axis=1)
    sv = slope_of(vertical)
    sh = slope_of(horizontal)
    assert abs(sv - 2.0) <= 0.15, sv
    assert abs(sh - 1.0) <= 0.10, sh

    # a projected horizontal line traces a parabola in the chart and its
    # parabolic dimension is 2 as well
    line = HorizontalLine(0.4, 0.3, -0.2)
    pts = np.array([line.point_at(si) for si in u])
    w = pi_e(1.0, pts)
    sp = slope_of(w)
    assert abs(sp - 2.0) <= 0.25, sp
    print("PASS parabolic slopes: vertical %.3f, horizontal %.3f, "
          "projected line %.3f" % (sv, sh, sp))


def test_acceptance_12_bit_identical_reruns(tmp_path, child_env):
    args = [sys.executable, "-m", "heislab.cli", "experiment",
            "best-direction", "--kind", "horizontal-line", "--delta", "0.25",
            "--directions", "8", "--points-per-ball", "500", "--seed", "5"]
    blobs = []
    for sub in ("a", "b", "c"):
        out = tmp_path / sub
        r = subprocess.run(args + ["--out-dir", str(out)],
                           capture_output=True, text=True, env=child_env(),
                           cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        blobs.append({ext: (out / ("best_direction" + ext)).read_bytes()
                      for ext in (".json", ".csv", ".svg")})
    assert blobs[0] == blobs[1] == blobs[2]
    payload = json.loads(blobs[0][".json"].decode())
    assert payload["params"]["seed"] == 5
    print("PASS determinism: 3 runs bit-identical, "
          "%d json bytes" % len(blobs[0][".json"]))
