import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heislab.core
from heislab.core import group_mul, heis_dist, heis_dist_trunc
from heislab.delta_sets import gen_lattice_slab, gen_t_axis
from heislab.measures import (DiscreteMeasure, GridDensity, augment_to_dim3,
                              ball_masses, delta_measure_report, grid_z,
                              heis_convolve, layer_decomposition, rasterize,
                              riesz_energy)
from heislab.sampling import make_rng
from test_core import SYMMETRIES


def riesz_energy_loop(mu, s, delta):
    total = 0.0
    for i in range(len(mu)):
        for j in range(len(mu)):
            d = max(float(heis_dist_trunc(mu.points[i], mu.points[j], delta)),
                    delta)
            total += mu.weights[i] * mu.weights[j] / d ** s
    return total


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_discrete_measure_rejects_a_nonfinite_atom(bad):
    # a NaN atom had passed, and rasterize warned in a cast and binned it
    # at a garbage index
    with pytest.raises(ValueError, match="points must be finite"):
        DiscreteMeasure([[0.0, 0.0, 0.0], [0.0, bad, 0.0]], [0.5, 0.5])


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 3)), np.array([-1.0]))
    mu = DiscreteMeasure.uniform(np.zeros((4, 3)))
    assert mu.weights.sum() == pytest.approx(1.0)
    assert len(mu) == 4
    # an empty uniform measure has no weight 1/n to give
    with pytest.raises(ValueError, match="at least one point"):
        DiscreteMeasure.uniform(np.zeros((0, 3)))


def test_riesz_energy_matches_loop():
    rng = make_rng(0)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(1, 11))
        pts = rng.random((n, 3)) - 0.5
        w = rng.random(n) + 0.1
        mu = DiscreteMeasure(pts, w)
        s = float(rng.random() * 3)
        delta = float(rng.random() * 0.2 + 0.01)
        fast = riesz_energy(mu, s, delta)
        slow = riesz_energy_loop(mu, s, delta)
        worst = max(worst, abs(fast - slow) / slow)
    assert worst <= 1e-12


def test_riesz_energy_blocking_invariance(monkeypatch):
    rng = make_rng(1)
    mu = DiscreteMeasure(rng.random((300, 3)) - 0.5, rng.random(300))
    e_default = riesz_energy(mu, 2.0, 0.05)
    assert e_default == pytest.approx(riesz_energy_loop(mu, 2.0, 0.05),
                                      rel=1e-12)
    # one row a block, two blocks of 150 rows, one block
    for block in (7, 300 * 150, 10 ** 6):
        monkeypatch.setattr(heislab.core, "PAIR_BLOCK", block)
        assert riesz_energy(mu, 2.0, 0.05) == pytest.approx(e_default,
                                                             rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_riesz_energy_validation():
    mu = DiscreteMeasure.uniform(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        riesz_energy(mu, -1.0, 0.1)
    with pytest.raises(ValueError):
        riesz_energy(mu, 1.0, 0.0)
    # NaN fails every comparison: the checks accept only what is valid
    with pytest.raises(ValueError, match="delta"):
        riesz_energy(mu, 3.0, np.nan)
    with pytest.raises(ValueError, match="s must"):
        riesz_energy(mu, np.nan, 0.1)
    # an infinite delta would give 0.0, and an infinite s a division by zero
    with pytest.raises(ValueError, match="delta must be finite"):
        riesz_energy(mu, 3.0, np.inf)
    with pytest.raises(ValueError, match="s must be finite"):
        riesz_energy(mu, np.inf, 0.1)


def test_riesz_diagonal_term():
    mu = DiscreteMeasure(np.zeros((1, 3)), np.array([2.0]))
    assert riesz_energy(mu, 1.5, 0.1) == pytest.approx(4.0 / 0.1 ** 1.5)


def test_convolution_is_group_pushforward():
    rng = make_rng(2)
    mu = DiscreteMeasure(rng.random((5, 3)), rng.random(5))
    nu = DiscreteMeasure(rng.random((7, 3)), rng.random(7))
    conv = heis_convolve(mu, nu)
    assert len(conv) == 35
    assert conv.weights.sum() == pytest.approx(mu.weights.sum()
                                               * nu.weights.sum())
    k = 0
    for i in range(5):
        for j in range(7):
            assert np.allclose(conv.points[k],
                               group_mul(mu.points[i], nu.points[j]))
            assert conv.weights[k] == pytest.approx(
                mu.weights[i] * nu.weights[j])
            k += 1


def test_convolution_noncommutative():
    mu = DiscreteMeasure(np.array([[1.0, 0, 0]]), np.array([1.0]))
    nu = DiscreteMeasure(np.array([[0, 1.0, 0]]), np.array([1.0]))
    ab = heis_convolve(mu, nu)
    ba = heis_convolve(nu, mu)
    assert not np.allclose(ab.points, ba.points)


def test_convolution_atom_guard():
    mu = DiscreteMeasure.uniform(np.zeros((3000, 3)))
    with pytest.raises(ValueError):
        heis_convolve(mu, mu)


def test_ball_masses():
    pts = np.array([[0, 0, 0], [0.5, 0, 0], [2.0, 0, 0]])
    mu = DiscreteMeasure(pts, np.array([1.0, 2.0, 4.0]))
    m = ball_masses(mu, 1.0)
    assert m.tolist() == [3.0, 3.0, 4.0]


def test_ball_masses_match_dense_sum():
    rng = make_rng(6)
    mu = DiscreteMeasure(rng.random((700, 3)) * 2 - 1, rng.random(700))
    d = heis_dist(mu.points[:, None, :], mu.points[None, :, :])
    for r in (0.0, 0.1, 0.4, 1.0, 5.0):
        want = ((d <= r) * mu.weights[None, :]).sum(axis=1)
        assert np.allclose(ball_masses(mu, r), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family", [gen_lattice_slab(2.0 ** -5, 0.0371),
                                    gen_t_axis(2.0 ** -6)],
                         ids=lambda f: f.kind)
def test_ball_masses_exact_under_symmetries(family):
    # small integer weights sum exactly in any order, so the masses are
    # the same bits however the maps reorder each ball's pairs
    w = make_rng(4).integers(1, 8, len(family)).astype(float)
    r = 2 * family.delta
    want = ball_masses(DiscreteMeasure(family.centers, w), r)
    assert np.all(want > w)  # every ball holds more than its center
    for f, lam in SYMMETRIES:
        got = ball_masses(DiscreteMeasure(f(family.centers), w), lam * r)
        assert got.tobytes() == want.tobytes()


def test_grid_density_mass_and_occupied():
    g = GridDensity(origin=[0, 0, 0], spacing=[0.5, 0.5, 0.25],
                    values=np.zeros((2, 2, 2)))
    g.values[1, 0, 1] = 8.0
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.total_mass == pytest.approx(0.5)
    centers, dens = g.occupied()
    assert np.allclose(centers, [[0.75, 0.25, 0.375]])
    assert dens.tolist() == [8.0]
    with pytest.raises(ValueError):
        GridDensity([0, 0, 0], [0.1, 0.0, 0.1], np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        GridDensity([0, 0, 0], [0.1, np.nan, 0.1], np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        GridDensity([0, 0, 0], [0.1, 0.1, np.inf], np.zeros((1, 1, 1)))


def test_rasterize_preserves_mass():
    rng = make_rng(3)
    mu = DiscreteMeasure(rng.random((2000, 3)) - 0.5, rng.random(2000))
    g = rasterize(mu, [0.1, 0.1, 0.01])
    assert g.total_mass == pytest.approx(mu.weights.sum(), rel=1e-12)


def test_rasterize_keeps_an_atom_just_below_its_origin():
    # floor(x / h) * h rounds above x here, so x's cell index is -1
    h = 0.0026527635528529095
    x = -0.055708034609911104
    mu = DiscreteMeasure([[x, 0.0, 0.0], [x + 5 * h, 0.0, 0.0]], [1.0, 1.0])
    g = rasterize(mu, [h, 1.0, 1.0])
    assert g.origin[0] > x
    assert g.total_mass == 2.0
    assert g.values[0, 0, 0] * g.cell_volume == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
def test_rasterize_rejects_bad_spacing(bad):
    # checked before binning: a zero, NaN or infinite entry used to warn
    # and then fail on a negative grid dimension
    mu = DiscreteMeasure.uniform(make_rng(3).random((20, 3)))
    for i in range(3):
        spacing = [0.1, 0.1, 0.01]
        spacing[i] = bad
        with pytest.raises(ValueError, match="spacing must be finite"):
            rasterize(mu, spacing)


def test_delta_measure_report_uniform_grid_passes():
    # a flat density is its own ball average up to discretization
    delta = 0.2
    k = 10
    vals = np.ones((k, k, k))
    g = GridDensity(origin=[-0.5, -0.5, -0.05],
                    spacing=[0.1, 0.1, 0.01], values=vals)
    rep = delta_measure_report(g, delta)
    assert rep["cells"] == k ** 3
    assert 0 < rep["max_ratio"] <= 4.0


def test_delta_measure_report_flags_spike():
    delta = 0.2
    vals = np.ones((10, 10, 10))
    vals[5, 5, 5] = 1e6
    g = GridDensity(origin=[-0.5, -0.5, -0.05],
                    spacing=[0.1, 0.1, 0.01], values=vals)
    rep = delta_measure_report(g, delta)
    assert rep["max_ratio"] > 4.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
def test_delta_measure_report_rejects_bad_delta(bad):
    # at delta 0 the ball volume is 0, and the report used to pass with
    # max_ratio 0.0 after a division by it
    g = GridDensity([0, 0, 0], [0.1, 0.1, 0.01], np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="delta must be finite"):
        delta_measure_report(g, bad)


def test_delta_measure_report_empty():
    g = GridDensity([0, 0, 0], [1, 1, 1], np.zeros((2, 2, 2)))
    rep = delta_measure_report(g, 0.1)
    assert rep == {"max_ratio": 0.0, "cells": 0}


def test_layer_decomposition_partition_and_bounds():
    rng = make_rng(4)
    pts = np.concatenate([rng.random((50, 3)) * 0.01,     # dense clump
                          rng.random((50, 3)) * 2 - 1])   # spread out
    mu = DiscreteMeasure.uniform(pts)
    delta = 0.05
    layers = layer_decomposition(mu, delta)
    seen = np.concatenate([idx for _, idx, _ in layers])
    assert sorted(seen.tolist()) == list(range(100))
    m = ball_masses(mu, delta)
    for alpha, idx, discard in layers:
        assert np.all(m[idx] <= alpha + 1e-12)
        assert np.all(m[idx] >= alpha / 2 - 1e-12)
        assert discard == (alpha <= delta ** 10)


# an exact power of two, or its neighbour below or above
dyadic_mass = st.builds(
    lambda k, toward: float(np.nextafter(2.0 ** k, toward * 2.0 ** k)),
    st.integers(-40, 2), st.sampled_from([0.0, 1.0, np.inf]))


@given(st.lists(dyadic_mass | st.floats(1e-12, 4.0), min_size=1,
                max_size=12))
@settings(max_examples=200, deadline=None)
def test_layer_decomposition_levels_hold_their_masses(masses):
    # atoms a unit apart at delta 0.1: each ball holds its own atom alone
    pts = np.zeros((len(masses), 3))
    pts[:, 0] = np.arange(len(masses))
    mu = DiscreteMeasure(pts, np.array(masses))
    assert np.array_equal(ball_masses(mu, 0.1), masses)
    layers = layer_decomposition(mu, 0.1)
    seen = np.concatenate([idx for _, idx, _ in layers])
    assert sorted(seen.tolist()) == list(range(len(masses)))
    for alpha, idx, _ in layers:
        m = np.array(masses)[idx]
        assert np.all(alpha / 2 < m) and np.all(m <= alpha), (alpha, m)


def test_layer_decomposition_just_above_a_power_of_two():
    m = float(np.nextafter(2.0 ** -10, 1.0))
    mu = DiscreteMeasure(np.zeros((1, 3)), np.array([m]))
    [(alpha, idx, _)] = layer_decomposition(mu, 0.1)
    assert alpha == 2.0 ** -9 and list(idx) == [0]


def test_grid_z_is_euclidean_and_in_ball():
    delta = 0.25
    Z = grid_z(delta)
    assert np.allclose(np.round(Z / delta), Z / delta)
    from heislab.core import gauge_norm
    assert float(gauge_norm(Z).max()) <= 1.0
    # t-spacing is delta (Euclidean), not delta^2
    ts = np.unique(Z[:, 2])
    assert np.min(np.diff(ts)) == pytest.approx(delta)


def test_augmentation_h_size_and_weights():
    mu = DiscreteMeasure.uniform(gen_t_axis(2.0 ** -3, s=1.0).centers)
    delta = 2.0 ** -3
    eta, conv, rep = augment_to_dim3(mu, s=2.0, t=1.0, delta=delta, seed=42)
    assert 0 < rep["H_size"] <= rep["H_bound"]
    assert rep["retries"] <= 64
    assert np.all(eta.weights == delta ** 2)
    assert len(conv) == len(eta) * len(mu)
    assert rep["energy_ratio"] > 0
    assert rep["energy_conv_st"] == pytest.approx(
        riesz_energy(conv, 3.0, delta), rel=1e-12)


def test_augmentation_deterministic():
    mu = DiscreteMeasure.uniform(gen_t_axis(2.0 ** -3, s=1.0).centers)
    _, _, r1 = augment_to_dim3(mu, 2.0, 1.0, 2.0 ** -3, seed=9)
    _, _, r2 = augment_to_dim3(mu, 2.0, 1.0, 2.0 ** -3, seed=9)
    assert r1 == r2


def test_augmentation_validation():
    mu = DiscreteMeasure.uniform(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        augment_to_dim3(mu, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        augment_to_dim3(mu, 1.0, -1.0, 0.1)
    # a NaN dimension is rejected before any draw
    with pytest.raises(ValueError):
        augment_to_dim3(mu, np.nan, 1.0, 0.25)
    with pytest.raises(ValueError):
        augment_to_dim3(mu, 1.0, np.nan, 0.25)
    # so is a delta outside (0, 1/2]
    for delta in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError):
            augment_to_dim3(mu, 1.0, 1.0, delta)
