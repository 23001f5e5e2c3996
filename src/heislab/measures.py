"""Discrete measures on the group: energies, convolution, augmentation.

The truncated s-energy of a discrete measure mu = sum_i w_i delta_{x_i} is

    I_s^delta(mu) = sum_{i, j} w_i w_j / max(d(x_i, x_j), delta)^s,

diagonal included (each diagonal term contributes w_i^2 / delta^s).

Group convolution of discrete measures is the pushforward of the product
measure under (p, q) -> p * q; it is generally non-commutative and the
total mass multiplies.

augment_to_dim3 upgrades a (delta, t)-style measure to dimension s + t by
convolving with a random s-dimensional density: H is a Bernoulli sample
of the Euclidean grid delta Z^3 inside the unit gauge ball with inclusion
probability delta^-s / (2 |Z|), redrawn until |H| <= delta^-s (at most
MAX_RETRIES times), and eta puts weight delta^s on each point of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_as_points, ball_volume, blocks, gauge_pairs, group_mul,
                   heis_dist_trunc)
from .delta_sets import ball_grid, check_delta, grid_columns
from .projections import distinct
from .sampling import make_rng

# Largest convolution heis_convolve builds.
MAX_ATOMS = 5_000_000
# Redraws of H in augment_to_dim3 before it gives up.
MAX_RETRIES = 64


@dataclass
class DiscreteMeasure:
    """Finitely supported measure: atoms (n, 3) with nonnegative weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = _as_points(self.points).reshape(-1, 3)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights length mismatch")
        if np.any(self.weights < 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")

    def __len__(self):
        return len(self.points)

    @classmethod
    def uniform(cls, points):
        points = _as_points(points).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("a uniform measure needs at least one point")
        return cls(points, np.full(len(points), 1.0 / len(points)))


def riesz_energy(mu, s, delta):
    """Truncated s-energy; exact double sum.

    Rows of atoms, in blocks of about PAIR_BLOCK distances, meet the
    columns from their own on: the square on the diagonal counts once,
    the rest twice.
    """
    if not 0 <= s < math.inf:
        raise ValueError("s must be finite and nonnegative")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")
    pts = mu.points
    w = mu.weights
    total = 0.0
    for sl in blocks(len(pts), len(pts)):
        d = heis_dist_trunc(pts[sl, None, :], pts[None, sl.start:, :], delta)
        e = w[sl, None] * w[None, sl.start:] / d ** s
        m = sl.stop - sl.start
        total += float(e[:, :m].sum()) + 2.0 * float(e[:, m:].sum())
    return total


def heis_convolve(mu, nu):
    """Convolution mu * nu: atoms p * q with weights w_p w_q."""
    n = len(mu) * len(nu)
    if n > MAX_ATOMS:
        raise ValueError("convolution would produce %d atoms" % n)
    pts = group_mul(mu.points[:, None, :], nu.points[None, :, :]).reshape(-1, 3)
    w = (mu.weights[:, None] * nu.weights[None, :]).reshape(-1)
    return DiscreteMeasure(pts, w)


def ball_masses(mu, radius):
    """mu(B(x, r)) for each atom x of mu, closed balls."""
    out = np.zeros(len(mu))
    for i, j, _ in gauge_pairs(mu.points, radius):
        first = np.flatnonzero(np.diff(i, prepend=-1))
        out[i[first]] = np.add.reduceat(mu.weights[j], first)
    return out


@dataclass
class GridDensity:
    """Density on an axis-aligned anisotropic grid.

    values[i, j, k] is the density on the cell with lower corner
    origin + (i, j, k) * spacing; cells are delta x delta x delta^2
    shaped for gauge work but the spacing is free.
    """

    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.spacing = np.asarray(self.spacing, dtype=float).reshape(3)
        self.values = np.asarray(self.values, dtype=float)
        if not np.all((self.spacing > 0) & (self.spacing < math.inf)):
            raise ValueError("spacing must be finite and positive")

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    @property
    def total_mass(self):
        return float(self.values.sum()) * self.cell_volume

    def occupied(self):
        """Centers and densities of the nonzero cells."""
        idx = np.argwhere(self.values > 0)
        centers = self.origin + (idx + 0.5) * self.spacing
        return centers, self.values[idx[:, 0], idx[:, 1], idx[:, 2]]


def rasterize(mu, spacing):
    """Bin a discrete measure onto a grid; density = cell mass / volume.

    The grid's lower corner is the grid point at or below the atoms'
    least coordinates, and it reaches the cell of their largest.
    """
    spacing = np.asarray(spacing, dtype=float).reshape(3)
    if not np.all((spacing > 0) & (spacing < math.inf)):
        raise ValueError("spacing must be finite and positive")
    pts = mu.points
    origin = np.floor(pts.min(axis=0) / spacing) * spacing
    # floor(min / spacing) * spacing can round above the least atoms,
    # whose index would then be -1: they go in the first cell
    idx = np.maximum(np.floor((pts - origin) / spacing), 0).astype(np.int64)
    shape = tuple(idx.max(axis=0) + 1)
    values = np.zeros(shape)
    np.add.at(values, (idx[:, 0], idx[:, 1], idx[:, 2]), mu.weights)
    return GridDensity(origin, spacing, values / float(np.prod(spacing)))


def delta_measure_report(grid, delta):
    """Worst ratio of the density to its ball average over occupied cells.

    The ball average at a cell center x is mu(B(x, delta)) / Leb(B(x,
    delta)); the density is a (delta, C) measure iff max_ratio <= C.
    delta must be finite and positive.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be finite and positive")
    centers, dens = grid.occupied()
    vol = float(ball_volume(delta))
    mass = ball_masses(DiscreteMeasure(centers, dens), delta) \
        * grid.cell_volume
    return {"max_ratio": float((dens / (mass / vol)).max(initial=0.0)),
            "cells": int(len(centers))}


def layer_decomposition(mu, delta):
    """Split atoms by dyadic level of the local ball mass mu(B(x, delta)).

    Returns a list of (alpha, index_array, discardable) with
    alpha / 2 <= mu(B(x, delta)) <= alpha; layers with alpha <= delta^10
    are flagged discardable.
    """
    m = ball_masses(mu, delta)
    levels = np.full(len(m), np.iinfo(np.int64).min, dtype=np.int64)
    pos = m > 0
    # m = f 2^e with f in [1/2, 1): alpha = 2^e, or m itself when f = 1/2
    frac, exp = np.frexp(m[pos])
    levels[pos] = exp - (frac == 0.5)
    out = []
    for lev in distinct(levels[pos]):
        idx = np.nonzero(levels == lev)[0]
        alpha = 2.0 ** float(lev)
        out.append((alpha, idx, alpha <= delta ** 10))
    return out


def grid_z(delta):
    """Euclidean grid Z = delta Z^3 intersected with the unit gauge ball."""
    return ball_grid(grid_columns(delta), delta, 0.0)


def augment_to_dim3(mu, s, t, delta, seed=0):
    """Convolve mu with a random s-dimensional Bernoulli grid measure.

    Draws H subset Z = delta Z^3 (unit ball) with inclusion probability
    delta^-s / (2 |Z|), retrying until |H| <= delta^-s; eta weights each
    point of H by delta^s.  Returns eta, eta * mu and an energy report
    comparing I_{s+t}(eta * mu) against I_t(mu).
    """
    if not (s > 0 and t >= 0):
        raise ValueError("need s > 0 and t >= 0")
    check_delta(delta)
    Z = grid_z(delta)
    nz = len(Z)
    target = delta ** -s
    prob = min(1.0, target / (2.0 * nz))
    rng = make_rng(seed)
    h_idx = None
    retries = 0
    for retries in range(MAX_RETRIES + 1):
        mask = rng.random(nz) < prob
        if int(mask.sum()) <= target and int(mask.sum()) > 0:
            h_idx = np.nonzero(mask)[0]
            break
    if h_idx is None:
        raise RuntimeError("augmentation failed to draw |H| <= delta^-s "
                           "in %d retries" % MAX_RETRIES)
    H = Z[h_idx]
    eta = DiscreteMeasure(H, np.full(len(H), delta ** s))
    conv = heis_convolve(eta, mu)
    report = {
        "grid_size": nz,
        "prob": prob,
        "H_size": len(H),
        "H_bound": target,
        "retries": retries,
        "expected_H": prob * nz,
        "energy_mu_t": riesz_energy(mu, t, delta),
        "energy_conv_st": riesz_energy(conv, s + t, delta),
    }
    report["energy_ratio"] = report["energy_conv_st"] / (
        report["energy_mu_t"] * math.log(1.0 / delta) ** 2)
    return eta, conv, report
