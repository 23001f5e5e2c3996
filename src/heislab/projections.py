"""Vertical projections onto the planes W_e and the x-t plane.

For a horizontal direction e = e(theta) the vertical plane W_e is spanned
by Je and the t-axis; we chart it by (a, b) with a the Je-coordinate and
b the height.  The vertical projection is

    pi_e(z, t) = (<z, Je>, t + <z, e><z, Je> / 2),

whose fibers are the horizontal lines w * L_e.  Its t-component
rho_e(z, t) = t + <z, e><z, Je> / 2 and the x-t plane variant
pi_xt(x, y, t) = (x, 0, t - x y / 2) are also provided.  pi_e preserves
Lebesgue measure of images under left translation of the source set.

The natural metric on the chart is the parabolic one,
d_par((a, b), (a', b')) = |a - a'| + sqrt(|b - b'|), which is bilipschitz
to the gauge metric restricted to W_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _as_points


def pi_e(theta, p):
    """Vertical projection onto W_e(theta) in (a, b) chart coordinates."""
    p = _as_points(p)
    c, s = math.cos(theta), math.sin(theta)
    ze = p[..., 0] * c + p[..., 1] * s
    zje = -p[..., 0] * s + p[..., 1] * c
    return np.stack([zje, p[..., 2] + 0.5 * ze * zje], axis=-1)


def rho_e(theta, p):
    """Height component of pi_e, computed as pi_e computes it."""
    p = _as_points(p)
    c, s = math.cos(theta), math.sin(theta)
    ze = p[..., 0] * c + p[..., 1] * s
    zje = -p[..., 0] * s + p[..., 1] * c
    return p[..., 2] + 0.5 * ze * zje


def pi_xt(p):
    """Projection to the x-t plane along fibers of pi_{e(pi/2)}."""
    p = _as_points(p)
    out = np.zeros_like(p)
    out[..., 0] = p[..., 0]
    out[..., 2] = p[..., 2] - 0.5 * p[..., 0] * p[..., 1]
    return out


def plane_embed(theta, w):
    """Chart inverse: (a, b) -> a * Je + b * t-axis as a point of R^3."""
    w = np.asarray(w, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty(w.shape[:-1] + (3,))
    out[..., 0] = -s * w[..., 0]
    out[..., 1] = c * w[..., 0]
    out[..., 2] = w[..., 1]
    return out


@dataclass(frozen=True)
class PlanePoint:
    """Point of W_e(theta) in chart coordinates."""

    theta: float
    a: float
    b: float

    def to_point(self):
        return plane_embed(self.theta, np.array([self.a, self.b]))


def parabolic_dist(w, v):
    """Parabolic metric |a - a'| + sqrt(|b - b'|) on chart coordinates."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.abs(w[..., 0] - v[..., 0]) + np.sqrt(np.abs(w[..., 1] - v[..., 1]))


@dataclass
class PlanarMeasure:
    """Discrete measure on a chart plane: atoms (n, 2) with weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights length mismatch")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    @property
    def total_mass(self):
        return float(self.weights.sum())


def project_measure(theta, points, weights):
    """Pushforward of a discrete measure under pi_e; mass is preserved."""
    return PlanarMeasure(pi_e(theta, points), np.array(weights, dtype=float))


def pack_pixels(ia, ib):
    """One int64 key per pixel, from integer indices in the int32 range."""
    lim = np.iinfo(np.int32)
    for a in (ia, ib):
        if a.size and not (lim.min <= a.min() and a.max() <= lim.max):
            raise ValueError("pixel index outside the int32 range")
    return (ia.astype(np.int64) << 32) ^ (ib.astype(np.int64) & 0xFFFFFFFF)


def pixel_keys(w, pixel):
    """Integer pixel indices (floor grid) of chart points, as a single key."""
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    return pack_pixels(np.floor(w[:, 0] / pixel), np.floor(w[:, 1] / pixel))


def pixel_area(w, pixel):
    """Area of the pixel rasterization of a chart point cloud."""
    if pixel <= 0:
        raise ValueError("pixel must be positive")
    return len(np.unique(pixel_keys(w, pixel))) * pixel * pixel
