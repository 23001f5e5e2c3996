"""The cinematic function family behind the vertical projections.

Each point p = (z, t) induces the direction curve

    f_p(theta) = t + <z, e(theta)> <z, Je(theta)> / 2,

which is exactly the height of the vertical projection pi_e(theta)(p).
Its first two derivatives at theta have the closed forms

    f_p'   =  (<z, Je>^2 - <z, e>^2) / 2,
    f_p''  = -2 <z, e> <z, Je>,

and the 2-jet map F(p) = (f_p(0), f_p'(0), f_p''(0)) has Jacobian
determinant of absolute value 2 |z|^2, so F is a local diffeomorphism off
the vertical axis.  Rotating p by R_phi(z, t) = (e^{i phi} z, t) shifts
the curve: f_{R_phi p}(theta + phi) = f_p(theta), derivatives included.
"""

from __future__ import annotations

import numpy as np

from .core import _as_points
from .projections import ze_zje


def f_eval(p, theta):
    """f_p(theta); broadcasts p (...,3) against theta."""
    p = _as_points(p)
    ze, zje = ze_zje(theta, p)
    return p[..., 2] + 0.5 * ze * zje


def f_d1(p, theta):
    """First derivative in theta, closed form."""
    ze, zje = ze_zje(theta, p)
    return 0.5 * (zje * zje - ze * ze)


def f_d2(p, theta):
    """Second derivative in theta, closed form."""
    ze, zje = ze_zje(theta, p)
    return -2.0 * ze * zje


def jet_map(p):
    """2-jet F(p) = (f_p(0), f_p'(0), f_p''(0))."""
    return np.stack([f(p, 0.0) for f in (f_eval, f_d1, f_d2)], axis=-1)


def jet_jacobian(p):
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


def jet_jacobian_absdet(p):
    """|det DF|(p) = 2 |z|^2; vanishes exactly on the vertical axis."""
    p = _as_points(p)
    return 2.0 * (p[..., 0] ** 2 + p[..., 1] ** 2)


def rotate_point(phi, p):
    """R_phi(z, t) = (e^{i phi} z, t)."""
    p = _as_points(p)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty_like(p)
    out[..., 0] = c * p[..., 0] - s * p[..., 1]
    out[..., 1] = s * p[..., 0] + c * p[..., 1]
    out[..., 2] = p[..., 2]
    return out


def rotation_residual(p, phi, theta):
    """max over the 2-jet of |f^(k)_{R_phi p}(theta + phi) - f^(k)_p(theta)|."""
    q = rotate_point(phi, p)
    res = [np.abs(f_eval(q, theta + phi) - f_eval(p, theta)),
           np.abs(f_d1(q, theta + phi) - f_d1(p, theta)),
           np.abs(f_d2(q, theta + phi) - f_d2(p, theta))]
    return np.max(np.stack(res), axis=0)


def curve_separation(p, q, theta_grid):
    """min over the grid of |f_p - f_q| + |f_p' - f_q'|.

    Positive whenever p and q lie on distinct curves; zero iff the whole
    2-jet coincides along the grid, which for distinct p, q forces both
    onto the vertical axis with equal heights.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    vals = np.abs(f_eval(p, theta_grid) - f_eval(q, theta_grid)) \
        + np.abs(f_d1(p, theta_grid) - f_d1(q, theta_grid))
    return float(np.min(vals))


def graph_overlap_integral(points, delta, region=None):
    """Grid quadrature of int_E (sum_p 1_{Gamma_p^delta})^(3/2).

    Gamma_p^delta is the vertical delta-slab |y - f_p(theta)| <= delta
    around the graph of f_p.  E is the rectangle [0, 2 pi) x [-4, 4) of
    cells of side delta / 2, optionally masked by region(theta, y) -> bool
    evaluated at cell centers.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
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
    if region is not None:
        yc = y0 + (np.arange(nrow) + 0.5) * h
        mask = region(thetas[:, None], yc[None, :])
        counts = counts * mask
    return float(np.sum(counts.astype(float) ** 1.5) * h * h)
