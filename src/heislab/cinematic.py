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

from .core import _as_points, blocks
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


def graph_overlap_integral(points, delta):
    """Grid quadrature of int_E (sum_p 1_{Gamma_p^delta})^(3/2).

    Gamma_p^delta is the vertical delta-slab |y - f_p(theta)| <= delta
    around the graph of f_p, and E the rectangle [0, 2 pi) x [-4, 4) of
    cells of side delta / 2.  Each point adds +1 at its slab's first
    cell of a column and -1 past its last, in blocks of about
    core.PAIR_BLOCK (point, column) entries; a cumulative sum down each
    column gives the counts.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    points = _as_points(points).reshape(-1, 3)
    h = delta / 2.0
    y0 = -4.0
    ncol = max(1, int(np.ceil(2.0 * np.pi / h)))
    nrow = max(1, int(np.ceil(8.0 / h)))
    thetas = (np.arange(ncol) + 0.5) * h
    # column c, row k of the difference array is entry c * (nrow + 1) + k
    col0 = np.arange(ncol) * (nrow + 1)
    counts = np.zeros(ncol * (nrow + 1), dtype=np.int64)
    for sl in blocks(len(points), ncol):
        f = f_eval(points[sl, None, :], thetas)
        # center y0 + (k + 0.5) h lies in [f - delta, f + delta]
        lo = np.ceil((f - delta - y0) / h - 0.5).astype(np.int64)
        hi = np.floor((f + delta - y0) / h - 0.5).astype(np.int64)
        lo = np.clip(lo, 0, nrow)
        hi = np.clip(hi, -1, nrow - 1)
        ok = hi >= lo
        counts += np.bincount((col0 + lo)[ok], minlength=len(counts))
        counts -= np.bincount((col0 + hi + 1)[ok], minlength=len(counts))
    counts = np.cumsum(counts.reshape(ncol, nrow + 1), axis=1)[:, :nrow]
    return float(np.sum(counts.astype(float) ** 1.5) * h * h)
