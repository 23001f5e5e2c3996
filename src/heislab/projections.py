"""Vertical projections onto the planes W_e.

For a horizontal direction e = e(theta) the vertical plane W_e is spanned
by Je and the t-axis; we chart it by (a, b) with a the Je-coordinate and
b the height.  The vertical projection is

    pi_e(z, t) = (<z, Je>, t + <z, e><z, Je> / 2),

whose fibers are the horizontal lines w * L_e.  Its height is the
cinematic function f_p(theta) of cinematic.f_eval; both take <z, e> and
<z, Je> from ze_zje.  pi_e preserves Lebesgue measure of images under
left translation of the source set.

The natural metric on the chart is the parabolic one,
d_par((a, b), (a', b')) = |a - a'| + sqrt(|b - b'|), which is bilipschitz
to the gauge metric restricted to W_e: two points of W_e are at gauge
distance (da^4 + 16 db^2)^(1/4), so with k = sqrt|db| / |da| the ratio
d / d_par is (1 + 16 k^4)^(1/4) / (1 + k).  It lies in [0.77828..., 2):
least at 16 k^3 = 1, where it is PARABOLIC_BILIP_LO = (1 + 2^(-4/3))^(-3/4),
and tending to its supremum 2 as k -> infinity.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _as_points

PARABOLIC_BILIP_LO = (1.0 + 2.0 ** (-4.0 / 3.0)) ** -0.75
PROJECTED_BALL_AREA = 2.0 * math.sqrt(math.pi) * math.gamma(0.75) \
    / math.gamma(0.25)
# the largest half-height of the projected unit ball (projected_ball_profile)
PROJECTED_BALL_PROFILE_MAX = 2.0 ** -1.5


def ze_zje(theta, p):
    """(<z, e>, <z, Je>) of p = (z, t); theta broadcasts against p[..., 0]."""
    p = _as_points(p)
    c, s = np.cos(theta), np.sin(theta)
    return p[..., 0] * c + p[..., 1] * s, -p[..., 0] * s + p[..., 1] * c


def pi_e(theta, p):
    """Vertical projection onto W_e(theta) in (a, b) chart coordinates."""
    p = _as_points(p)
    ze, zje = ze_zje(theta, p)
    return np.stack([zje, p[..., 2] + 0.5 * ze * zje], axis=-1)


def pixel_keys(w, cell):
    """One int64 key per pixel (floor grid) of chart points: cell is one
    side or the two sides (h_a, h_b); indices must lie in the int32 range."""
    w = np.asarray(w, dtype=float).reshape(-1, 2)
    h_a, h_b = np.broadcast_to(cell, 2)
    ia, ib = np.floor(w[:, 0] / h_a), np.floor(w[:, 1] / h_b)
    lim = np.iinfo(np.int32)
    for a in (ia, ib):
        if a.size and not (lim.min <= a.min() and a.max() <= lim.max):
            raise ValueError("pixel index outside the int32 range")
    return (ia.astype(np.int64) << 32) ^ (ib.astype(np.int64) & 0xFFFFFFFF)


def distinct(keys):
    """The distinct values of keys, sorted: one sort and one comparison.

    What np.unique returns for integer keys, without its hash path,
    which is slower on the int64 keys of pixels and cells.
    """
    k = np.sort(np.ravel(keys))
    new = np.ones(len(k), dtype=bool)
    np.not_equal(k[1:], k[:-1], out=new[1:])
    return k[new]


def projected_ball_profile(alpha):
    """Half-height g(alpha) of the projected unit ball, for |alpha| <= 1.

    pi_e(B(0, 1)) = {(alpha, beta) : |beta| <= g(alpha)} for every e:
    over the chart column alpha = <z, Je> the height t + <z, e> alpha / 2
    peaks where |z|^2 = |alpha|^(2/3), so with u = |alpha|^(4/3)

        g(alpha) = (1 + 2 u) sqrt(1 - u) / 4,

    and the region has area PROJECTED_BALL_AREA = 2 sqrt(pi) Gamma(3/4) /
    Gamma(1/4).  g is largest at |alpha| = 2^(-3/4), where u = 1/2 and
    dg/du = (3 - 6 u) / (8 sqrt(1 - u)) = 0: g <= PROJECTED_BALL_PROFILE_MAX
    = 2^(-3/2), above g(0) = 1/4.  The cube root is np.cbrt, which rounds alike for any
    blocking of alpha.  u is clamped at |alpha|, its bound for |alpha| <= 1:
    numpy's baseline cbrt rounds cbrt(alpha^2)^2 above it, and above 1 at
    |alpha| = 1 - 2^-53, where sqrt(1 - u) would be NaN.
    """
    s = np.cbrt(np.square(alpha))
    u = np.minimum(s * s, np.abs(alpha))
    return (1.0 + 2.0 * u) * np.sqrt(1.0 - u) / 4.0
