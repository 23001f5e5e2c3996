"""Plates: thin slabs of light rays dual to gauge balls.

A plate of scale r at base (u, v) and direction y is built from the
sheared rectangle

    R_r(y) = M_y([-r, r] x [-r^2, r^2]),      M_y = [[1, 0], [-y, 1]],

so w is a member iff |w1| <= r and |w2 + y w1| <= r^2.  The plate is the
ray bundle P_r(y) = {(0, w) + L_y(s) : w in R_r(y), |s| <= 2}, and the
modified plate additionally lets the ray direction float:

    Pi_r(u, v, y) = (0, u, v) + {(0, w) + L_{y'} : w in R_r(y), |y' - y| <= r}.

A plate's base is a dual ray: for a ball center p = (x, y, t) =
(u0, 0, v0) * (0, y0, 0), the base (u0, v0, y0) = (x, t - x y / 2, y) is
duality.dual_ray(p), and the dual rays of a ball B(p, r) fill exactly a
modified plate of scale 2r:

    ell*(B(p, r))  is contained in  Pi_{2r}(u0, v0, y0),

with a reverse inclusion into the dual of a boundedly inflated ball.  The
ray (u, v, y) = (u0 + w1, v0 + w2 - y0 w1, y0 + e) of Pi_{2r}, with
|w1|, |e| <= 2r and |w2| <= 4r^2, is the dual ray of its base point
(u, 0, v) * (0, y, 0) (this inverse of dual_ray is an oracle in
tests/test_plates.py), which lies at gauge distance
((w1^2 + e^2)^2 + 16 (w2 + w1 e / 2)^2)^(1/4) from p: at most
PLATE_OUTER_C r = 2 40^(1/4) r, reached at the corner |w1| = |e| = 2r,
w2 = 4r^2, w1 e > 0.

Sandwich.  The point of Pi_{c r}(u, v, y) on the ray with offset e,
|e| <= c r, at parameter s has, in P_r(y) at (u, v), W1 = w1 - s e and
W2 + y W1 = (w2 + y w1) + s e^2 / 2.  So |W1| <= 3 c r and
|W2 + y W1| <= 2 c^2 r^2, both reached, and Pi_{c r} lies inside P_r iff
c <= SANDWICH_INNER_C = 1/3.

Membership of a point q = (s, q2, q3) in a modified plate is a
feasibility question over the direction offset d = y' - y: the box
|d| <= r, the linear band |A + s d| <= r and the quadratic band
|K - (s / 2) d^2| <= r^2, with A = q2 - u + s y and
K = q3 - v + y (q2 - u) + s y^2 / 2 (each bound widened by tol).  The
box and the linear band give one interval [a, b] of d, over which d^2
fills exactly [m, M]: m = 0 if a <= 0 <= b, else min(a^2, b^2), and
M = max(a^2, b^2).  The quadratic band asks d^2 to lie in the interval
with ends 2 (K -+ r^2) / s, so q is a member iff a <= b and the two
intervals of d^2 meet: three intervals decide it, with no search.

Counting.  If Pi_r(u, v, y) holds q = (s, q2, q3) on its ray of direction
y' = y + e, |e| <= r, then w1 = q2 - u + s y' and w2 + y w1 =
q3 - lam + y q2 + s y^2 / 2 - s e^2 / 2 with lam = v + y u, so (each
bound widened by tol)

    |q2 - u + s y| <= W1 = (r + tol)(1 + |s|),
    |q3 - lam + y q2 + s y^2 / 2| <= W2 = r^2 + tol + |s| (r + tol)^2 / 2:

the centers of the plates holding q lie in a tube r wide in u but r^2
thin in lam.  count_memberships bins plates by direction into bins of
width b = r and, in the bin centred at theta, sorts them by u-cell and
lam_theta = v + theta u.  As |y - theta| <= b / 2, a member has u within
W1 + |s| b / 2 of q2 + s theta and lam_theta within
W2 + (b / 2) W1 + |s| b^2 / 8 of q3 + theta q2 + s theta^2 / 2.  A point
reads these windows in every bin and keeps the pairs meeting both
conditions at the plate's own y.  Windows and conditions only widen, by
a margin above the rounding of every term too, so no member is dropped
and the exact test decides the rest: the pairs read grow with the hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import blocks, gauge_norm, heis_dist, window_blocks
from .duality import dual_ray

PLATE_OUTER_C = 2.0 * 40.0 ** 0.25
SANDWICH_INNER_C = 1.0 / 3.0


def rect_contains(y, r, w, tol=0.0):
    """Membership in R_r(y); w has shape (..., 2)."""
    w = np.asarray(w, dtype=float)
    w1 = w[..., 0]
    w2 = w[..., 1]
    return (np.abs(w1) <= r + tol) & (np.abs(w2 + y * w1) <= r * r + tol)


@dataclass(frozen=True)
class ModifiedPlate:
    """Ray bundle Pi_r(u, v, y) with direction slack |y' - y| <= r.

    Fields may be arrays, one plate per entry, broadcast against q or ray.
    """

    u: object
    v: object
    y: object
    r: object

    def contains(self, q, tol=1e-9):
        """Membership of the points q (shape (..., 3)) in the widened plate.

        The widened plate holds q iff some d = y' - y has |d| <= r + tol,
        |A + s d| <= r + tol and |K - (s / 2) d^2| <= r^2 + tol, with A
        and K of the module docstring; the interval test there decides
        it exactly.  s = 0 is decided as s = 5e-324, the least positive
        subnormal, whose quotients overflow: each band then holds for all
        d or for none.  The result has the broadcast shape of the fields
        and q[..., 0].
        """
        q = np.asarray(q, dtype=float)
        s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
        s = np.where(s == 0, 5e-324, s)
        u, v, y = self.u, self.v, self.y
        w, h = self.r + tol, self.r * self.r + tol
        sy = s * y
        A = q2 - u + sy
        K = q3 - v + y * (q2 - u) + sy * y / 2
        with np.errstate(over="ignore"):
            e1, e2 = (-w - A) / s, (w - A) / s
            lo2, hi2 = 2 * (K - h) / s, 2 * (K + h) / s
            a = np.maximum(np.minimum(e1, e2), -w)
            b = np.minimum(np.maximum(e1, e2), w)
            # the point of [a, b] nearest 0 gives m
            c = np.minimum(np.maximum(a, 0.0), b)
            return ((a <= b) & (c * c <= np.maximum(lo2, hi2))
                    & (np.maximum(a * a, b * b) >= np.minimum(lo2, hi2)))

    def contains_ray(self, ray, tol=1e-12):
        """Whole-ray membership of a LightRay (fields may be arrays); exact."""
        w = np.stack(np.broadcast_arrays(ray.u - self.u, ray.v - self.v),
                     axis=-1)
        return ((np.abs(ray.y - self.y) <= self.r + tol)
                & rect_contains(self.y, self.r, w, tol))

    def sample(self, uniforms):
        """Points of the bundle's rays over |s| <= 2, from uniforms in [0, 1).

        uniforms has shape (..., 4n), one row per plate (leading axes
        broadcast against the fields), in the order rng.random((n, 2)),
        rng.random(n), rng.random(n) draw them: n points (w1, w2) of the
        base rectangle, n direction offsets, n ray parameters s.  Uniform
        uniforms give uniform points; the result has shape (..., n, 3).
        """
        q = np.asarray(uniforms, dtype=float)
        n = q.shape[-1] // 4
        q = np.moveaxis(q, -1, 0)
        u, v, y, r = self.u, self.v, self.y, self.r
        w1 = q[0:2 * n:2] * (2 * r) - r
        w2 = q[1:2 * n:2] * (2 * r * r) - r * r - y * w1
        yp = y + (q[2 * n:3 * n] * 2 - 1) * r
        s = (q[3 * n:] * 2 - 1) * 2.0
        return np.moveaxis(np.stack([s, u + w1 - s * yp,
                                     v + w2 + 0.5 * s * yp ** 2], axis=-1),
                           0, -2)


def ball_to_modified_plate(center, radius):
    """Modified plate Pi_{2r} containing the dual rays of B(center, r).

    Its base is dual_ray(center), for one center or an array (..., 3) of
    them; radius is one or broadcasts against the centers.
    Preconditions, where the correspondence is sharp: every center in
    the closed unit gauge ball, |y| <= 1 and radius in (0, 1/2].
    """
    c = np.asarray(center, dtype=float)
    if np.any(gauge_norm(c) > 1.0 + 1e-12):
        raise ValueError("ball center must lie in the unit gauge ball")
    if np.any(np.abs(c[..., 1]) > 1.0 + 1e-12):
        raise ValueError("|y| of the center must be at most 1")
    r = np.asarray(radius, dtype=float)
    if not np.all((r > 0) & (r <= 0.5 + 1e-12)):
        raise ValueError("radius must lie in (0, 1/2], got %r" % radius)
    ray = dual_ray(np.moveaxis(c, -1, 0))
    return ModifiedPlate(ray.u, ray.v, ray.y, 2.0 * radius)


def same_direction_separation(c1, c2, r, rng):
    """Separation ratios d(c1, c2) / r of same-direction balls of radius r.

    c1 and c2 are (n, 3) centers with |y1 - y2| <= r.  Pair i maps row i
    of rng.random((n, 1024)) through ModifiedPlate.sample to 256 points
    of the dual plate of B(c1, r) and keeps those inside the unit
    Euclidean ball; if one lies in the dual plate of B(c2, r) its ratio
    is d(c1, c2) / r, else NaN.  The rows are drawn, and membership is
    called, in blocks of about core.PAIR_BLOCK uniforms; the generator's
    stream is contiguous, so the block size changes no bit.
    """
    c1 = np.asarray(c1, dtype=float).reshape(-1, 3)
    c2 = np.asarray(c2, dtype=float).reshape(-1, 3)
    if len(c1) != len(c2):
        raise ValueError("c1 and c2 must have the same length")
    if np.any(np.abs(c1[:, 1] - c2[:, 1]) > r + 1e-12):
        raise ValueError("directions differ by more than the radius")
    p1 = ball_to_modified_plate(c1, r)
    p2 = ball_to_modified_plate(c2, r)
    met = np.zeros(len(c1), dtype=bool)
    for sl in blocks(len(c1), 1024):
        uni = rng.random((sl.stop - sl.start, 1024))
        pts = ModifiedPlate(p1.u[sl], p1.v[sl], p1.y[sl], p1.r).sample(uni)
        x1, x2, x3 = np.moveaxis(pts, -1, 0)
        pair, k = np.nonzero(np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= 1.0)
        j = sl.start + pair
        inside = ModifiedPlate(p2.u[j], p2.v[j], p2.y[j], p2.r).contains(
            pts[pair, k])
        met[j[inside]] = True
    ratios = np.full(len(c1), np.nan)
    ratios[met] = heis_dist(c1[met], c2[met]) / r
    return ratios


def count_memberships(u, v, y, r, pts, tol=1e-9):
    """N(x) = number of modified plates Pi_r(u_i, v_i, y_i) containing x.

    Plates share the scale r >= 0.  Exact, at a cost that grows with the
    hits: the index of the module docstring proposes only plates meeting
    widened necessary conditions, and the closed-form test decides each.
    Raises ValueError for u, v and y of different lengths, a coordinate
    or r that is not finite, or r < 0.
    """
    u, v, y = (np.asarray(a, dtype=float).ravel() for a in (u, v, y))
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    r = float(r)
    if not len(u) == len(v) == len(y):
        raise ValueError("u, v and y must have the same length")
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("r must be finite and nonnegative")
    if not all(np.all(np.isfinite(a)) for a in (u, v, y, pts)):
        raise ValueError("coordinates must be finite")
    counts = np.zeros(len(pts), dtype=np.int64)
    for i, j, near in _plate_candidates(u, v, y, r, pts, tol):
        i, j = i[near], j[near]
        inside = ModifiedPlate(u[j], v[j], y[j], r).contains(pts[i], tol)
        counts += np.bincount(i[inside], minlength=len(pts))
    return counts


def _plate_candidates(u, v, y, r, pts, tol):
    """Blocks (i, j, near): point i and plate j read from the index.

    near marks the pairs meeting both necessary conditions at the plate's
    own y.  Every pair the membership test can accept is read once, near.
    """
    if len(u) == 0 or len(pts) == 0:
        return
    s, q2, q3 = pts[:, 0], pts[:, 1], pts[:, 2]
    sabs = np.abs(s)
    ylo, ulo = float(y.min()), float(u.min())
    # at most 1024 bins and u-cells keep ids small; 1e-70 serves r = 0
    b = max(r, float(y.max() - ylo) / 1024, 1e-70)
    # every term of the conditions, the test and the keys is below
    # (1 + a)^3 and rounds by < 1e-15 of it; W1, W2 scale that by (1 + a)^2
    a = max(float(np.abs(c).max()) for c in (u, v, y, s, q2, q3)) + r + b
    margin = 1e-12 * (1.0 + a) ** 5
    w1 = (r + tol) * (1.0 + sabs)
    hu = w1 + sabs * b / 2 + margin
    w2 = r * r + tol + sabs * (r + tol) ** 2 / 2
    hl = w2 + b / 2 * w1 + sabs * b * b / 8 + margin
    # u-cells over twice the widest u-window: a window meets at most two
    side = max(2.0 * float(hu.max()) * (1 + 1e-6),
               float(u.max() - ulo) / 1024, 1e-70)
    ncell = int((u.max() - ulo) / side) + 1
    occupied, rank = np.unique(np.floor((y - ylo) / b).astype(np.int64),
                               return_inverse=True)
    theta = ylo + (occupied + 0.5) * b
    # ids bin * stride + cell + 1 leave the clipped cells -1 and ncell of
    # far points empty; |keys| and |window ends| < (1 + a)^3 + max(hl), so
    # id * spacing keeps cells apart, and adding it to both is monotone
    stride = ncell + 2
    spacing = 3.0 * (1.0 + a) ** 3 + 3.0 * float(hl.max())
    cell = np.floor((u - ulo) / side).astype(np.int64)
    key = v + theta[rank] * u + (rank * stride + cell + 1) * spacing
    order = np.argsort(key)
    key = key[order]
    base = np.arange(len(theta)) * stride + 1
    for sl in blocks(len(pts), len(theta)):
        cu = q2[sl, None] + s[sl, None] * theta - ulo
        lo = np.clip(np.floor((cu - hu[sl, None]) / side), -1, ncell)
        hi = np.clip(np.floor((cu + hu[sl, None]) / side), -1, ncell)
        off = (base[:, None] + np.stack([lo, hi], axis=-1)) * spacing
        c = (q3[sl, None] + theta * q2[sl, None]
             + s[sl, None] * theta * theta / 2)[..., None]
        h = hl[sl, None, None]
        first = np.searchsorted(key, (c - h) + off, side="left")
        lens = np.searchsorted(key, (c + h) + off, side="right") - first
        lens[..., 1] *= hi > lo
        for w, k in window_blocks(first.ravel(), lens.ravel()):
            i, j = sl.start + w // (2 * len(theta)), order[k]
            yj, si = y[j], s[i]
            near = ((np.abs(q2[i] - u[j] + si * yj) <= w1[i] + margin)
                    & (np.abs(q3[i] - v[j] - yj * u[j] + yj * q2[i]
                              + si * yj * yj / 2) <= w2[i] + margin))
            yield i, j, near
