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

Proof of the inclusion.  Write q = p * (a, b, c) with ||(a, b, c)|| <= r.
By the group law dual_ray(q) = (u0 + a, v0 + (c - ab / 2) - y0 a, y0 + b):
the ray of Pi_{2r} with w1 = a, e = b and w2 = c - ab / 2, the coordinate
that the membership test reads as w2 + y0 w1 of the sheared rectangle.
As |a|, |b| <= r, |c| <= r^2 / 4 and |ab| <= (a^2 + b^2) / 2 <= r^2 / 2,
|c - ab / 2| <= r^2 / 2, well inside the 4r^2 the plate allows (by
Cauchy-Schwarz the sharp bound is sqrt(2) r^2 / 4).  So every dual ray of
the ball is a whole ray of the plate, and dual_ray_inclusion_rate is 1.
Conversely the whole dual ray of a point p' lies in the plate, as a ray
of it, exactly when p' is the base point of one of the plate's rays, so
d(p, p') <= PLATE_OUTER_C r, with equality at the corner above: the
whole-ray recovery radius plate_recovery_C is plate_outer_C.  The
whole-ray test and the per-ball loop over sampled balls are their
oracles in tests/.

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
bound widened by tol = MEMBER_TOL)

    |q2 - u + s y| <= W1 = (r + tol)(1 + |s|),
    |q3 - lam + y q2 + s y^2 / 2| <= W2 = r^2 + tol + |s| (r + tol)^2 / 2:

the plates holding q lie in a tube r wide in u but r^2 thin in lam.
Plates are binned by direction, b = r wide (at most 1024 bins); in the
bin centred at theta a point predicts a member's u and lam_theta = v + theta u:

    K1 = q2 + s theta,      K2 = q3 + theta q2 + s theta^2 / 2.

As |y - theta| <= b / 2, a member has |u - K1| <= hu(s) = W1 + |s| b / 2
and |lam_theta - K2| <= hl(s) = W2 + (b / 2) W1 + |s| b^2 / 8.  Both grow
with |s|, so the points fall into three bands |s| <= S / 3, 2 S / 3, S
(S the largest |s|; an edge |s| takes the lower band), each read at its
top: hu_k, hl_k.  Points whose K1 is farther than hu_k from the bin's u
range are dropped; core.window_join keys the rest by K2 under the id
(band, u-cell of K1), band k's u-cells hu_k wide (at most 1024 over the
bin's reach, which keeps ids small at r = 0).  In one join a plate
reads, per band, the K2 window of half-width hl_k about its lam_theta in
each u-cell that [u - hu_k, u + hu_k] meets, and keeps the pairs meeting
both conditions at its own y: at most nine windows per bin however many
points there are.  Windows, cells and conditions only widen, by the
margin 1e-12 (1 + a)^5 (a the largest |coordinate| plus r + b) above the
rounding of every term (each below (1 + a)^3, rounded by < 1e-15 of it);
flooring and clipping are monotone and the join misses no key; so no
member is dropped, and the exact test decides the rest.

Why three bands and cells hu_k wide.  At b = r and |s| <= 2 (the
experiment samples B(2)), hu(s) = r (1 + 3|s| / 2) and hl(s) =
r^2 (3/2 + 9|s| / 8) up to tol: a band read at its top over-reads a point
at its bottom by hu(top) hl(top) / (hu hl), 4 x 5/2 = 10 for one band and
at most 2 x 3/2 = 3 for three.  A u-cell as wide as the half-width adds a
factor 3/2 at most, and a window meets at most three.  On random3 at 2^-4
with 20,000 points, 1-4 bands read 9.4/6.3/5.5/5.1 pairs per hit.

Size.  With r and every |coordinate| at most 2^200, b <= 2^200,
a < 2^202, the margin < 2^971, |K1|, |K2|, |lam_theta| < 2^607 and
hl_k < 2^603 + margin: keys and window ends are below 2^972, ids below
2^12 and the join's id offsets below 2^986, all finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _as_points, blocks, gauge_norm, heis_dist, window_join
from .duality import dual_ray

PLATE_OUTER_C = 2.0 * 40.0 ** 0.25
SANDWICH_INNER_C = 1.0 / 3.0
MEMBER_TOL = 1e-9  # tol: every bound of plate membership is widened by it


@dataclass(frozen=True)
class ModifiedPlate:
    """Ray bundle Pi_r(u, v, y) with direction slack |y' - y| <= r.

    Fields may be arrays, one plate per entry, broadcast against q.
    """

    u: object
    v: object
    y: object
    r: object

    def contains(self, q, tol=MEMBER_TOL):
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
    Preconditions, where the correspondence is sharp: every center
    finite and in the closed unit gauge ball, |y| <= 1 and radius in
    (0, 1/2].  A NaN center fails every comparison, so finiteness is
    checked first.
    """
    c = np.asarray(center, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("ball center must be finite")
    if np.any(gauge_norm(c) > 1.0 + 1e-12):
        raise ValueError("ball center must lie in the unit gauge ball")
    if np.any(np.abs(c[..., 1]) > 1.0 + 1e-12):
        raise ValueError("|y| of the center must be at most 1")
    r = np.asarray(radius, dtype=float)
    if not np.all((r > 0) & (r <= 0.5 + 1e-12)):
        raise ValueError("radius must lie in (0, 1/2], got %r" % radius)
    ray = dual_ray(np.moveaxis(c, -1, 0))
    return ModifiedPlate(ray.u, ray.v, ray.y, 2.0 * radius)


# Samples 0..FIRST_SAMPLES-1 of every pair are tested first; over the
# constants' pairs the first in-plate sample has median index 1 and 90th
# percentile 11, so most pairs that meet never map the other 240.
FIRST_SAMPLES = 16


def _sample_columns(lo, hi):
    """Columns of samples lo..hi-1 of a row of 1024 uniforms, in
    ModifiedPlate.sample's layout: (w1, w2) pairs, offsets, parameters."""
    k = np.arange(lo, hi)
    return np.concatenate([np.arange(2 * lo, 2 * hi), 512 + k, 768 + k])


# the columns each pass of same_direction_separation maps
_PASSES = (_sample_columns(0, FIRST_SAMPLES),
           _sample_columns(FIRST_SAMPLES, 256))


def same_direction_separation(c1, c2, r, rng):
    """Separation ratios d(c1, c2) / r of same-direction balls of radius r.

    c1 and c2 are (n, 3) finite centers with |y1 - y2| <= r.  Pair i maps
    row i of rng.random((n, 1024)) through ModifiedPlate.sample to 256
    points of the dual plate of B(c1, r) and keeps those inside the unit
    Euclidean ball; if one lies in the dual plate of B(c2, r) its ratio
    is d(c1, c2) / r, else NaN.  Rows are drawn whole, in blocks of about
    core.PAIR_BLOCK sample points, and tested in two passes: samples
    0..15 of every row, then samples 16..255 of the rows not yet met.
    sample and contains are elementwise, so a sample's point and verdict
    do not depend on which other samples are mapped with it, and a pair
    meets iff some in-ball sample of its 256 lies in the second plate:
    every ratio, and the generator's stream and final state, are those
    of one pass over all 256 samples.
    """
    c1, c2 = (_as_points(c).reshape(-1, 3) for c in (c1, c2))
    if len(c1) != len(c2):
        raise ValueError("c1 and c2 must have the same length")
    if np.any(np.abs(c1[:, 1] - c2[:, 1]) > r + 1e-12):
        raise ValueError("directions differ by more than the radius")
    p1 = ball_to_modified_plate(c1, r)
    p2 = ball_to_modified_plate(c2, r)
    met = np.zeros(len(c1), dtype=bool)
    for sl in blocks(len(c1), 256):
        uni = rng.random((sl.stop - sl.start, 1024))
        for cols in _PASSES:
            rows = np.flatnonzero(~met[sl])
            j = sl.start + rows
            pts = ModifiedPlate(p1.u[j], p1.v[j], p1.y[j], p1.r).sample(
                uni[np.ix_(rows, cols)])
            x1, x2, x3 = np.moveaxis(pts, -1, 0)
            pair, k = np.nonzero(np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) <= 1.0)
            j = j[pair]
            inside = ModifiedPlate(p2.u[j], p2.v[j], p2.y[j], p2.r).contains(
                pts[pair, k])
            met[j[inside]] = True
    ratios = np.full(len(c1), np.nan)
    ratios[met] = heis_dist(c1[met], c2[met]) / r
    return ratios


def count_memberships(u, v, y, r, pts):
    """N(x) = number of modified plates Pi_r(u_i, v_i, y_i) containing x.

    Plates share the scale r.  Exact: in each direction bin the point
    index of the module docstring keys every point once, each plate reads
    at most nine windows of it, and the closed-form test decides every
    pair read, about 5.5 per hit on random3 families.  Raises
    ValueError for u, v and y of different lengths, r outside [0, 2^200],
    or a coordinate that is not finite or of size above 2^200 (Size).
    """
    u, v, y = (np.asarray(a, dtype=float).ravel() for a in (u, v, y))
    pts = _as_points(pts).reshape(-1, 3)
    r, big = float(r), 2.0 ** 200
    if not len(u) == len(v) == len(y):
        raise ValueError("u, v and y must have the same length")
    if not 0 <= r <= big:
        raise ValueError("r must lie in [0, 2^200]")
    if not all(np.all(np.abs(a) <= big) for a in (u, v, y, pts)):
        raise ValueError("coordinates must be finite, of size at most 2^200")
    counts = np.zeros(len(pts), dtype=np.int64)
    for i, j, near in _plate_candidates(u, v, y, r, pts):
        i, j = i[near], j[near]
        inside = ModifiedPlate(u[j], v[j], y[j], r).contains(pts[i])
        counts += np.bincount(i[inside], minlength=len(pts))
    return counts


def _plate_candidates(u, v, y, r, pts):
    """Blocks (i, j, near): point i and plate j read from the index.

    near marks the pairs meeting both necessary conditions at the plate's
    own y.  Every pair the membership test can accept is read once, near.
    """
    if len(u) == 0 or len(pts) == 0:
        return
    s, q2, q3 = pts[:, 0], pts[:, 1], pts[:, 2]
    sabs = np.abs(s)
    ylo = float(y.min())
    # at most 1024 bins; 1e-70 serves r = 0
    b = max(r, float(y.max() - ylo) / 1024, 1e-70)
    # every term of the conditions, the test and the keys is below
    # (1 + a)^3 and rounds by < 1e-15 of it; W1, W2 scale that by (1 + a)^2
    a = max(float(np.abs(c).max()) for c in (u, v, y, s, q2, q3)) + r + b
    margin = 1e-12 * (1.0 + a) ** 5
    # the conditions at the plate's own y, with lam = v + y u
    w1 = (r + MEMBER_TOL) * (1.0 + sabs) + margin
    w2 = r * r + MEMBER_TOL + sabs * (r + MEMBER_TOL) ** 2 / 2 + margin
    lam = v + y * u
    # three |s| bands, each read at its largest |s|; |s| on an edge takes
    # the lower band, whose top it equals
    smax = float(sabs.max())
    top = np.array([smax / 3, 2 * smax / 3, smax])
    band = (sabs > top[0]).astype(np.int64) + (sabs > top[1])
    tw1 = (r + MEMBER_TOL) * (1.0 + top)
    hu = tw1 + top * b / 2 + margin
    hl = (r * r + MEMBER_TOL + top * (r + MEMBER_TOL) ** 2 / 2 + b / 2 * tw1
          + top * b * b / 8 + margin)
    hub = hu[band]
    occupied, rank = np.unique(np.floor((y - ylo) / b).astype(np.int64),
                               return_inverse=True)
    for n, theta in enumerate(ylo + (occupied + 0.5) * b):
        J = np.flatnonzero(rank == n)
        uj, yj, lamj = u[J], y[J], lam[J]
        ulo, uhi = float(uj.min()), float(uj.max())
        k1 = q2 + s * theta
        i = np.flatnonzero((k1 + hub >= ulo) & (k1 - hub <= uhi))
        # in band k, u-cells as wide as hu[k], at most 1024 over the bin's
        # reach: a plate's u-window meets at most three; clipping is monotone
        base, span = ulo - hu[2], uhi - ulo + 2 * hu[2]
        side = np.maximum(hu, span / 1024)
        ncell = int(span / side[0]) + 1

        def cells(x, k):
            return np.clip(np.floor((x - base) / side[k]), 0, ncell - 1)

        # a window per band and u-cell a plate's u-window meets; -1: none
        k = np.arange(3)[:, None]
        lo, hi = cells(uj - hu[k], k), cells(uj + hu[k], k)
        cell = lo[..., None] + np.arange(int((hi - lo).max()) + 1)
        qid = np.where(cell <= hi[..., None], k[..., None] * ncell + cell, -1)
        lamt = (v[J] + theta * uj)[:, None]
        for w, j in window_join(
                band[i] * ncell + cells(k1[i], band[i]),
                q3[i] + theta * q2[i] + s[i] * theta * theta / 2,
                qid, lamt - hl[:, None, None], lamt + hl[:, None, None]):
            p, q = w // cell.shape[2] % len(J), i[j]
            yp, q2p = yj[p], q2[q]
            sy = s[q] * yp
            near = (np.abs(q2p - uj[p] + sy) <= w1[q]) & (
                np.abs(q3[q] - lamj[p] + yp * (q2p + sy / 2)) <= w2[q])
            yield q, J[p], near
