"""Plates: thin slabs of light rays dual to gauge balls.

A plate of scale r at base (u, v) and direction y is built from the
sheared rectangle

    R_r(y) = M_y([-r, r] x [-r^2, r^2]),      M_y = [[1, 0], [-y, 1]],

so w is a member iff |w1| <= r and |w2 + y w1| <= r^2.  The plate is the
ray bundle P_r(y) = {(0, w) + L_y(s) : w in R_r(y), |s| <= x_halfwidth},
and the modified plate additionally lets the ray direction float:

    Pi_r(u, v, y) = (0, u, v) + {(0, w) + L_{y'} : w in R_r(y), |y' - y| <= r}.

Writing a ball center p = (u0, 0, v0) * (0, y0, 0), equivalently
(u0, v0, y0) = (x, t - x y / 2, y), the dual rays of a ball B(p, r)
fill exactly a modified plate of scale 2r:

    ell*(B(p, r))  is contained in  Pi_{2r}(u0, v0, y0),

with a reverse inclusion into the dual of a boundedly inflated ball.

Membership of a point in a modified plate is a feasibility question over
the free direction y': one linear band, one quadratic band and the box
[y - r, y + r].  The feasible set is a union of at most two intervals
whose endpoints are explicit, so membership is decided exactly by
testing at most eight candidate values (no grid search).

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

from .core import HeisBall, gauge_norm, heis_dist, window_blocks
from .sampling import make_rng

# Candidate pairs, and (point, direction bin) windows, per block of
# count_memberships; the membership test tries eight directions a pair.
PLATE_BLOCK = 1 << 16


def shear_matrix(y):
    return np.array([[1.0, 0.0], [-y, 1.0]])


def rect_contains(y, r, w, tol=0.0):
    """Membership in R_r(y); w has shape (..., 2)."""
    w = np.asarray(w, dtype=float)
    w1 = w[..., 0]
    w2 = w[..., 1]
    return (np.abs(w1) <= r + tol) & (np.abs(w2 + y * w1) <= r * r + tol)


def center_decomposition(p):
    """(x, y, t) -> (u, v, y) with p = (u, 0, v) * (0, y, 0)."""
    p = np.asarray(p, dtype=float)
    x, y, t = p[..., 0], p[..., 1], p[..., 2]
    return np.stack([x, t - 0.5 * x * y, y], axis=-1)


def compose_center(u, v, y):
    """Inverse of center_decomposition: (u, 0, v) * (0, y, 0)."""
    u = np.asarray(u, dtype=float)
    return np.stack(np.broadcast_arrays(u, np.asarray(y, dtype=float),
                                        np.asarray(v, dtype=float) + 0.5 * u * y),
                    axis=-1)


def direction_bin(y, delta):
    """Index of y in the direction net delta * Z, rounding half away from zero."""
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0, np.floor(y / delta + 0.5),
                    -np.floor(-y / delta + 0.5)).astype(np.int64)


@dataclass(frozen=True)
class Plate:
    """Fixed-direction ray bundle P_r(y) based at (u, v)."""

    u: float
    v: float
    y: float
    r: float
    x_halfwidth: float = 1.0

    def contains(self, q, tol=1e-12):
        q = np.asarray(q, dtype=float)
        s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]
        w1 = q2 - self.u + s * self.y
        w2 = q3 - self.v - 0.5 * s * self.y ** 2
        inside = rect_contains(self.y, self.r, np.stack([w1, w2], axis=-1), tol)
        return inside & (np.abs(s) <= self.x_halfwidth + tol)

    def sample(self, n, rng):
        w0 = rng.random((n, 2)) * [2 * self.r, 2 * self.r ** 2] \
            - [self.r, self.r ** 2]
        s = rng.random(n) * 2 * self.x_halfwidth - self.x_halfwidth
        w1 = w0[:, 0]
        w2 = w0[:, 1] - self.y * w0[:, 0]
        return np.stack([s,
                         self.u + w1 - s * self.y,
                         self.v + w2 + 0.5 * s * self.y ** 2], axis=1)


def _modified_contains_arrays(u, v, y, r, s, q2, q3, tol):
    """Vectorized modified-plate membership on aligned arrays.

    Feasibility over y' in [y - r, y + r] of |A + s y'| <= r and
    |h(y')| <= r^2 with h(y') = Bc + y s y' - (s / 2) y'^2,
    A = q2 - u, Bc = q3 - v + y A.  The feasible set is an intersection
    of intervals with a <=2-interval set, so it is nonempty iff one of
    the interval endpoints satisfies every constraint.
    """
    A = q2 - u
    Bc = q3 - v + y * A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cands = [y - r, y + r,
                 (-r - A) / s, (r - A) / s]
        for sign in (-1.0, 1.0):
            disc = y * y + 2.0 * (Bc + sign * r * r) / s
            root = np.sqrt(disc)
            cands.append(y - root)
            cands.append(y + root)
        cands = np.stack(np.broadcast_arrays(*cands))
        h = Bc + (y * s) * cands - 0.5 * s * cands ** 2
        ok = (cands >= y - r - tol) & (cands <= y + r + tol) \
            & (np.abs(A + s * cands) <= r + tol) \
            & (np.abs(h) <= r * r + tol)
    return np.any(np.where(np.isfinite(cands), ok, False), axis=0)


@dataclass(frozen=True)
class ModifiedPlate:
    """Ray bundle Pi_r(u, v, y) with direction slack |y' - y| <= r."""

    u: float
    v: float
    y: float
    r: float

    def contains(self, q, tol=1e-9):
        q = np.asarray(q, dtype=float)
        return _modified_contains_arrays(self.u, self.v, self.y, self.r,
                                         q[..., 0], q[..., 1], q[..., 2], tol)

    def contains_ray(self, ray, tol=1e-12):
        """Whole-ray membership of (0, u', v') + L_{y'}; exact algebra."""
        w1 = ray.u - self.u
        w2 = ray.v - self.v
        return bool(abs(ray.y - self.y) <= self.r + tol
                    and rect_contains(self.y, self.r,
                                      np.array([w1, w2]), tol))

    def sample(self, n, rng, x_halfwidth=2.0):
        w0 = rng.random((n, 2)) * [2 * self.r, 2 * self.r ** 2] \
            - [self.r, self.r ** 2]
        yp = self.y + (rng.random(n) * 2 - 1) * self.r
        s = (rng.random(n) * 2 - 1) * x_halfwidth
        w1 = w0[:, 0]
        w2 = w0[:, 1] - self.y * w0[:, 0]
        return np.stack([s,
                         self.u + w1 - s * yp,
                         self.v + w2 + 0.5 * s * yp ** 2], axis=1)

    def sample_ray(self, rng):
        """A uniform ray of the bundle, as (u', v', y') parameters."""
        w0 = rng.random(2) * [2 * self.r, 2 * self.r ** 2] \
            - [self.r, self.r ** 2]
        yp = self.y + (rng.random() * 2 - 1) * self.r
        return (self.u + w0[0],
                self.v + w0[1] - self.y * w0[0],
                yp)


def ball_to_modified_plate(ball):
    """Modified plate Pi_{2r} containing the dual rays of the ball.

    Preconditions: center in the closed unit gauge ball, |y| <= 1 and
    radius <= 1/2, matching the regime where the correspondence is sharp.
    """
    c = ball.center_array()
    if gauge_norm(c) > 1.0 + 1e-12:
        raise ValueError("ball center must lie in the unit gauge ball")
    if abs(c[1]) > 1.0 + 1e-12:
        raise ValueError("|y| of the center must be at most 1")
    if ball.radius > 0.5 + 1e-12:
        raise ValueError("radius must be at most 1/2")
    u, v, y = center_decomposition(c)
    return ModifiedPlate(float(u), float(v), float(y), 2.0 * ball.radius)


def plate_to_ball(plate, inflation=1.0):
    """Ball whose dual plate boundedly contains the given plate."""
    center = compose_center(plate.u, plate.v, plate.y)
    return HeisBall(tuple(center), inflation * plate.r / 2.0)


def same_direction_separation(ball1, ball2, n_samples=512, seed=0,
                              within=1.0):
    """Separation ratio d(p1, p2) / r for same-direction balls.

    Requires equal radii and |y1 - y2| <= r.  Samples the dual plate of
    ball1 inside the Euclidean ball of radius `within`; if any sample lies
    in the dual plate of ball2, returns d(p1, p2) / r, else None.
    """
    if abs(ball1.radius - ball2.radius) > 1e-12:
        raise ValueError("balls must have equal radii")
    r = ball1.radius
    c1, c2 = ball1.center_array(), ball2.center_array()
    if abs(c1[1] - c2[1]) > r + 1e-12:
        raise ValueError("directions differ by more than the radius")
    p1 = ball_to_modified_plate(ball1)
    p2 = ball_to_modified_plate(ball2)
    rng = make_rng(seed)
    pts = p1.sample(n_samples, rng)
    pts = pts[np.linalg.norm(pts, axis=1) <= within]
    if len(pts) and bool(np.any(p2.contains(pts))):
        return float(heis_dist(c1, c2)) / r
    return None


def _uniform_euclidean_ball(n, rng, radius):
    out = np.empty((0, 3))
    while len(out) < n:
        raw = rng.random((int((n - len(out)) / 0.5) + 16, 3)) * 2.0 - 1.0
        out = np.concatenate([out, raw[np.einsum("ij,ij->i", raw, raw) <= 1.0]])
    return out[:n] * radius


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
        inside = _modified_contains_arrays(u[j], v[j], y[j], r, *pts[i].T,
                                           tol)
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
    step = max(1, PLATE_BLOCK // len(theta))
    for p0 in range(0, len(pts), step):
        sl = slice(p0, p0 + step)
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
        for w, k in window_blocks(first.ravel(), lens.ravel(), PLATE_BLOCK):
            i, j = p0 + w // (2 * len(theta)), order[k]
            yj, si = y[j], s[i]
            near = ((np.abs(q2[i] - u[j] + si * yj) <= w1[i] + margin)
                    & (np.abs(q3[i] - v[j] - yj * u[j] + yj * q2[i]
                              + si * yj * yj / 2) <= w2[i] + margin))
            yield i, j, near
