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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HeisBall, gauge_norm, group_mul, heis_dist
from .projections import pack_pixels
from .sampling import make_rng


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
    with np.errstate(divide="ignore", invalid="ignore"):
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

    def contains_grid(self, q, n_grid=65, tol=1e-9):
        """Grid + golden-section oracle for contains(); tests only.

        Minimizes the rectangle violation over y' on an n_grid-point grid
        and refines around the best grid point by golden-section search.
        """
        q = np.asarray(q, dtype=float)
        s, q2, q3 = q[..., 0], q[..., 1], q[..., 2]

        def violation(yp):
            w1 = q2 - self.u + s * yp
            w2 = q3 - self.v - 0.5 * s * yp ** 2
            g = w2 + self.y * w1
            return (np.maximum(np.abs(w1) - self.r, 0.0)
                    + np.maximum(np.abs(g) - self.r ** 2, 0.0))

        grid = np.linspace(self.y - self.r, self.y + self.r, n_grid)
        vals = np.stack([violation(yp) for yp in grid])
        best = np.argmin(vals, axis=0)
        lo = grid[np.maximum(best - 1, 0)]
        hi = grid[np.minimum(best + 1, n_grid - 1)]
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = hi - (hi - lo) * (1 - invphi)
        fc, fd = violation(c), violation(d)
        for _ in range(40):
            take = fc < fd
            hi = np.where(take, d, hi)
            lo = np.where(take, lo, c)
            c = hi - invphi * (hi - lo)
            d = hi - (hi - lo) * (1 - invphi)
            fc, fd = violation(c), violation(d)
        return np.minimum(fc, fd) <= tol

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

    Plates share the scale r.  Uses direction bins of width r and a 2-D
    hash on (u, v) windows so only nearby plates are tested exactly; the
    windows are conservative, so counts equal the brute-force ones.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    n_pts = len(pts)
    counts = np.zeros(n_pts, dtype=np.int64)
    if len(u) == 0 or n_pts == 0:
        return counts
    s, q2, q3 = pts[:, 0], pts[:, 1], pts[:, 2]
    smax = float(np.abs(s).max())
    wb = r
    ymax = float(np.abs(y).max()) + wb + r
    # containment forces u_i near q2 + s y' and v_i near q3 - s y'^2 / 2
    hw_u = smax * (wb / 2 + r) + r + 1e-12
    hw_v = smax * (wb / 2 + r) * (ymax + (wb / 2 + r)) + ymax * r + r * r + 1e-12
    hu = max(2 * hw_u, 1e-9)
    hv = max(2 * hw_v, 1e-9)
    bins = np.floor(y / wb).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    uniq, starts = np.unique(sorted_bins, return_index=True)
    starts = np.append(starts, len(order))
    for bi, b in enumerate(uniq):
        idx = order[starts[bi]:starts[bi + 1]]
        theta = (b + 0.5) * wb
        ub, vb = u[idx], v[idx]
        pkey = pack_pixels(np.floor(ub / hu), np.floor(vb / hv))
        porder = np.argsort(pkey, kind="stable")
        pkey_sorted = pkey[porder]
        idx_sorted = idx[porder]
        cu = q2 + s * theta
        cv = q3 - 0.5 * s * theta * theta
        iu0 = np.floor((cu - hw_u) / hu).astype(np.int64)
        iv0 = np.floor((cv - hw_v) / hv).astype(np.int64)
        sample_ids = np.arange(n_pts)
        for du in (0, 1):
            for dv in (0, 1):
                key = pack_pixels(iu0 + du, iv0 + dv)
                lo = np.searchsorted(pkey_sorted, key, side="left")
                hi = np.searchsorted(pkey_sorted, key, side="right")
                lens = hi - lo
                tot = int(lens.sum())
                if tot == 0:
                    continue
                samp = np.repeat(sample_ids, lens)
                offs = np.arange(tot) - np.repeat(
                    np.cumsum(lens) - lens, lens)
                plate = idx_sorted[np.repeat(lo, lens) + offs]
                for i0 in range(0, tot, 2_000_000):
                    sl = slice(i0, i0 + 2_000_000)
                    pj, sj = plate[sl], samp[sl]
                    up, vp, yp = u[pj], v[pj], y[pj]
                    ss, a2, a3 = s[sj], q2[sj], q3[sj]
                    # cheap necessary conditions at y' = y before the
                    # full feasibility test
                    A = a2 - up
                    h0 = a3 - vp + yp * A + 0.5 * ss * yp * yp
                    slack = 1.0 + np.abs(ss)
                    near = (np.abs(A + ss * yp) <= r * slack + tol) \
                        & (np.abs(h0) <= r * r * slack + tol)
                    if not np.any(near):
                        continue
                    pj, sj = pj[near], sj[near]
                    inside = _modified_contains_arrays(
                        u[pj], v[pj], y[pj], r,
                        s[sj], q2[sj], q3[sj], tol)
                    counts += np.bincount(sj[inside], minlength=n_pts)
    return counts


def count_memberships_bruteforce(u, v, y, r, pts, tol=1e-9):
    """Plate-by-plate count; oracle for count_memberships."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    counts = np.zeros(len(pts), dtype=np.int64)
    for ui, vi, yi in zip(np.atleast_1d(u), np.atleast_1d(v), np.atleast_1d(y)):
        counts += _modified_contains_arrays(
            ui, vi, yi, r, pts[:, 0], pts[:, 1], pts[:, 2], tol).astype(np.int64)
    return counts
