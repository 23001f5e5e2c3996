"""Group arithmetic and metric geometry of the first Heisenberg group.

Points live in R^3 with coordinates (x, y, t).  The group law is

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + (x y' - y x') / 2),

the anisotropic dilations are delta_lam(x, y, t) = (lam x, lam y, lam^2 t),
and the gauge norm is ||(x, y, t)|| = ((x^2 + y^2)^2 + 16 t^2)^(1/4).  The
left-invariant gauge metric d(p, q) = ||q^{-1} * p|| is
4-regular: the Lebesgue measure of a metric ball of radius r is V1 * r^4.

All array functions accept array-likes of shape (..., 3) and broadcast.
"""

from __future__ import annotations

import math

import numpy as np

# Lebesgue volume of the unit gauge ball {(x^2 + y^2)^2 + 16 t^2 <= 1}.
# At cylinder radius rho the t-extent is sqrt(1 - rho^4) / 4, hence
#   V1 = int_0^1 2 pi rho * 2 sqrt(1 - rho^4) / 4 drho
#      = (pi / 2) int_0^1 sqrt(1 - u^2) du = pi^2 / 8.
# Confirmed against adaptive quadrature and Monte Carlo rejection; the
# test suite re-derives both oracles.
UNIT_BALL_VOLUME = math.pi ** 2 / 8

# Entries per block of every array pass (blocks, window_blocks), the best
# of 2^13 to 2^16 on the benchmark.  Read at call time, so that patching
# this one name re-blocks every pass.
PAIR_BLOCK = 1 << 14


def _as_points(p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError("expected shape (..., 3), got %s" % (p.shape,))
    return p


def group_mul(p, q):
    """Group product p * q, broadcasting over leading axes."""
    p = _as_points(p)
    q = _as_points(q)
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p[..., 0] + q[..., 0]
    out[..., 1] = p[..., 1] + q[..., 1]
    out[..., 2] = (p[..., 2] + q[..., 2]
                   + 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]))
    return out


def dilate(lam, p):
    """Anisotropic dilation delta_lam; group automorphism for every lam."""
    p = _as_points(p)
    lam = np.asarray(lam, dtype=float)[..., None]
    return p * np.concatenate(
        [np.broadcast_to(lam, lam.shape[:-1] + (2,)), lam ** 2], axis=-1)


def gauge_norm(p):
    """Homogeneous gauge norm ((x^2+y^2)^2 + 16 t^2)^(1/4).

    The squares and the fourth root (two np.sqrt) are correctly rounded,
    so a norm or a distance (heis_dist computes alike) has the same bits
    however the points are blocked; numpy's ** rounds arrays and single
    points apart.
    """
    p = _as_points(p)
    return np.sqrt(np.sqrt(np.square(np.square(p[..., 0])
                                     + np.square(p[..., 1]))
                           + 16.0 * np.square(p[..., 2])))


def heis_dist(p, q):
    """Left-invariant metric d(p, q) = ||q^{-1} * p||."""
    p = _as_points(p)
    q = _as_points(q)
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    tau = (p[..., 2] - q[..., 2]
           + 0.5 * (q[..., 1] * p[..., 0] - q[..., 0] * p[..., 1]))
    return np.sqrt(np.sqrt(np.square(dx * dx + dy * dy) + 16.0 * tau * tau))


def heis_dist_trunc(p, q, delta):
    """Truncated metric max(d(p, q), delta); a metric for every delta > 0."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return np.maximum(heis_dist(p, q), delta)


def gauge_pairs(queries, points, r):
    """Yield every pair (i, j) with d = heis_dist(queries[i], points[j]) <= r.

    Blocks (i, j, d), from about PAIR_BLOCK candidates each, come in query
    order; the pairs of one query are consecutive, in one block.  Exact: an
    index proposes candidates and heis_dist decides them.  If d(a, b) <= r,
    b lies in one of the 9 cells of side h >= r around a's, and with c the
    center of a's cell the group law bounds the sheared heights
    k(w) = t_w + (c_y x_w - c_x y_w) / 2 by |k(a) - k(b)| <= r^2 / 4
    + |z_a - c| r / 2.  Points are listed under the 9 cells around their
    own, sorted by (cell, k), and a query reads one window of its cell.
    """
    q = _as_points(queries).reshape(-1, 3)
    p = _as_points(points).reshape(-1, 3)
    r = float(r)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError("radius must be finite and nonnegative")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("coordinates must be finite")
    if len(q) == 0 or len(p) == 0:
        return
    z = np.concatenate([q[:, :2], p[:, :2]])
    lo = z.min(axis=0)
    # r's margin absorbs rounding in the cells, heis_dist rounds no
    # |z_a - z_b| above 1e-70 to 0, and 1024 cells a side keep keys precise
    h = max(r * (1 + 1e-6), 1e-70, float((z.max(axis=0) - lo).max()) / 1024)
    cell = np.floor((z - lo) / h).astype(np.int64) + 1
    width = int(cell[:, 1].max()) + 2
    near = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    lcell = (cell[None, len(q):] + near[:, None]).reshape(-1, 2)
    lj = np.tile(np.arange(len(p)), 9)
    # m bounds |k| and the scale of rounding in k and in heis_dist
    amax = np.abs(np.concatenate([q, p])).max(axis=0)
    zmax = float(amax[:2].max())
    m = 1.0 + float(amax[2]) + (zmax + 2.0 * h) * zmax
    bound = r * (r + 2.0 * h) / 4.0 + 1e-12 * m

    def keys(cells, w):
        # k and a per-cell offset: adding one offset is monotone, and the
        # offsets keep the cells' ranges of k apart
        c = lo + (cells - 0.5) * h
        return (w[:, 2] + 0.5 * (c[:, 1] * w[:, 0] - c[:, 0] * w[:, 1]),
                (cells[:, 0] * width + cells[:, 1]) * (3.0 * (m + bound)))

    key = sum(keys(lcell, p[lj]))
    order = np.argsort(key)
    key, lj = key[order], lj[order]
    qk, qoff = keys(cell[:len(q)], q)
    first = np.searchsorted(key, (qk - bound) + qoff, side="left")
    lens = np.searchsorted(key, (qk + bound) + qoff, side="right") - first
    for i, k in window_blocks(first, lens):
        j = lj[k]
        d = heis_dist(q[i], p[j])
        hit = d <= r
        yield i[hit], j[hit], d[hit]


def blocks(n, per_item):
    """Slices of range(n), each of about PAIR_BLOCK / per_item items of
    per_item entries, at least one item, and ending at most at n."""
    step = max(1, PAIR_BLOCK // max(1, per_item))
    return [slice(b, min(b + step, n)) for b in range(0, n, step)]


def window_blocks(first, lens):
    """Expand windows [first[w], first[w] + lens[w]) of a sorted array.

    Yields (w, k): each window's id repeated once per position, and the
    positions, in window order.  A block holds whole windows, at most
    PAIR_BLOCK positions unless one window is longer, and at least one
    position; empty windows ride along with their neighbours.
    """
    ends = np.cumsum(lens)
    start, done = 0, 0
    while start < len(ends) and done < ends[-1]:
        # the next window with positions, then every one ending in budget
        limit = max(done + PAIR_BLOCK,
                    ends[np.searchsorted(ends, done, side="right")])
        stop = int(np.searchsorted(ends, limit, side="right"))
        n = lens[start:stop]
        w = np.repeat(np.arange(start, stop), n)
        off = first[start:stop] - (ends[start:stop] - n - done)
        yield w, np.arange(len(w)) + np.repeat(off, n)
        start, done = stop, int(ends[stop - 1])


def ball_volume(r):
    """Lebesgue measure of a gauge ball of radius r (any center)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return UNIT_BALL_VOLUME * r ** 4
