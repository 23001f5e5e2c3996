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
    if p.shape == (0,):  # an empty array-like holds no points
        return p.reshape(0, 3)
    if p.shape[-1:] != (3,):
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
    if not 0 <= delta < math.inf:
        raise ValueError("delta must be finite and nonnegative")
    return np.maximum(heis_dist(p, q), delta)


def gauge_pairs(points, r):
    """Yield every pair (i, j) with d = heis_dist(points[i], points[j]) <= r.

    A self-join: every point pairs with itself at d = 0.  Blocks (i, j, d),
    from about PAIR_BLOCK candidates each, come in order of i; the pairs of
    one i are consecutive, in one block.  Exact: window_join proposes
    candidates and heis_dist decides them.  If d(a, b) <= r, b lies in one
    of the 9 cells of side h >= r around a's, and with c the center of a's
    cell the heights k(w) = t_w + (c_y x_w - c_x y_w) / 2 of c^-1 * w obey
    |k(a) - k(b)| <= r^2 / 4 + |z_a - c| r / 2.  As a lies in its cell,
    |z_a - c| <= h / sqrt(2) <= 0.75 h, so the window k(a) +- r (r + 1.5 h)
    / 4 holds b; 1e-12 m more covers the rounding of c, k and d.  Keyed
    once at its own cell's c, a point has key k + (h/2)(n_y x - n_x y) at
    the cell n steps away; listed under the cells around its own, it is
    found in the window of a's cell about k(a).  An axis along which every
    point has one cell is not shifted along: the cells n != 0 there hold
    no point, so no window reads them.  r and every |coordinate| must be at
    most 2^250: then (x^2 + y^2)^2 <= 2^1006, 16 tau^2 <= 2^1004, the shift
    <= 2^501, the keys < 2^530 and the cell ids < 2^21, all finite.
    """
    p = _as_points(points).reshape(-1, 3)
    r, big = float(r), 2.0 ** 250
    if not 0 <= r <= big:
        raise ValueError("radius must lie in [0, 2^250]")
    if not np.all(np.abs(p) <= big):
        raise ValueError("coordinates must be finite, of size at most 2^250")
    if len(p) == 0:
        return
    z, lo = p[:, :2], p[:, :2].min(axis=0)
    # r's margin absorbs rounding in the cells, heis_dist rounds no
    # |z_a - z_b| above 1e-70 to 0, and 1024 cells a side keep keys precise
    h = max(r * (1 + 1e-6), 1e-70, float((z.max(axis=0) - lo).max()) / 1024)
    cell = np.floor((z - lo) / h).astype(np.int64) + 1
    width = int(cell[:, 1].max()) + 2
    # m bounds |k| and the scale of rounding in k and in heis_dist
    amax = np.abs(p).max(axis=0)
    zmax = float(amax[:2].max())
    m = 1.0 + float(amax[2]) + (zmax + 2.0 * h) * zmax
    bound = r * (r + 1.5 * h) / 4.0 + 1e-12 * m
    c = lo + (cell - 0.5) * h
    k = p[:, 2] + 0.5 * (c[:, 1] * p[:, 0] - c[:, 0] * p[:, 1])
    ids = cell[:, 0] * width + cell[:, 1]
    nx, ny = np.indices((3, 3)).reshape(2, 9) - 1
    spread = cell.max(axis=0) > 1
    shifts = (spread[0] | (nx == 0)) & (spread[1] | (ny == 0))
    nx, ny = nx[shifts, None], ny[shifts, None]
    del cell, c  # n-sized, not needed while the join sorts at most 9n keys
    for i, j in window_join(ids + (nx * width + ny),
                            k + 0.5 * h * (ny * p[:, 0] - nx * p[:, 1]),
                            ids, k - bound, k + bound):
        j = j % len(p)
        d = heis_dist(p[i], p[j])
        hit = d <= r
        yield i[hit], j[hit], d[hit]


def window_join(ids, key, qid, lo, hi):
    """Blocks (w, j): every j with ids[j] == qid[w], lo[w] <= key[j] <= hi[w].

    All arrays; qid, lo and hi broadcast, w is their flat index.  Windows
    come whole and in order (window_blocks), each one's j in key order.
    Keys are sorted once as key + id * spacing, spacing 3 max(|key|,
    |window end|) with |id| * spacing finite: ids stay apart and a qid
    below every id reads nothing.  Two binary searches find a window's
    ends plus the same float qid * spacing, added last; as rounding is
    monotone no j is missed, but keys within it may swap or be read extra.
    """
    spacing = 3.0 * float(max(max(a.max(initial=0.0), -a.min(initial=0.0))
                              for a in (key, lo, hi))) or 1.0
    key = np.ravel(ids) * spacing + np.ravel(key)
    del ids  # the caller's, as large as the keys: freed before the sort
    order = np.argsort(key)
    key = key[order]
    off, lo, hi = np.broadcast_arrays(np.multiply(qid, spacing), lo, hi)
    first = np.searchsorted(key, (lo + off).ravel(), side="left")
    lens = np.searchsorted(key, (hi + off).ravel(), side="right") - first
    for w, kk in window_blocks(first, np.maximum(lens, 0)):
        yield w, order[kk]


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
    if not np.all(r >= 0):
        raise ValueError("radius must be nonnegative")
    return UNIT_BALL_VOLUME * r ** 4
