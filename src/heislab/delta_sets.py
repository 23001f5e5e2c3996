"""(delta, t, C)-sets of gauge balls: generators, verifier, file format.

A family of delta-separated centers P in the unit gauge ball is a
(delta, t, C)-set when for every center x and every radius r >= delta

    |P intersect B(x, r)|_delta  <=  C r^t |P|_delta.

Since the centers are delta-separated, counting centers inside B(x, r)
agrees with delta-covering numbers up to a bounded factor which is folded
into C; the verifier scans dyadic radii r = delta * 2^k only, around a
seeded subsample of test centers on large families, and reports how many
it tested.  Separation (BallFamily.validate) is checked at every pair.

Generators: the anisotropic lattice delta Z^2 x delta^2 Z inside the unit
ball (4-regular; spacings delta, delta, delta^2 are delta-separated since
||(0, 0, delta^2)|| = 2 delta), a vertical-plane coset slab of it
(3-regular), a random lattice subsample of delta^-3 points (3-regular,
spread in all coordinates), and sharpness examples: uniformly spaced
vertical-axis subsets of any dimension s <= 2, a planar Cantor set times
a vertical delta^2-grid, and a horizontal line of balls.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .core import (_as_points, blocks, gauge_norm, gauge_pairs, heis_dist,
                   window_blocks)
from .sampling import make_rng


@dataclass
class BallFamily:
    """delta-separated ball centers with a claimed regularity (t, C)."""

    centers: np.ndarray
    delta: float
    claimed_t: float
    claimed_C: float
    kind: str = "custom"

    def __post_init__(self):
        self.centers = _as_points(self.centers).reshape(-1, 3)

    def __len__(self):
        return len(self.centers)

    def validate(self):
        """Check finiteness, containment in the unit ball and separation.

        Separation is tested at every pair, at any size, with a slack of
        1e-12: a pair is rejected only if d < delta - 1e-12.  The slack is
        needed when delta is not a power of two: the lattice neighbours of
        gen_heis_lattice(0.075) and random3 at 0.075 sit at float distance
        0.07499999999999996, just below delta.
        """
        c = self.centers
        if not np.all(np.isfinite(c)):
            raise ValueError("centers must be finite")
        check_delta(self.delta)
        if float(gauge_norm(c).max(initial=0.0)) > 1.0 + 1e-12:
            raise ValueError("centers must lie in the unit gauge ball")
        for i, j, d in gauge_pairs(c, self.delta):
            if np.any((i != j) & (d < self.delta - 1e-12)):
                raise ValueError("centers are not delta-separated")
        return True


def covering_number(points, delta):
    """Size of a greedy first-fit delta-net in the gauge metric.

    A 2-approximation of the covering number; constants are folded into
    the C of any (delta, t, C) statement built on it.
    """
    pts = _as_points(points).reshape(-1, 3)
    covered = np.zeros(len(pts), dtype=bool)
    net = 0
    # first fit: a point joins unless an earlier net point is within delta
    for i, j, _ in gauge_pairs(pts, delta):
        first = np.flatnonzero(np.diff(i, prepend=-1))
        for p, near in zip(i[first], np.split(j, first[1:])):
            if not covered[p]:
                net += 1
                covered[near] = True
    return net


def dyadic_ball_counts(family, r0, max_centers, seed, shrink=0.0):
    """Count centers in balls of dyadic radii around test centers.

    Test centers are all centers or a seeded subsample of max_centers;
    radii are r0 * 2^k up to 2.  Returns (test, radii, counts), counts[k, i]
    the number of centers within radii[k] - shrink of test[i].  Dense, in
    blocks of test centers of about PAIR_BLOCK distances, each compared
    with every radius at once: at radius 2, the unit ball's diameter, every
    center is a neighbour; an index only adds cost.  The m test centers
    are put first, so each pair of them is taken once: heis_dist(p, q) and
    heis_dist(q, p) are the same bits (dx, dy and tau change sign exactly),
    so a block of rows meets the columns from its own on, and the part
    right of its diagonal square counts for those columns below m too.
    Counts add up in int32: none exceeds the family's size.
    """
    check_delta(family.delta)
    c = family.centers
    n = len(c)
    m = min(n, max_centers)
    if m < n:
        pick = make_rng(seed).choice(n, size=m, replace=False)
        c = np.concatenate([c[pick], np.delete(c, pick, axis=0)])
    radii = []
    r = r0
    while r <= 2.0:
        radii.append(r)
        r *= 2.0
    thr = np.array([r - shrink for r in radii])[:, None, None]
    counts = np.zeros((len(radii), m), dtype=np.int32)
    for sl in blocks(m, n):
        hit = heis_dist(c[sl, None, :], c[None, sl.start:, :]) <= thr
        counts[:, sl] += hit.sum(axis=2, dtype=np.int32)
        counts[:, sl.stop:] += hit[:, :, sl.stop - sl.start:m - sl.start].sum(
            axis=1, dtype=np.int32)
    return c[:m], radii, counts.astype(np.int64)


def verify_delta_t_set(family, max_centers=512, seed=0):
    """Scan dyadic radii and report the worst (delta, t, C) ratio.

    Counts |P intersect B(x, r)| over test centers x drawn from the
    family (all of them up to max_centers, a seeded subsample beyond).
    Passes iff max over (x, r) of count / (C r^t n) is at most 1.  The
    witness is the first (radius, test center) pair, radii ascending and
    test centers in order, at which the worst ratio is reached.
    Raises ValueError for an empty family, delta not in (0, 1/2], claimed
    C not finite and positive, claimed t not finite and nonnegative, or
    max_centers < 1, on which a verdict would mean nothing.
    """
    n = len(family)
    if n == 0:
        raise ValueError("empty family")
    if not (math.isfinite(family.claimed_C) and family.claimed_C > 0):
        raise ValueError("claimed C must be finite and positive")
    if not (math.isfinite(family.claimed_t) and family.claimed_t >= 0):
        raise ValueError("claimed t must be finite and nonnegative")
    if max_centers < 1:
        raise ValueError("max_centers must be at least 1")
    test, radii, counts = dyadic_ball_counts(family, family.delta,
                                             max_centers, seed)
    denom = np.array([family.claimed_C * r ** family.claimed_t * n
                      for r in radii])[:, None]
    ratios = counts / denom
    k, j = np.unravel_index(np.argmax(ratios), ratios.shape)
    worst = float(ratios[k, j])
    return {
        "passes": worst <= 1.0,
        "max_ratio": worst,
        "witness_center": tuple(test[j]),
        "witness_radius": float(radii[k]),
        "centers_tested": len(test),
        "count": n,
        "delta": family.delta,
        "claimed_t": family.claimed_t,
        "claimed_C": family.claimed_C,
    }


def check_delta(delta):
    """Raise ValueError unless delta is a number in (0, 1/2]."""
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2], got %r" % delta)


def grid_axis(h):
    """The multiples of h in [-1 - h, 1 + h]: one axis of the ball grids."""
    k = int(math.floor(1.0 / h)) + 1
    return np.arange(-k, k + 1) * h


def grid_columns(h):
    """(x, y) of the square grid h Z^2 over the unit ball, x-major."""
    xs = grid_axis(h)
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)


def ball_grid(cols, step, margin, shift=0.0):
    """Points (x, y, j step + shift) with gauge norm at most 1 - margin.

    One column per row (x, y) of cols, and shift per column or scalar;
    |j step| <= 1/4 + step covers the ball.  Column-major, j increasing.
    Only a column's run |j step + shift| <= sqrt((1 - margin)^4 - |z|^4)
    / 4, widened by one step, is formed, in blocks of about PAIR_BLOCK
    points; the exact gauge-norm test decides each.
    """
    cols = np.asarray(cols, dtype=float).reshape(-1, 2)
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (len(cols),))
    m = int(math.floor(0.25 / step)) + 1
    zsq = cols[:, 0] ** 2 + cols[:, 1] ** 2
    # the 1e-12 covers rounding in the gauge norm at a column's ends
    h = np.sqrt(np.maximum((1.0 - margin) ** 4 - zsq ** 2, 0.0) + 1e-12) / 4
    lo = np.maximum(np.ceil((-h - shift) / step) - 1, -m).astype(np.int64)
    hi = np.minimum(np.floor((h - shift) / step) + 1, m).astype(np.int64)
    lens = np.maximum(hi - lo + 1, 0)
    out = np.empty((int(lens.sum()), 3))
    kept = 0
    for col, j in window_blocks(lo, lens):
        pts = np.empty((len(col), 3))
        pts[:, :2] = cols[col]
        pts[:, 2] = j * step + shift[col]
        pts = pts[gauge_norm(pts) <= 1.0 - margin]
        out[kept:kept + len(pts)] = pts
        kept += len(pts)
    return out[:kept]


def gen_heis_lattice(delta):
    """Anisotropic lattice delta Z^2 x delta^2 Z in the unit ball; 4-regular."""
    check_delta(delta)
    pts = ball_grid(grid_columns(delta), delta ** 2, delta)
    return BallFamily(pts, delta, 4.0, 8.0, kind="heis-lattice")


def gen_lattice_slab(delta, x0=0.0):
    """Left coset of the vertical plane {x = 0} over the lattice; 3-regular.

    Points (x0, 0, 0) * (0, j delta, k delta^2); for x0 = 0 this is the
    plane grid itself.
    """
    check_delta(delta)
    if not math.isfinite(x0):
        raise ValueError("x0 must be finite")
    ys = grid_axis(delta)
    cols = np.stack([np.full(len(ys), float(x0)), ys], axis=1)
    pts = ball_grid(cols, delta ** 2, delta, shift=0.5 * x0 * ys)
    return BallFamily(pts, delta, 3.0, 8.0, kind="slab")


def gen_random3(delta, seed=0):
    """Random lattice subsample with ~delta^-3 points; (delta, 3)-set."""
    pts = gen_heis_lattice(delta).centers
    target = min(len(pts), int(round(0.75 * delta ** -3)))
    rng = make_rng(seed)
    idx = rng.choice(len(pts), size=target, replace=False)
    return BallFamily(pts[np.sort(idx)], delta, 3.0, 8.0, kind="random3")


def gen_t_axis(delta, s=2.0):
    """Uniform vertical-axis centers of gauge dimension s <= 2.

    Spacing delta^s / 2 in t gives gauge separation sqrt(2) delta^(s/2)
    >= delta and exactly delta^-s points across t in [-1/4, 1/4].
    """
    check_delta(delta)
    if not 0 < s <= 2:
        raise ValueError("s must lie in (0, 2]")
    n = int(round(delta ** -s))
    spacing = 0.5 / n
    ts = -0.25 + (np.arange(n) + 0.5) * spacing
    pts = np.zeros((n, 3))
    pts[:, 2] = ts
    return BallFamily(pts, delta, float(s), 4.0, kind="t-axis")


def gen_horizontal_line(delta):
    """Balls along the horizontal x-axis; (delta, 1)-set."""
    check_delta(delta)
    k = int(math.floor(1.0 / delta))
    xs = np.arange(-k, k + 1) * delta
    pts = np.zeros((len(xs), 3))
    pts[:, 0] = xs
    return BallFamily(pts, delta, 1.0, 4.0, kind="horizontal-line")


def gen_product(delta, dim0=0.5):
    """Planar Cantor set of dimension dim0 times a vertical delta^2-grid.

    Four-map IFS with ratio rho = 4^(-1/dim0) < 1/2 on [-c, c]^2, iterated
    while its columns stay delta apart; gauge dimension dim0 + 2.  Per
    coordinate a level-k column is sum_{i<k} +-rho^i (1 - rho) c, all sign
    pairs occurring.  Columns first differing in map i are at least
    2c[rho^i (1 - 2 rho) + rho^k] apart; the least, 2c(1 - rho) rho^(k-1),
    is met by equal y differing only in the first map applied.
    """
    check_delta(delta)
    if not 0 < dim0 < 2:
        raise ValueError("dim0 must lie in (0, 2)")
    rho = 4.0 ** (-1.0 / dim0)
    c = 0.3
    corners = np.array([[c, c], [c, -c], [-c, c], [-c, -c]])
    pts2 = np.zeros((1, 2))
    gap = 2 * c * (1 - rho)
    # the 4096-column cap binds only below delta = 0.6 * 2^-7 (rho -> 1/2)
    while gap >= delta and 4 * len(pts2) <= 4096:
        pts2 = (rho * pts2[:, None, :]
                + (1 - rho) * corners[None, :, :]).reshape(-1, 2)
        gap *= rho
    pts = ball_grid(pts2, delta ** 2, delta)
    return BallFamily(pts, delta, dim0 + 2.0, 16.0, kind="product")


_GENERATORS = {
    "heis-lattice": gen_heis_lattice,
    "slab": gen_lattice_slab,
    "random3": gen_random3,
    "t-axis": gen_t_axis,
    "horizontal-line": gen_horizontal_line,
    "product": gen_product,
}


def generate(kind, delta, seed=0, **params):
    """Family of a kind, from its generator called with delta and params.

    seed reaches the kinds whose generator takes one; the others are
    deterministic.  Raises ValueError for an unknown kind, a delta not
    in (0, 1/2], or a param the kind's generator does not take.
    """
    if kind not in _GENERATORS:
        raise ValueError("unknown family kind %r (choose from %s)"
                         % (kind, sorted(_GENERATORS)))
    gen = _GENERATORS[kind]
    takes = inspect.signature(gen).parameters
    extra = sorted(set(params) - set(takes))
    if extra:
        raise ValueError("family kind %r takes no %s" % (kind, extra[0]))
    if "seed" in takes:
        params["seed"] = seed
    return gen(delta, **params)


def write_family(path, family):
    """Text format: header 'delta t C count kind', then one 'x y t' per center.

    The kind is one word, so that the header splits into five fields.
    Rows are formatted a block at a time, by one % operation each.
    """
    if family.kind.split() != [family.kind]:
        raise ValueError("family kind must be one word, got %r" % family.kind)
    with open(path, "w") as fh:
        fh.write("%.17g %.17g %.17g %d %s\n"
                 % (family.delta, family.claimed_t, family.claimed_C,
                    len(family), family.kind))
        for sl in blocks(len(family), 3):
            rows = family.centers[sl]
            fh.write(("%.17g %.17g %.17g\n" * len(rows))
                     % tuple(rows.ravel().tolist()))


def read_family(path):
    """Family of a write_family file; a 4-field header is kind 'custom'."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) not in (4, 5):
            raise ValueError("bad family header")
        delta, t, C = float(head[0]), float(head[1]), float(head[2])
        count = int(head[3])
        body = fh.read()
    # loadtxt warns on an empty body and reads it as shape (0, 1)
    rows = (np.loadtxt(body.splitlines(), dtype=float, ndmin=2)
            if body.strip() else np.empty((0, 3)))
    if rows.shape != (count, 3):
        raise ValueError("family body does not match header count")
    return BallFamily(rows, delta, t, C, *head[4:])
