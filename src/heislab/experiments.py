"""Numerical experiments: projected areas, plate energies, dimensions.

These drive the quantitative story: projected Lebesgue measure of ball
unions and its best-direction exponent, the L^2 energy of dual plate
families, box dimensions in the euclidean and parabolic plane metrics,
and the constants manifest.
"""

from __future__ import annotations

import math

import numpy as np

from . import core, plates
from .cinematic import f_eval
from .core import UNIT_BALL_VOLUME, dilate, gauge_norm, group_mul
from .delta_sets import dyadic_ball_counts, verify_delta_t_set
from .duality import HorizontalLine, xray_transform
from .projections import (PARABOLIC_BILIP_LO, PROJECTED_BALL_AREA,
                          PROJECTED_BALL_PROFILE_MAX, distinct, pi_e,
                          pixel_keys, projected_ball_profile, ze_zje)
from .sampling import (make_rng, monte_carlo_ball_volume, uniform_ball_points,
                       uniform_euclidean_ball)


# A raster whose box holds at most this many pixels per (ball, column)
# interval is unioned in a difference array over the box: 8 bytes a pixel,
# no more than the sort path's dozen interval-sized arrays hold, and a
# pixel costs one cumsum step where an interval costs a sort.
BOX_PIXELS_PER_INTERVAL = 8


def projection_area(theta, centers, radius, pixel, points_per_ball=None):
    """Pixel area of pi_e(theta) applied to a union of balls.

    The shear identity of pi_e under left translation and dilation maps
    the projected unit ball {|beta| <= g(alpha)} (g is
    projected_ball_profile) onto the image of each ball (c, r):

        (alpha, beta) -> (a_c + r alpha, b_c + <z_c, e> r alpha + r^2 beta)

    with (a_c, b_c) = pi_e(c) and e = e(theta).  So each pixel column with
    centre a in [a_c - r, a_c + r] meets the image in the interval
    b_c + <z_c, e> (a - a_c) +- r^2 g((a - a_c) / r), and the raster holds
    the pixels of the column that the interval meets.  As g <= 2^(-3/2),
    a ball's rows lie within b_c +- (|<z_c, e>| r + 2^(-3/2) r^2), one row
    more either side for rounding: with its columns, that gives the box
    of the raster before any interval exists.  If the box holds at most
    BOX_PIXELS_PER_INTERVAL pixels per interval, blocks of intervals
    (window_blocks) add 1 at each bottom pixel and -1 one
    past each top into a difference array over the box, whose running
    sum is nonzero on the raster: no sort, memory O(box + PAIR_BLOCK).
    Otherwise (far-apart balls, tiny pixels) one sort of every interval by
    (column, bottom row) and a running maximum of the tops count it,
    memory O(intervals).  radius is a scalar or one per ball; an empty
    family has area 0.  Every chart value and |<z_c, e>| (|a_c| + r) must
    be at most 2^46 pixels, so that rounding moves no interval end by a
    row.  points_per_ball has no effect: the benchmark still passes it.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(centers),))
    if len(centers) == 0:
        return 0.0
    if not pixel > 0:
        raise ValueError("pixel must be positive")
    if not np.all((radius > 0) & (radius < np.inf)):
        raise ValueError("radius must be finite and positive")
    if pixel > radius.min() / 2 + 1e-15:
        raise ValueError("pixel must be at most half the ball radius")
    if not np.all(np.isfinite(centers)):
        raise ValueError("centers must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        ze, ac = ze_zje(theta, centers)
        bc = centers[:, 2] + 0.5 * ze * ac  # f_eval's heights, from ze and ac
        # rounding moves a column's a by a few ulp of |a_c| + r, and its
        # interval by |<z_c, e>| times as much
        span = np.abs(ac) + radius
        scale = np.abs(bc) + (1.0 + np.abs(ze)) * span + radius * radius
    if not scale.max() / pixel <= 2.0 ** 46:
        raise ValueError("chart coordinates too large against the pixel")
    # the columns with centre (col + 0.5) pixel in [a_c - r, a_c + r]
    first = np.ceil((ac - radius) / pixel - 0.5)
    ncols = (np.floor((ac + radius) / pixel - 0.5) - first + 1).astype(int)
    ext = np.abs(ze) * radius + radius * radius * PROJECTED_BALL_PROFILE_MAX
    row0 = np.floor((bc - ext) / pixel).min() - 1
    # rows row0 .. row1 = max floor((b_c + ext) / pixel) + 1, and one more
    # for the -1 past a top row
    rows = np.floor((bc + ext) / pixel).max() + 3 - row0
    col0 = first.min()
    box = ((first + ncols).max() - col0) * rows
    if box <= BOX_PIXELS_PER_INTERVAL * ncols.sum():
        diff = np.zeros(int(box), dtype=np.int64)
        for ball, col in core.window_blocks(first, ncols):
            lo, hi = _column_rows(col, ball, ze, ac, bc, radius, pixel)
            base = (col - col0) * rows - row0
            np.add.at(diff, (base + lo).astype(np.int64), 1)
            np.add.at(diff, (base + hi).astype(np.int64) + 1, -1)
        return float(np.count_nonzero(np.cumsum(diff, out=diff))) \
            * pixel * pixel
    ball = np.repeat(np.arange(len(centers)), ncols)
    col = first[ball] + (np.arange(len(ball))
                         - np.repeat(np.cumsum(ncols) - ncols, ncols))
    lo, hi = _column_rows(col, ball, ze, ac, bc, radius, pixel)
    # keys column * rows + row, counted from 0, order the intervals by
    # (column, bottom row) and keep each column's rows apart, so a running
    # maximum of the earlier tops shows which rows an interval adds
    row0 = lo.min()
    base = (col - col.min()) * (hi.max() - row0 + 2) - row0
    lo += base
    hi += base
    if hi.max() >= 2.0 ** 53:
        raise ValueError("too many pixels in the raster")
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    top = np.maximum.accumulate(np.concatenate([[-np.inf], hi[:-1]]))
    return float(np.maximum(hi - np.maximum(lo, top + 1) + 1, 0).sum()) \
        * pixel * pixel


def _column_rows(col, ball, ze, ac, bc, radius, pixel):
    """Bottom and top rows of each ball's image over each pixel column."""
    da = (col + 0.5) * pixel - ac[ball]
    r = radius[ball]
    mid = bc[ball] + ze[ball] * da
    half = r * r * projected_ball_profile(np.clip(da / r, -1.0, 1.0))
    return np.floor((mid - half) / pixel), np.floor((mid + half) / pixel)


def best_direction_scan(family, n_directions=64):
    """Projected areas over a uniform direction net on [0, pi).

    Pixels have side delta / 2.  Antipodal directions give reflected
    charts with equal areas, so half a turn suffices.  Returns thetas,
    areas, and the best direction.
    """
    pixel = family.delta / 2
    thetas = np.arange(n_directions) * math.pi / n_directions
    areas = np.array([projection_area(th, family.centers, family.delta,
                                      pixel)
                      for th in thetas])
    best = int(np.argmax(areas))
    return {"thetas": thetas, "areas": areas,
            "best_theta": float(thetas[best]),
            "best_area": float(areas[best])}


def fit_loglog(scales, counts):
    """Least-squares slope of log(count) against log(1 / scale)."""
    x = np.log(1.0 / np.asarray(scales, dtype=float))
    y = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def projection_exponent(areas_by_delta):
    """Exponent alpha with area ~ delta^alpha from {delta: area} pairs."""
    deltas = sorted(areas_by_delta)
    slope, _, resid = fit_loglog(deltas, [areas_by_delta[d] for d in deltas])
    # area ~ delta^alpha means log area = alpha log delta = -alpha log(1/delta)
    return -slope, resid


def family_regularity_constant(family, seed=0):
    """Empirical C with |{B in F : B subset B(p, r)}| <= C (r / delta)^3."""
    _, radii, counts = dyadic_ball_counts(
        family, 2.0 * family.delta, 256, seed, shrink=family.delta)
    # (delta / r) ** 3.0 on Python floats: numpy's ** rounds arrays apart
    return max((float(m) * (family.delta / r) ** 3.0
                for r, m in zip(radii, counts.max(axis=1, initial=0))),
               default=0.0)


def plate_l2_energy(family, n_samples=200000, seed=0, verify=True):
    """Monte Carlo estimate of int_{B(2)} (sum_B 1_{plate(B)})^2.

    Plates are the scale-2delta modified plates dual to the family balls;
    B(2) is the euclidean ball of the dual space.  The family must verify
    as a (delta, 3, C)-set unless verify=False.  The normalized ratio
    divides by C38 * delta^3 * |F| where C38 is the empirical packing
    constant of the family.
    """
    report = None
    if verify:
        report = verify_delta_t_set(family, seed=seed)
        if family.claimed_t != 3.0 or not report["passes"]:
            raise ValueError("plate energy requires a verified "
                             "(delta, 3, C) family")
    plate = plates.ball_to_modified_plate(family.centers, family.delta)
    rng = make_rng(seed)
    pts = uniform_euclidean_ball(n_samples, rng, 2.0)
    counts = plates.count_memberships(plate.u, plate.v, plate.y, plate.r, pts)
    vol = 4.0 / 3.0 * math.pi * 8.0
    energy = vol * float(np.mean(counts.astype(float) ** 2))
    c38 = family_regularity_constant(family, seed=seed)
    normalized = energy / (c38 * family.delta ** 3 * len(family))
    # a family that overshoots its claimed packing constant should show
    # it, so also normalize by the claimed C
    norm_claimed = energy / (family.claimed_C * family.delta ** 3
                             * len(family))
    return {
        "energy": energy,
        "c38": c38,
        "normalized": normalized,
        "normalized_claimed": norm_claimed,
        "mean_count": float(counts.mean()),
        "max_count": int(counts.max()),
        "n_samples": n_samples,
        "verify": report,
    }


def covering_count_2d(points, scale, metric="euclidean"):
    """Occupied-cell covering count in a plane metric.

    Cells are scale x scale for the euclidean metric and
    scale x scale^2 for the parabolic one; within a bounded factor of
    greedy-net covering numbers, which leaves log-log slopes unchanged.
    """
    if metric == "euclidean":
        h = scale
    elif metric == "parabolic":
        h = (scale, scale * scale)
    else:
        raise ValueError("metric must be euclidean or parabolic")
    return len(distinct(pixel_keys(points, h)))


def box_dimension(points, scales, metric="euclidean"):
    """Box dimension of a plane point cloud via covering counts."""
    counts = [covering_count_2d(points, s, metric) for s in scales]
    slope, intercept, resid = fit_loglog(scales, counts)
    return {"slope": slope, "residual": resid, "counts": counts,
            "scales": list(map(float, scales)), "metric": metric}


def _cell_counts(vals, cells):
    """Number of distinct floor(v / cell) over vals, for each cell > 0.

    One sort serves every cell: v -> floor(v / cell) is monotone, so the
    cells of the sorted values come sorted, and each new one is a change.
    """
    vals = np.sort(np.asarray(vals, dtype=float).reshape(-1))
    return [np.count_nonzero(f[1:] != f[:-1]) + (len(f) > 0)
            for f in (np.floor(vals / cell) for cell in cells)]


def rho_dimension(points, thetas, scales):
    """1-D box dimensions of the height shadows f_p(theta) over directions.

    For each direction records the euclidean slope (cells of length
    scale) and the square-root-metric slope (cells of length scale^2):
    fit_loglog's slope, from one np.polyfit over every direction's counts
    (a least-squares fit of many columns solves each on its own).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cells = list(scales) + [s * s for s in scales]
    counts = [_cell_counts(f_eval(points, th), cells) for th in thetas]
    # one column per (direction, metric), rows in order of scale
    y = np.log(np.array(counts, dtype=float).reshape(-1, len(scales)).T)
    x = np.log(1.0 / np.asarray(scales, dtype=float))
    slopes = np.polyfit(x, y, 1)[0].tolist() if counts else []
    return {"thetas": [float(th) for th in thetas],
            "euclidean_slope": slopes[0::2],
            "sqrt_slope": slopes[1::2]}


def directional_l2_vs_xray(grid):
    """Both sides of the projection / X-ray energy comparison.

    Left: int over directions within 45 degrees of the y-axis of the
    squared L^2 norm of the projected density, on pixels of side 1/64
    (trapezoid rule on 9 directions).  Right: int of Xf^2 over lines
    with |a| <= 1 and |b|, |c| <= 3/2 under the parameter Lebesgue
    measure (Riemann sum over a 9 x 21 x 21 grid of lines).  Returns
    the two values and their ratio; comparable up to a fixed band.
    """
    pixel = 1.0 / 64
    centers, dens = grid.occupied()
    mass = dens * grid.cell_volume
    thetas = np.linspace(math.pi / 4, 3 * math.pi / 4, 9)
    left_vals = []
    for th in thetas:
        keys = pixel_keys(pi_e(th, centers), pixel)
        order = np.argsort(keys, kind="stable")
        k = keys[order]
        m = mass[order]
        cuts = np.nonzero(np.diff(k))[0] + 1
        sums = np.add.reduceat(m, np.concatenate([[0], cuts]))
        left_vals.append(float((sums ** 2).sum()) / (pixel * pixel))
    left = float(np.trapezoid(left_vals, thetas))
    bc = np.linspace(-1.5, 1.5, 21)
    lines = np.meshgrid(np.linspace(-1.0, 1.0, 9), bc, bc, indexing="ij")
    xv = xray_transform(grid, HorizontalLine(*lines))
    da = 2.0 / 8
    dbc = 3.0 / 20
    right = float((xv * xv).sum()) * (da * dbc * dbc)
    return {"left": left, "right": right,
            "ratio": left / right if right > 0 else float("inf")}


# radius of the balls of derive_constants' same-direction pairs
SEPARATION_RADIUS = 2.0 ** -6


def _separation_pairs(rng, n_pairs):
    """Centers c1, c2 of the same-direction pairs kept.

    c1 is uniform in B(0.8) with |y| clamped to 0.9, and c2 lies within a
    random multiple (up to 6) of the radius of c1, with the direction gap
    clamped to the radius, the regime where the separation bound applies;
    pairs with c2 outside the unit ball or |y2| > 1 are dropped.
    """
    r = SEPARATION_RADIUS
    c1 = uniform_ball_points(n_pairs, rng, 0.8)
    c1[:, 1] = np.clip(c1[:, 1], -0.9, 0.9)
    scale = r * (rng.random(n_pairs) * 6.0)
    c2 = group_mul(c1, dilate(scale, uniform_ball_points(n_pairs, rng)))
    gap = c2[:, 1] - c1[:, 1]
    c2[:, 1] = c1[:, 1] + gap * np.minimum(1.0, r / (np.abs(gap) + 1e-300))
    kept = (gauge_norm(c2) <= 1.0) & (np.abs(c2[:, 1]) <= 1.0)
    return c1[kept], c2[kept]


def derive_constants(seed=0, n_pairs=2000):
    """Re-derive the constants manifest.

    Every entry records the value, sample count, seed and a one-line
    description that starts with its kind: "closed" (an exact value, from
    0 samples), "sampled" (a max over the draws and so a lower bound of
    its supremum) or "estimate" (a Monte Carlo estimate of a known
    value).  The checked-in manifest is the regression baseline.
    """
    rng = make_rng(seed)
    entries = {}

    def put(name, value, samples, description):
        entries[name] = {"value": float(value), "samples": int(samples),
                         "seed": int(seed), "description": description}

    put("ball_volume_mc", monte_carlo_ball_volume(1_000_000, seed=seed),
        1_000_000, "estimate: rejection MC of the unit ball volume "
        "pi^2/8 = %.6f" % UNIT_BALL_VOLUME)
    # left invariance makes the image area of every ball r^3 times this
    put("proj_ball_area", PROJECTED_BALL_AREA, 0,
        "closed: area of the projected unit ball, "
        "2 sqrt(pi) Gamma(3/4)/Gamma(1/4)")
    put("parabolic_bilip_lo", PARABOLIC_BILIP_LO, 0,
        "closed: min gauge/parabolic distance ratio on W_e, "
        "(1 + 2^(-4/3))^(-3/4) at 16k^3 = 1, k = sqrt|db| / |da|")
    put("parabolic_bilip_hi", 2.0, 0,
        "closed: sup gauge/parabolic distance ratio on W_e, "
        "2 as k -> infinity, never attained")
    put("plate_outer_C", plates.PLATE_OUTER_C, 0,
        "closed: max d(base point of plate ray, ball center) / r, "
        "2 40^(1/4) at |w1| = |e| = 2r, w2 = 4r^2")
    put("sandwich_inner_c", plates.SANDWICH_INNER_C, 0,
        "closed: largest c with the scale-cr modified plate inside "
        "the rigid plate, 1/3")

    # the ball-plate correspondence, proved in the plates docstring
    put("dual_ray_inclusion_rate", 1.0, 0,
        "closed: fraction of dual rays of ball points inside the "
        "scale-2r plate, 1")
    put("plate_recovery_C", plates.PLATE_OUTER_C, 0,
        "closed: whole-ray recovery radius, max d(p, q) / r over p whose "
        "whole dual ray lies in the plate of B(q, r), equal to "
        "plate_outer_C")

    c1, c2 = _separation_pairs(rng, n_pairs)
    ratios = plates.same_direction_separation(c1, c2, SEPARATION_RADIUS, rng)
    met = ratios[~np.isnan(ratios)]
    put("same_direction_separation_C", met.max(initial=0.0), len(met),
        "sampled: max d(p1,p2)/r over same-direction pairs with "
        "intersecting plates")
    return entries
