"""Numerical experiments: projected areas, plate energies, dimensions.

These drive the quantitative story: projected Lebesgue measure of ball
unions and its best-direction exponent, the L^2 energy of dual plate
families, box dimensions in the euclidean and parabolic plane metrics,
and the empirical constants manifest.
"""

from __future__ import annotations

import math

import numpy as np

from . import plates
from .core import (PAIR_BLOCK, HeisBall, dilate, gauge_norm, group_mul,
                   heis_dist)
from .delta_sets import dyadic_ball_counts, verify_delta_t_set
from .duality import HorizontalLine, LightRay, xray_transform
from .projections import pack_pixels, pi_e, pixel_keys, rho_e
from .sampling import (make_rng, monte_carlo_ball_volume,
                       quadrature_ball_volume, uniform_ball_points,
                       unit_ball_points)


def _ball_charts(theta, centers, radius, cloud):
    """pi_e(c * delta_r(u)) for every ball (c, r) and cloud point u.

    cloud holds pi_e(theta, u); the result has shape (balls, cloud
    points, 2) and comes from the shear identity (see projection_area).
    """
    ac, bc = pi_e(theta, centers).T
    ze = centers[:, 0] * math.cos(theta) + centers[:, 1] * math.sin(theta)
    r = radius[:, None]
    ra = r * cloud[:, 0]
    w = np.empty(ra.shape + (2,))
    w[..., 0] = ac[:, None] + ra
    w[..., 1] = bc[:, None] + r * r * cloud[:, 1] + ze[:, None] * ra
    return w


def projection_area(theta, centers, radius, pixel, pts_per_ball=200):
    """Pixel area of pi_e(theta) applied to a union of balls.

    Each ball is sampled with the same nested low-discrepancy cloud of at
    least pts_per_ball points, dilated to its radius (scalar or per-ball)
    and left-translated to its center.  Only the centers and the unit
    cloud go through pi_e; the shear identity of pi_e under left
    translation and dilation,

        pi_e(c * delta_r(u)) = (a_c + r a_u, b_c + r^2 b_u + <z_c, e> r a_u)

    with (a_c, b_c) = pi_e(c), (a_u, b_u) = pi_e(u) and e = e(theta),
    gives the chart point of every (ball, cloud point) pair, in blocks
    of about core.PAIR_BLOCK pairs.  An empty family has area 0.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(centers),))
    if len(centers) == 0:
        return 0.0
    if pixel > radius.min() / 2 + 1e-15:
        raise ValueError("pixel must be at most half the ball radius")
    cloud = pi_e(theta, unit_ball_points(pts_per_ball))
    step = max(1, PAIR_BLOCK // len(cloud))
    parts = [np.unique(pixel_keys(_ball_charts(theta, centers[i:i + step],
                                               radius[i:i + step], cloud),
                                  pixel))
             for i in range(0, len(centers), step)]
    return len(np.unique(np.concatenate(parts))) * pixel * pixel


def best_direction_scan(family, n_directions=64, pixel=None,
                        pts_per_ball=200):
    """Projected areas over a uniform direction net on [0, pi).

    Antipodal directions give reflected charts with equal areas, so half
    a turn suffices.  Returns thetas, areas, and the best direction.
    """
    pixel = family.delta / 2 if pixel is None else pixel
    thetas = np.arange(n_directions) * math.pi / n_directions
    areas = np.array([projection_area(th, family.centers, family.delta,
                                      pixel, pts_per_ball)
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


def family_regularity_constant(family, exponent=3.0, max_centers=256,
                               seed=0):
    """Empirical C with |{B in F : B subset B(p, r)}| <= C (r / delta)^exponent."""
    _, radii, blocks = dyadic_ball_counts(
        family, 2.0 * family.delta, max_centers, seed, shrink=family.delta)
    worst = 0.0
    for _, counts in blocks:
        for r, cnt in zip(radii, counts):
            worst = max(worst, float(cnt.max())
                        * (family.delta / r) ** exponent)
    return worst


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
    uvy = plates.center_decomposition(family.centers)
    u, v, y = uvy[:, 0], uvy[:, 1], uvy[:, 2]
    r = 2.0 * family.delta
    rng = make_rng(seed)
    pts = plates._uniform_euclidean_ball(n_samples, rng, 2.0)
    counts = plates.count_memberships(u, v, y, r, pts)
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
    w = np.asarray(points, dtype=float).reshape(-1, 2)
    if metric == "euclidean":
        h = np.array([scale, scale])
    elif metric == "parabolic":
        h = np.array([scale, scale * scale])
    else:
        raise ValueError("metric must be euclidean or parabolic")
    return len(np.unique(pack_pixels(np.floor(w[:, 0] / h[0]),
                                     np.floor(w[:, 1] / h[1]))))


def greedy_net_2d(points, scale, metric="euclidean"):
    """Greedy first-fit net count; oracle for covering_count_2d factors."""
    w = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(w) == 0:
        return 0
    net = w[:1]
    for p in w[1:]:
        if metric == "euclidean":
            d = np.sqrt(((net - p) ** 2).sum(axis=1))
        else:
            d = np.abs(net[:, 0] - p[0]) + np.sqrt(np.abs(net[:, 1] - p[1]))
        if float(d.min()) > scale:
            net = np.concatenate([net, p[None, :]])
    return len(net)


def box_dimension(points, scales, metric="euclidean", method="grid"):
    """Box dimension of a plane point cloud via covering counts."""
    counter = covering_count_2d if method == "grid" else greedy_net_2d
    counts = [counter(points, s, metric) for s in scales]
    slope, intercept, resid = fit_loglog(scales, counts)
    return {"slope": slope, "residual": resid, "counts": counts,
            "scales": list(map(float, scales)), "metric": metric}


def _cell_counts(vals, cells):
    """Number of distinct floor(v / cell) over vals, for each cell > 0.

    One sort serves every cell: v -> floor(v / cell) is monotone, so the
    count is 1 + the number of changes along the sorted values.
    """
    vals = np.sort(np.asarray(vals, dtype=float).reshape(-1))
    out = []
    for cell in cells:
        f = np.floor(vals / cell)
        out.append(len(f) and 1 + int(np.count_nonzero(f[1:] != f[:-1])))
    return out


def rho_dimension(points, thetas, scales):
    """1-D box dimensions of the height shadows rho_e over directions.

    For each direction records the euclidean slope (cells of length
    scale) and the square-root-metric slope (cells of length scale^2).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    cells = list(scales) + [s * s for s in scales]
    out = {"thetas": [], "euclidean_slope": [], "sqrt_slope": []}
    for th in thetas:
        counts = _cell_counts(rho_e(th, points), cells)
        out["thetas"].append(float(th))
        out["euclidean_slope"].append(
            fit_loglog(scales, counts[:len(scales)])[0])
        out["sqrt_slope"].append(fit_loglog(scales, counts[len(scales):])[0])
    return out


def directional_l2_vs_xray(grid, n_theta=9, pixel=1.0 / 64,
                           a_range=(-1.0, 1.0), n_a=9, n_bc=21,
                           bc_range=(-1.5, 1.5)):
    """Both sides of the projection / X-ray energy comparison.

    Left: int over directions within 45 degrees of the y-axis of the
    squared L^2 norm of the projected density.  Right: int of Xf^2 over
    lines with |a| <= 1 under the parameter Lebesgue measure.  Returns
    the two values and their ratio; comparable up to a fixed band.
    """
    centers, dens = grid.occupied()
    mass = dens * grid.cell_volume
    thetas = np.linspace(math.pi / 4, 3 * math.pi / 4, n_theta)
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
    a_grid = np.linspace(a_range[0], a_range[1], n_a)
    bc = np.linspace(bc_range[0], bc_range[1], n_bc)
    da = (a_range[1] - a_range[0]) / max(n_a - 1, 1)
    dbc = (bc_range[1] - bc_range[0]) / max(n_bc - 1, 1)
    right = 0.0
    for a in a_grid:
        for b in bc:
            for c in bc:
                xv = xray_transform(grid, HorizontalLine(a, b, c))
                right += xv * xv
    right *= da * dbc * dbc
    return {"left": left, "right": right,
            "ratio": left / right if right > 0 else float("inf")}


def derive_constants(seed=0, n_balls=100, n_rays=10, n_pairs=2000):
    """Re-derive the empirical constants manifest.

    Every entry records the value, sample count, seed and a one-line
    description of its oracle; the checked-in manifest is the regression
    baseline for these numbers.
    """
    rng = make_rng(seed)
    entries = {}

    def put(name, value, samples, description):
        entries[name] = {"value": float(value), "samples": int(samples),
                         "seed": int(seed), "description": description}

    mc = monte_carlo_ball_volume(1_000_000, seed=seed)
    put("ball_volume_mc", mc, 1_000_000,
        "rejection MC of the unit ball volume; quadrature oracle %.6f"
        % quadrature_ball_volume())

    # projected area of the unit ball per unit delta^3 (left invariance
    # makes every ball image area equal to this times r^3)
    pix = 2.0 ** -8
    cloud = unit_ball_points(400000)
    areas = [len(np.unique(pixel_keys(pi_e(th, cloud), pix))) * pix * pix
             for th in (0.0, 0.7, 1.9)]
    put("proj_ball_area", float(np.mean(areas)), 400000,
        "pixel area of the projected unit ball, mean of 3 directions")

    # parabolic vs gauge metric on a vertical plane
    w = rng.random((20000, 2, 2)) * [2.0, 2.0] - [1.0, 1.0]
    emb = np.zeros((20000, 2, 3))
    emb[..., 1] = w[..., 0]
    emb[..., 2] = w[..., 1]
    dg = heis_dist(emb[:, 0], emb[:, 1])
    dp = np.abs(w[:, 0, 0] - w[:, 1, 0]) \
        + np.sqrt(np.abs(w[:, 0, 1] - w[:, 1, 1]))
    ok = dp > 0
    put("parabolic_bilip_lo", float((dg[ok] / dp[ok]).min()), 20000,
        "min gauge/parabolic distance ratio on the plane x=0")
    put("parabolic_bilip_hi", float((dg[ok] / dp[ok]).max()), 20000,
        "max gauge/parabolic distance ratio on the plane x=0")

    # ball-plate correspondence constants
    inc = 0
    tot = 0
    outer = 0.0
    recov = 0.0
    for _ in range(n_balls):
        c = uniform_ball_points(1, rng, 0.9)[0]
        c[1] = min(max(c[1], -0.95), 0.95)
        r = float(rng.random() * 0.2 + 0.02)
        ball = HeisBall(tuple(c), r)
        plate = plates.ball_to_modified_plate(ball)
        qs = group_mul(c, dilate(r * 0.999, uniform_ball_points(n_rays, rng)))
        for q in qs:
            uvy = plates.center_decomposition(q)
            ray = LightRay(uvy[0], uvy[1], uvy[2])
            tot += 1
            inc += bool(plate.contains_ray(ray))
        for _ in range(n_rays):
            up, vp, yp = plate.sample_ray(rng)
            p = plates.compose_center(up, vp, yp)
            outer = max(outer, float(heis_dist(p, c)) / r)
        # recovery: points whose sampled dual rays stay inside the plate
        cand = group_mul(c, dilate(4 * r, uniform_ball_points(24, rng)))
        svals = np.linspace(-1.0, 1.0, 21)
        for p in cand:
            uvy = plates.center_decomposition(p)
            ray_pts = np.stack([svals,
                                uvy[0] - svals * uvy[2],
                                uvy[1] + 0.5 * svals * uvy[2] ** 2], axis=1)
            ray_pts = ray_pts[np.linalg.norm(ray_pts, axis=1) <= 1.0]
            if len(ray_pts) and bool(np.all(plate.contains(ray_pts))):
                recov = max(recov, float(heis_dist(p, c)) / r)
    put("dual_ray_inclusion_rate", inc / tot, tot,
        "fraction of dual rays of ball points inside the scale-2r plate")
    put("plate_outer_C", outer, n_balls * n_rays,
        "max d(base point of plate ray, ball center) / r")
    put("plate_recovery_C", recov, n_balls * 24,
        "max d(p, q) / r over p whose dual ray stays inside the plate of q")

    # same-direction separation constant
    lem = 0.0
    hits = 0
    for i in range(n_pairs):
        c1 = uniform_ball_points(1, rng, 0.8)[0]
        c1[1] = min(max(c1[1], -0.9), 0.9)
        r = 2.0 ** -6
        off = dilate(r * float(rng.random() * 6.0),
                     uniform_ball_points(1, rng))[0]
        c2 = group_mul(c1, off)
        # clamp the direction gap to the radius, the regime where the
        # separation bound applies
        c2[1] = c1[1] + (c2[1] - c1[1]) * min(
            1.0, r / (abs(c2[1] - c1[1]) + 1e-300))
        if gauge_norm(c2) > 1.0 or abs(c2[1]) > 1.0:
            continue
        b1 = HeisBall(tuple(c1), r)
        b2 = HeisBall(tuple(c2), r)
        ratio = plates.same_direction_separation(b1, b2, n_samples=256,
                                                 seed=seed + i)
        if ratio is not None:
            hits += 1
            lem = max(lem, ratio)
    put("same_direction_separation_C", lem, hits,
        "max d(p1,p2)/r over same-direction pairs with intersecting plates")

    # inner sandwich constant: largest c with Pi_{c r} inside the rigid plate
    best_c = 0.0
    for cval in np.linspace(1.0 / 16, 1.0, 16):
        good = True
        for _ in range(40):
            c0 = uniform_ball_points(1, rng, 0.8)[0]
            c0[1] = min(max(c0[1], -0.9), 0.9)
            r = float(rng.random() * 0.1 + 0.01)
            uvy = plates.center_decomposition(c0)
            inner = plates.ModifiedPlate(uvy[0], uvy[1], uvy[2], cval * r)
            rigid = plates.Plate(uvy[0], uvy[1], uvy[2], r, x_halfwidth=2.0)
            pts = inner.sample(200, rng, x_halfwidth=2.0)
            if not bool(np.all(rigid.contains(pts, tol=1e-9))):
                good = False
                break
        if good:
            best_c = float(cval)
    put("sandwich_inner_c", best_c, 16 * 40 * 200,
        "largest c with the scale-cr modified plate inside the rigid plate")
    return entries
