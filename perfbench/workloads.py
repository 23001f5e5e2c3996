"""The four workloads: their inputs, timed operations and output checks.

Each workload makes its inputs from the seed, hands them to heislab only
through family files or CLI arguments (library calls read the family
file first), and checks every output against an oracle that does not
share the fast path it checks.  All paths are relative to the directory
of one worker process, which is its working directory.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from heislab import cinematic, cli, delta_sets, experiments, measures, plates
from heislab.sampling import make_rng

FAMILY = "out/family.txt"

SIZES = {
    "plate-energy": {"delta": 2.0 ** -4, "samples": 20000, "brute": 2000},
    "projection-scan": {"delta": 2.0 ** -5, "directions": 4,
                        "points_per_ball": 100, "rho_directions": 32},
    "measure-audit": {"delta": 0.075, "max_centers": 4096},
    "constants": {"balls": 150, "pairs": 3000},
}

# relative deviation allowed between the projected areas of a set and of
# its left translate (the pixel raster, not the identity, sets it; the
# acceptance suite pins the same 2% on larger balls)
LEFT_INVARIANCE_TOL = 0.02
REL = 1e-12


@dataclass
class Op:
    """One timed call into heislab."""

    name: str
    run: Callable[[], object]
    files: tuple = ()
    expect_exit: int | None = None
    summary: Callable[[object], object] = field(default=lambda value: None)


def cli_op(name, argv, files=()):
    """`heislab <argv>` in-process, its stdout kept as an output file."""
    stdout = "out/%s.stdout" % name

    def run():
        with open(stdout, "w") as fh, contextlib.redirect_stdout(fh):
            return cli.main(argv)
    return Op(name, run, tuple(files) + (stdout,), expect_exit=0)


def gauge_dist(p, q):
    """d(p, q) = ||q^-1 p|| from the group law, written apart from heislab."""
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    tau = (p[..., 2] - q[..., 2]
           + 0.5 * (q[..., 1] * p[..., 0] - q[..., 0] * p[..., 1]))
    return ((dx * dx + dy * dy) ** 2 + 16.0 * tau * tau) ** 0.25


def plate_counts_bruteforce(u, v, y, r, pts, tol=1e-9):
    """Number of modified plates Pi_r(u_i, v_i, y_i) holding each point.

    Written from the plate's definition, apart from heislab: the point
    q = (s, q2, q3) lies on the ray (0, u + w1, v + w2) + L_y'(s) with
    w1 = q2 - u + s y' and w2 = q3 - v - s y'^2 / 2, and the plate holds
    it when some y' in [y - r, y + r] has |w1| <= r and
    |w2 + y w1| <= r^2 (each bound widened by tol).  With d = y' - y,
    w2 + y w1 = K - (s / 2) d^2 for K = q3 - v + y (q2 - u) + s y^2 / 2,
    so each condition is an interval in y' or d^2, intersected here
    plate by plate.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    s, q2, q3 = pts[:, 0], pts[:, 1], pts[:, 2]
    counts = np.zeros(len(pts), dtype=np.int64)
    big = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for ui, vi, yi in zip(u, v, y):
            a = q2 - ui
            # |a + s y'| <= r + tol
            e1, e2 = (-r - tol - a) / s, (r + tol - a) / s
            lo1 = np.where(s == 0, np.where(np.abs(a) <= r + tol, -big, big),
                           np.minimum(e1, e2))
            hi1 = np.where(s == 0, -lo1, np.maximum(e1, e2))
            lo1 = np.maximum(lo1, yi - r - tol)
            hi1 = np.minimum(hi1, yi + r + tol)
            # |K - (s / 2) d^2| <= r^2 + tol
            k = q3 - vi + yi * a + 0.5 * s * yi * yi
            rr = r * r + tol
            f1, f2 = 2 * (k - rr) / s, 2 * (k + rr) / s
            d2lo = np.where(s == 0, np.where(np.abs(k) <= rr, 0.0, big),
                            np.minimum(f1, f2))
            d2hi = np.where(s == 0, big, np.maximum(f1, f2))
            dlo = np.sqrt(np.maximum(d2lo, 0.0))
            dhi = np.sqrt(np.maximum(d2hi, 0.0))
            ok = d2hi >= 0
            left = (np.maximum(lo1, yi - dhi) <= np.minimum(hi1, yi - dlo))
            right = (np.maximum(lo1, yi + dlo) <= np.minimum(hi1, yi + dhi))
            counts += ok & (left | right)
    return counts


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_centers(path):
    with open(path) as fh:
        head = fh.readline().split()
        rows = [list(map(float, line.split())) for line in fh]
    return np.array(rows, dtype=float).reshape(-1, 3), head


class Workload:
    name = ""

    def __init__(self, sizes=None):
        self.sz = dict(SIZES[self.name] if sizes is None else sizes)

    def prepare(self, seed):
        """Write the input files; counted in setup_s."""
        os.makedirs("out", exist_ok=True)

    def ops(self, seed):
        raise NotImplementedError

    def check(self, seed, d, summaries):
        """{op name: [problem, ...]} for the outputs in directory d."""
        raise NotImplementedError


class PlateEnergy(Workload):
    name = "plate-energy"

    def prepare(self, seed):
        super().prepare(seed)
        fam = delta_sets.generate("random3", self.sz["delta"], seed=seed)
        delta_sets.write_family(FAMILY, fam)

    def ops(self, seed):
        return [cli_op("plate-energy",
                       ["experiment", "plate-energy", "--input", FAMILY,
                        "--samples", str(self.sz["samples"]),
                        "--seed", str(seed), "--out-dir", "out"],
                       ["out/plate_energy.%s" % ext
                        for ext in ("json", "csv", "svg")])]

    def sample_points(self, seed):
        """The experiment's dual-space sample: uniform in the euclidean
        ball of radius 2, by rejection from the same Philox stream."""
        n, rng = self.sz["samples"], make_rng(seed)
        out = np.empty((0, 3))
        while len(out) < n:
            raw = rng.random((int((n - len(out)) / 0.5) + 16, 3)) * 2.0 - 1.0
            out = np.concatenate(
                [out, raw[np.einsum("ij,ij->i", raw, raw) <= 1.0]])
        return out[:n] * 2.0

    def check(self, seed, d, summaries):
        probs = []
        scal = read_json(os.path.join(d, "out/plate_energy.json"))["scalars"]
        c, _ = read_centers(os.path.join(d, FAMILY))
        # the plate of B(p, delta) is Pi_{2 delta}(x, t - x y / 2, y)
        u, v, y = c[:, 0], c[:, 2] - 0.5 * c[:, 0] * c[:, 1], c[:, 1]
        r = 2.0 * self.sz["delta"]
        pts = self.sample_points(seed)
        counts = plates.count_memberships(u, v, y, r, pts)
        energy = 4.0 / 3.0 * math.pi * 8.0 * float(
            np.mean(counts.astype(float) ** 2))
        if not close(scal["energy"], energy):
            probs.append("energy %r, counts give %r"
                         % (scal["energy"], energy))
        if not close(scal["mean_count"], float(counts.mean())):
            probs.append("mean_count %r, counts give %r"
                         % (scal["mean_count"], float(counts.mean())))
        if scal["max_count"] != int(counts.max()):
            probs.append("max_count %r, counts give %r"
                         % (scal["max_count"], int(counts.max())))
        pick = make_rng(seed + 1).choice(len(pts), self.sz["brute"],
                                         replace=False)
        brute = plate_counts_bruteforce(u, v, y, r, pts[pick])
        bad = int(np.count_nonzero(counts[pick] != brute))
        if bad:
            probs.append("count_memberships differs from brute force at "
                         "%d of %d points" % (bad, len(pick)))
        return {"plate-energy": probs}


class ProjectionScan(Workload):
    name = "projection-scan"

    def x0(self, seed):
        return float(make_rng(seed).random() - 0.5) / 4.0

    def prepare(self, seed):
        super().prepare(seed)
        fam = delta_sets.gen_lattice_slab(self.sz["delta"], self.x0(seed))
        delta_sets.write_family(FAMILY, fam)

    def ops(self, seed):
        def files(name):
            return ["out/%s.%s" % (name, ext)
                    for ext in ("json", "csv", "svg")]
        return [
            cli_op("best-direction",
                   ["experiment", "best-direction", "--input", FAMILY,
                    "--directions", str(self.sz["directions"]),
                    "--points-per-ball", str(self.sz["points_per_ball"]),
                    "--seed", str(seed), "--out-dir", "out"],
                   files("best_direction")),
            cli_op("rho-dim",
                   ["experiment", "rho-dim", "--input", FAMILY,
                    "--directions", str(self.sz["rho_directions"]),
                    "--seed", str(seed), "--out-dir", "out"],
                   files("rho_dimension")),
        ]

    def check(self, seed, d, summaries):
        delta = self.sz["delta"]
        centers, _ = read_centers(os.path.join(d, FAMILY))
        # best-direction: the area at theta = pi/4 must equal, to the
        # raster's tolerance, the area of the left translate by
        # (-x0, 0, 0), which lies in the plane {x = 0}
        best = []
        rep = read_json(os.path.join(d, "out/best_direction.json"))
        thetas = rep["series"]["theta"]
        areas = rep["series"]["area"]
        k = int(np.argmax(areas))
        if (rep["scalars"]["best_area"] != areas[k]
                or rep["scalars"]["best_theta"] != thetas[k]):
            best.append("best_area/best_theta is not the maximum of the scan")
        j = int(np.argmin(np.abs(np.asarray(thetas) - math.pi / 4)))
        x0 = self.x0(seed)
        back = centers.copy()
        back[:, 0] -= x0
        back[:, 2] -= 0.5 * x0 * centers[:, 1]
        ref = experiments.projection_area(thetas[j], back, delta, delta / 2,
                                          self.sz["points_per_ball"])
        if abs(areas[j] - ref) > LEFT_INVARIANCE_TOL * ref:
            best.append("area %r at theta %r, left translate gives %r"
                        % (areas[j], thetas[j], ref))
        # rho-dim: the shadows rho_e are the cinematic heights f_p(theta)
        rho = []
        rep = read_json(os.path.join(d, "out/rho_dimension.json"))
        ser = rep["series"]
        scales = np.array([2.0 ** -k for k in range(3, 8)])
        n = len(ser["theta"])
        for i in range(0, n, max(1, n // 4)):
            h = cinematic.f_eval(centers, ser["theta"][i])
            for key, cell in (("euclidean_slope", scales),
                              ("sqrt_slope", scales * scales)):
                cnt = [len(np.unique(np.floor(h / c))) for c in cell]
                slope = np.polyfit(np.log(1.0 / scales), np.log(cnt), 1)[0]
                if not close(ser[key][i], float(slope), 1e-9):
                    rho.append("%s %r at theta %r, heights give %r"
                               % (key, ser[key][i], ser["theta"][i], slope))
        return {"best-direction": best, "rho-dim": rho}


class MeasureAudit(Workload):
    name = "measure-audit"

    def ops(self, seed):
        delta = self.sz["delta"]
        st = {}

        def read():
            st["fam"] = delta_sets.read_family(FAMILY)
            st["mu"] = measures.DiscreteMeasure.uniform(st["fam"].centers)
            return len(st["fam"])

        def raster():
            st["grid"] = measures.rasterize(st["mu"],
                                            [delta, delta, delta * delta])
            return st["grid"]

        def grid_summary(g):
            return {"shape": list(g.values.shape), "origin": list(g.origin),
                    "total_mass": g.total_mass,
                    "occupied": int(np.count_nonzero(g.values))}

        def layers_summary(out):
            return [[alpha, [int(i) for i in idx], bool(disc)]
                    for alpha, idx, disc in out]

        return [
            cli_op("gen", ["gen", "--kind", "random3", "--delta", repr(delta),
                           "--seed", str(seed), "--out", FAMILY], [FAMILY]),
            cli_op("verify", ["verify", "--input", FAMILY, "--max-centers",
                              str(self.sz["max_centers"])]),
            Op("read_family", read, summary=lambda n: n),
            Op("riesz_energy",
               lambda: measures.riesz_energy(st["mu"], 3.0, delta),
               summary=float),
            Op("layer_decomposition",
               lambda: measures.layer_decomposition(st["mu"], delta),
               summary=layers_summary),
            Op("covering_number",
               lambda: delta_sets.covering_number(st["fam"].centers,
                                                  2.0 * delta),
               summary=int),
            Op("rasterize", raster, summary=grid_summary),
            Op("delta_measure_report",
               lambda: measures.delta_measure_report(st["grid"], delta),
               summary=dict),
            Op("directional_l2_vs_xray",
               lambda: experiments.directional_l2_vs_xray(st["grid"]),
               summary=dict),
            Op("graph_overlap_integral",
               lambda: cinematic.graph_overlap_integral(st["fam"].centers,
                                                        delta),
               summary=float),
        ]

    def check(self, seed, d, summaries):
        delta = self.sz["delta"]
        c, head = read_centers(os.path.join(d, FAMILY))
        n = len(c)
        dist = gauge_dist(c[:, None, :], c[None, :, :])
        p = {name: [] for name in summaries}

        # gen: the file holds a delta-separated family in the unit ball
        if n == 0 or int(head[3]) != n:
            p["gen"].append("header count %s, %d rows" % (head[3], n))
        off = dist + np.diag(np.full(n, np.inf))
        if n > 1 and float(off.min()) < delta - 1e-12:
            p["gen"].append("centers are not delta-separated")
        if float(gauge_dist(c, np.zeros(3)).max(initial=0.0)) > 1.0 + 1e-12:
            p["gen"].append("centers outside the unit gauge ball")
        # verify: every center tested, worst ratio recomputed densely
        rep = read_json(os.path.join(d, "out/verify.stdout"))
        t, C = float(head[1]), float(head[2])
        worst, r = 0.0, delta
        while r <= 2.0:
            cnt = np.count_nonzero(dist <= r, axis=1)
            worst = max(worst, float((cnt / (C * r ** t * n)).max()))
            r *= 2.0
        if rep["count"] != n or self.sz["max_centers"] < n:
            p["verify"].append("verify tested %r of %d centers"
                               % (min(rep["count"], self.sz["max_centers"]),
                                  n))
        if rep["passes"] is not True or not close(rep["max_ratio"], worst):
            p["verify"].append("max_ratio %r passes %r, dense count gives %r"
                               % (rep["max_ratio"], rep["passes"], worst))
        if summaries.get("read_family") != n:
            p["read_family"].append("read %r centers of %d"
                                    % (summaries.get("read_family"), n))
        # riesz_energy of the uniform measure, as a row-by-row sum
        w = 1.0 / n
        energy = float(sum((w * w / np.maximum(row, delta) ** 3.0).sum()
                           for row in dist))
        if not close(summaries.get("riesz_energy"), energy, 1e-9):
            p["riesz_energy"].append("energy %r, row sums give %r"
                                     % (summaries.get("riesz_energy"), energy))
        # layer_decomposition: a partition of the atoms, each layer alpha
        # holding atoms with alpha/2 <= mu(B(x, delta)) <= alpha
        mass = np.count_nonzero(dist <= delta, axis=1) / n
        layers = summaries.get("layer_decomposition") or []
        idx = sorted(i for _, ids, _ in layers for i in ids)
        if idx != list(range(n)):
            p["layer_decomposition"].append("layers do not partition atoms")
        for alpha, ids, _ in layers:
            m = mass[ids]
            if (np.any(m > alpha * (1 + 1e-9))
                    or np.any(m < alpha / 2 * (1 - 1e-9))):
                p["layer_decomposition"].append("layer %r holds atoms with "
                                                "mass outside it" % alpha)
        # covering_number: greedy first-fit net in file order
        net = [0]
        for i in range(1, n):
            if float(dist[i, net].min()) > 2.0 * delta:
                net.append(i)
        if summaries.get("covering_number") != len(net):
            p["covering_number"].append("net of %r, first-fit gives %d"
                                        % (summaries.get("covering_number"),
                                           len(net)))
        # rasterize: mass kept, one cell per distinct floor index
        spacing = np.array([delta, delta, delta * delta])
        origin = np.floor(c.min(axis=0) / spacing) * spacing
        cells, inv = np.unique(np.floor((c - origin) / spacing)
                               .astype(np.int64), axis=0, return_inverse=True)
        g = summaries.get("rasterize") or {}
        if (g.get("occupied") != len(cells)
                or not close(g.get("total_mass", 0.0), 1.0, 1e-9)):
            p["rasterize"].append("grid %r, expected %d cells of mass 1"
                                  % (g, len(cells)))
        # delta_measure_report: density / (mu(B(x, delta)) / |B(delta)|)
        dens = np.bincount(inv.ravel(), minlength=len(cells)) * w \
            / float(np.prod(spacing))
        centers = origin + (cells + 0.5) * spacing
        cd = gauge_dist(centers[:, None, :], centers[None, :, :])
        ball = math.pi ** 2 / 8 * delta ** 4
        ratio = dens / (((cd <= delta) * dens[None, :]).sum(axis=1)
                        * float(np.prod(spacing)) / ball)
        dm = summaries.get("delta_measure_report") or {}
        if dm.get("cells") != len(cells) or not close(
                dm.get("max_ratio", 0.0), float(ratio.max()), 1e-9):
            p["delta_measure_report"].append(
                "report %r, cells give max_ratio %r over %d cells"
                % (dm, float(ratio.max()), len(cells)))
        # directional_l2_vs_xray: both sides positive, ratio their quotient
        lr = summaries.get("directional_l2_vs_xray") or {}
        left, right = lr.get("left", 0.0), lr.get("right", 0.0)
        if not (left > 0 and right > 0
                and close(lr.get("ratio", 0.0), left / right)):
            p["directional_l2_vs_xray"].append("values %r" % (lr,))
        # graph_overlap_integral: every slab |y - f_p| <= delta covers at
        # least 3 cells of side delta/2 per column, and counts^1.5 >= counts
        h = delta / 2.0
        ncol = int(np.ceil(2.0 * np.pi / h))
        goi = summaries.get("graph_overlap_integral")
        if not (isinstance(goi, float) and math.isfinite(goi)
                and goi >= n * ncol * 3 * h * h):
            p["graph_overlap_integral"].append(
                "integral %r below the bound %r" % (goi, n * ncol * 3 * h * h))
        return p


def read_manifest(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ", 4)
            out[parts[0]] = float(parts[1])
    return out


class Constants(Workload):
    name = "constants"

    def ops(self, seed):
        return [
            cli_op("constants",
                   ["constants", "--seed", str(seed),
                    "--balls", str(self.sz["balls"]),
                    "--pairs", str(self.sz["pairs"]),
                    "--out", "out/manifest.txt"], ["out/manifest.txt"]),
        ]

    def check(self, seed, d, summaries, fixture=None):
        probs = []
        got = read_manifest(os.path.join(d, "out/manifest.txt"))
        if fixture is None:
            fixture = os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "tests", "fixtures",
                "constants_manifest.txt")
        ref = read_manifest(fixture)
        if set(got) != set(ref):
            probs.append("manifest names %s" % sorted(set(got) ^ set(ref)))
        if got.get("dual_ray_inclusion_rate") != 1.0:
            probs.append("dual_ray_inclusion_rate %r"
                         % got.get("dual_ray_inclusion_rate"))
        # rejection MC with box volume 2 and hit rate V1/2: 5 standard errors
        v1, n = math.pi ** 2 / 8, 1_000_000
        se = 2.0 * math.sqrt(v1 / 2 * (1 - v1 / 2) / n)
        if abs(got.get("ball_volume_mc", 0.0) - v1) > 5 * se:
            probs.append("ball_volume_mc %r, closed form %r"
                         % (got.get("ball_volume_mc"), v1))
        # the default-size derivation at seed 0 is the checked-in manifest
        path = os.path.join(d, "out/check_manifest.txt")
        with open(os.devnull, "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(["constants", "--seed", "0", "--out", path])
        seed0 = read_manifest(path) if code == 0 else {}
        for name, value in ref.items():
            if name not in seed0 or not (
                    abs(seed0[name] - value) <= 1e-15
                    or close(seed0[name], value)):
                probs.append("seed-0 %s %r, manifest %r"
                             % (name, seed0.get(name), value))
        return {"constants": probs}


WORKLOADS = {w.name: w for w in (PlateEnergy, ProjectionScan, MeasureAudit,
                                 Constants)}
