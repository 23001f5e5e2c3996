"""Command line front end: gen | verify | experiment | constants.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an array too large to allocate included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import delta_sets, experiments
from .reports import ExperimentReport, manifest_text, write_manifest


def _family(args):
    """The validated, nonempty family from --input or the family flags."""
    given = [f for f in ("kind", "delta", "s", "dim0")
             if getattr(args, f, None) is not None]
    if getattr(args, "input", None):
        if given:
            raise ValueError("--%s cannot be combined with --input"
                             % given[0])
        fam = delta_sets.read_family(args.input)
    elif args.delta is None:
        raise ValueError("either --input or --kind/--delta is required")
    else:
        params = {f: getattr(args, f) for f in ("s", "dim0")
                  if getattr(args, f) is not None}
        fam = delta_sets.generate(args.kind or "heis-lattice", args.delta,
                                  seed=args.seed, **params)
    fam.validate()
    if len(fam) == 0:
        raise ValueError("empty family")
    return fam


# the count flags each experiment reads, with their least values
_COUNT_FLAGS = {"best-direction": {"directions": 1, "points_per_ball": 1},
                "plate-energy": {"samples": 1}, "rho-dim": {"directions": 1}}


def _at_least(args, **least):
    """Raise ValueError naming the first flag below its least value."""
    for name, low in least.items():
        if getattr(args, name) < low:
            raise ValueError("--%s must be at least %d"
                             % (name.replace("_", "-"), low))


def cmd_gen(args):
    fam = _family(args)
    delta_sets.write_family(args.out, fam)
    print("wrote %d balls (delta=%g, t=%g, C=%g) to %s"
          % (len(fam), fam.delta, fam.claimed_t, fam.claimed_C, args.out))
    return 0


def cmd_verify(args):
    fam = _family(args)
    report = delta_sets.verify_delta_t_set(fam, max_centers=args.max_centers,
                                           seed=args.seed)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if report["passes"] else 1


def _write_reports(report, out_dir, x_key):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.name)
    report.write_json(base + ".json")
    report.write_csv(base + ".csv")
    report.write_svg(base + ".svg", x_key)
    print("wrote %s.{json,csv,svg}" % base)


def cmd_experiment(args):
    _at_least(args, **_COUNT_FLAGS[args.experiment])
    fam = _family(args)
    params = {
        "kind": fam.kind,
        "delta": fam.delta,
        "seed": args.seed,
    }
    if args.experiment == "best-direction":
        scan = experiments.best_direction_scan(fam,
                                               n_directions=args.directions)
        rep = ExperimentReport(
            "best_direction", params,
            {"best_theta": scan["best_theta"],
             "best_area": scan["best_area"]},
            {"theta": scan["thetas"], "area": scan["areas"]})
        _write_reports(rep, args.out_dir, "theta")
    elif args.experiment == "plate-energy":
        # the L^2 plate inequality holds for (delta, 3, C)-families
        report = delta_sets.verify_delta_t_set(fam, seed=args.seed)
        if fam.claimed_t != 3.0 or not report["passes"]:
            raise ValueError("plate energy requires a verified "
                             "(delta, 3, C) family")
        res = experiments.plate_l2_energy(fam, n_samples=args.samples,
                                          seed=args.seed)
        rep = ExperimentReport(
            "plate_energy", params,
            {k: res[k] for k in
             ("energy", "c38", "normalized", "mean_count", "max_count")},
            {"delta": [fam.delta], "normalized": [res["normalized"]]})
        _write_reports(rep, args.out_dir, "delta")
    elif args.experiment == "rho-dim":
        thetas = np.arange(args.directions) * np.pi / args.directions
        scales = [2.0 ** -k for k in range(3, 8)]
        res = experiments.rho_dimension(fam.centers, thetas, scales)
        rep = ExperimentReport(
            "rho_dimension", params,
            {"max_euclidean_slope": max(res["euclidean_slope"])},
            {"theta": res["thetas"],
             "euclidean_slope": res["euclidean_slope"],
             "sqrt_slope": res["sqrt_slope"]})
        _write_reports(rep, args.out_dir, "theta")
    return 0


def cmd_constants(args):
    _at_least(args, balls=1, pairs=0)
    entries = experiments.derive_constants(seed=args.seed,
                                           n_pairs=args.pairs)
    if args.out:
        write_manifest(args.out, entries)
        print("wrote %d constants to %s" % (len(entries), args.out))
    else:
        sys.stdout.write(manifest_text(entries))
    return 0


def _family_flags(p, delta_required):
    """The flags that name a generated family, shared by gen and experiment."""
    p.add_argument("--kind", choices=sorted(delta_sets._GENERATORS),
                   help="family kind (default heis-lattice)")
    p.add_argument("--delta", type=float, required=delta_required)
    p.add_argument("--s", type=float, help="dimension of t-axis")
    p.add_argument("--dim0", type=float, help="planar dimension of product")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    p = argparse.ArgumentParser(
        prog="heislab",
        description="numerical laboratory for vertical projections in the "
                    "first Heisenberg group")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a ball family file")
    _family_flags(g, delta_required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="verify a family file as a "
                                      "(delta, t, C)-set")
    v.add_argument("--input", required=True)
    v.add_argument("--max-centers", type=int, default=512)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("experiment", help="run an experiment and write "
                                          "json/csv/svg reports")
    e.add_argument("experiment", choices=sorted(_COUNT_FLAGS))
    _family_flags(e, delta_required=False)
    e.add_argument("--input", default=None)
    e.add_argument("--directions", type=int, default=64)
    # no effect since projected balls come from their closed form; kept,
    # and still checked, because the benchmark passes it
    e.add_argument("--points-per-ball", type=int, default=200)
    e.add_argument("--samples", type=int, default=200000)
    e.add_argument("--out-dir", default="reports")
    e.set_defaults(func=cmd_experiment)

    c = sub.add_parser("constants", help="re-derive the empirical "
                                         "constants manifest")
    c.add_argument("--seed", type=int, default=0)
    # no effect since the ball-plate entries are closed; kept, and still
    # checked, because the benchmark passes it
    c.add_argument("--balls", type=int, default=100)
    c.add_argument("--pairs", type=int, default=2000)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_constants)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _at_least(args, seed=0)  # every command takes --seed
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
