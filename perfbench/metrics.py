"""The benchmark's metrics: name, unit, which way is better, layer, and
the pre-registered prediction of what each one moves.

`BENCHMARK.json` at the repository root lists the same names and units;
`tests/test_bench.py` keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = {
    "plate-energy": (
        "heislab experiment plate-energy on a random3 family at delta 2^-4: "
        "about 3/4 count_memberships, 1/4 dense heis_dist in validate and "
        "verify; projection work should not move it"),
    "projection-scan": (
        "best-direction and rho-dim on a vertical-plane slab coset at delta "
        "2^-5: Halton clouds, group_mul, pi_e, pixel keys and np.unique; "
        "no plates, sampled validate"),
    "measure-audit": (
        "gen + exact verify of a random3 family at delta 0.075, then "
        "measures, duality and cinematic library calls: dense O(n^2) "
        "heis_dist blocks are half its time and set its peak memory"),
    "constants": (
        "heislab constants with raised --balls/--pairs: thousands of "
        "one-point calls into core, the scalar plates API and sampling, so "
        "per-call overhead shows here"),
}

# (name, unit, better, bound)
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, which end-to-end metric it should move, and where)
PER_LAYER = [
    ("core.heis_dist.self_s", "s", "lower",
     "wall_s and peak_rss_mb on measure-audit; a quarter of plate-energy"),
    ("core.heis_dist.pairs", "count", "lower",
     "wall_s and peak_rss_mb on measure-audit; a quarter of plate-energy"),
    ("core.group_mul.self_s", "s", "lower", "wall_s on projection-scan"),
    ("core.group_mul.points", "count", "lower", "wall_s on projection-scan"),
    ("core.gauge_norm.self_s", "s", "lower", "wall_s on constants"),
    ("sampling.unit_ball_points.self_s", "s", "lower",
     "wall_s on constants and projection-scan"),
    ("sampling.uniform_ball_points.self_s", "s", "lower",
     "wall_s on constants"),
    ("sampling.monte_carlo_ball_volume.self_s", "s", "lower",
     "wall_s on constants"),
    ("projections.pi_e.self_s", "s", "lower",
     "wall_s and peak_rss_mb on projection-scan"),
    ("projections.pi_e.points", "count", "lower",
     "wall_s and peak_rss_mb on projection-scan"),
    ("projections.pixel_keys.self_s", "s", "lower",
     "wall_s on projection-scan"),
    ("projections.rho_e.self_s", "s", "lower", "wall_s on projection-scan"),
    ("plates.count_memberships.self_s", "s", "lower",
     "wall_s on plate-energy"),
    ("plates.count_memberships.pairs", "count", "lower",
     "wall_s on plate-energy (brute-force base, points x plates)"),
    ("plates.count_memberships.hits", "count", "higher",
     "nothing: the sum of counts must stay identical"),
    ("plates.count_memberships.hits_per_s", "1/s", "higher",
     "wall_s on plate-energy"),
    ("plates.scalar.calls", "count", "lower", "wall_s on constants"),
    ("plates.scalar.self_s", "s", "lower", "wall_s on constants"),
    ("delta_sets.validate.self_s", "s", "lower",
     "wall_s and peak_rss_mb on measure-audit"),
    ("delta_sets.validate.exact", "count", "higher",
     "nothing on time: calls that checked every pair"),
    ("delta_sets.validate.sampled", "count", "lower",
     "nothing on time: calls that checked a random pair sample"),
    ("delta_sets.verify_delta_t_set.self_s", "s", "lower",
     "wall_s on measure-audit and plate-energy"),
    ("delta_sets.verify_delta_t_set.centers_tested", "count", "higher",
     "nothing on time: test centers per verify call"),
    ("delta_sets.covering_number.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("delta_sets.write_family.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("delta_sets.read_family.self_s", "s", "lower",
     "wall_s on every workload that reads a family file"),
    ("delta_sets.family_file.bytes", "bytes", "lower",
     "nothing: family files must stay byte-identical"),
    ("measures.riesz_energy.self_s", "s", "lower", "wall_s on measure-audit"),
    ("measures.ball_masses.self_s", "s", "lower", "wall_s on measure-audit"),
    ("measures.rasterize.self_s", "s", "lower", "wall_s on measure-audit"),
    ("measures.delta_measure_report.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("duality.xray_transform.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("duality.xray_transform.calls", "count", "lower",
     "wall_s on measure-audit"),
    ("cinematic.graph_overlap_integral.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("cinematic.f_eval.calls", "count", "lower", "wall_s on measure-audit"),
    ("experiments.projection_area.self_s", "s", "lower",
     "wall_s on projection-scan (the concatenate/unique part)"),
    ("experiments.projection_area.calls", "count", "lower",
     "wall_s on projection-scan"),
    ("experiments.plate_l2_energy.self_s", "s", "lower",
     "wall_s on plate-energy"),
    ("experiments.family_regularity_constant.self_s", "s", "lower",
     "wall_s on plate-energy"),
    ("experiments.rho_dimension.self_s", "s", "lower",
     "wall_s on projection-scan"),
    ("experiments.directional_l2_vs_xray.self_s", "s", "lower",
     "wall_s on measure-audit"),
    ("experiments.derive_constants.self_s", "s", "lower",
     "wall_s on constants"),
    ("reports.write.self_s", "s", "lower",
     "nothing: under 1% everywhere; guards byte-identical reports"),
    ("reports.write.bytes", "bytes", "lower",
     "nothing: reports must stay byte-identical"),
    ("cli.main.self_s", "s", "lower", "wall_s on every workload"),
    ("bench.unwrapped.self_s", "s", "lower",
     "time in heislab code outside every wrapped function"),
    ("process.cpu_s", "s", "lower",
     "nothing by itself: more cores may raise it while wall_s falls"),
    ("process.cpu_util", "ratio", "higher",
     "wall_s of a parallel change; at most the core count"),
    ("trace.overhead_s", "s", "lower",
     "nothing: traced minus untraced wall_s"),
    ("trace.self_sum_ratio", "ratio", "higher",
     "nothing: sum of span self times over traced wall_s, must be 1 +- 5%"),
    ("host.speed", "ratio", "higher",
     "nothing: the host's speed during the run, relative to the reference "
     "host; wall_s and setup_s are scaled by it"),
    ("host.wall_raw_s", "s", "lower",
     "nothing by itself: wall_s before scaling by host.speed"),
]
