"""Spans and counters taken from outside heislab by wrapping its functions.

`Tracer.install()` replaces each target function, every alias of it that
another heislab module imported with `from .x import f`, and the target
methods of `BallFamily`, `ModifiedPlate`, `Plate` and `ExperimentReport`,
with a wrapper that records a span (name, parent, start, end) and adds
counts taken from the argument and return sizes.  Spans stay in memory;
the worker writes them out when its operations end.  `uninstall()` puts
every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter


def _size(key):
    def count(counts, args, out):
        counts[key] += int(getattr(out, "size", 0))
    return count


def _rows(key, width):
    def count(counts, args, out):
        counts[key] += int(getattr(out, "size", 0)) // width
    return count


def _family_bytes(counts, args, out):
    counts["delta_sets.family_file.bytes"] += os.path.getsize(args["path"])


def _report_bytes(counts, args, out):
    counts["reports.write.bytes"] += os.path.getsize(args["path"])


def _count_memberships(counts, args, out):
    counts["plates.count_memberships.pairs"] += len(args["u"]) * len(out)
    counts["plates.count_memberships.hits"] += int(out.sum())


def _validate_path(counts, args, out):
    exact = len(args["self"]) <= args["max_pairs"]
    counts["delta_sets.validate.exact" if exact
           else "delta_sets.validate.sampled"] += 1


def _centers_tested(counts, args, out):
    counts["delta_sets.verify_delta_t_set.centers_tested"] += min(
        len(args["family"]), args["max_centers"])


# (span name, module, attribute or Class.method, count function or None)
TARGETS = [
    ("core.heis_dist", "heislab.core", "heis_dist",
     _size("core.heis_dist.pairs")),
    ("core.group_mul", "heislab.core", "group_mul",
     _rows("core.group_mul.points", 3)),
    ("core.gauge_norm", "heislab.core", "gauge_norm", None),
    ("sampling.unit_ball_points", "heislab.sampling", "unit_ball_points",
     None),
    ("sampling.uniform_ball_points", "heislab.sampling",
     "uniform_ball_points", None),
    ("sampling.monte_carlo_ball_volume", "heislab.sampling",
     "monte_carlo_ball_volume", None),
    ("projections.pi_e", "heislab.projections", "pi_e",
     _rows("projections.pi_e.points", 2)),
    ("projections.pixel_keys", "heislab.projections", "pixel_keys", None),
    ("projections.rho_e", "heislab.projections", "rho_e", None),
    ("plates.count_memberships", "heislab.plates", "count_memberships",
     _count_memberships),
    ("plates.scalar", "heislab.plates", "ModifiedPlate.contains", None),
    ("plates.scalar", "heislab.plates", "ModifiedPlate.contains_ray", None),
    ("plates.scalar", "heislab.plates", "ModifiedPlate.sample", None),
    ("plates.scalar", "heislab.plates", "ModifiedPlate.sample_ray", None),
    ("plates.scalar", "heislab.plates", "Plate.contains", None),
    ("plates.scalar", "heislab.plates", "ball_to_modified_plate", None),
    ("plates.scalar", "heislab.plates", "same_direction_separation", None),
    ("plates.scalar", "heislab.plates", "center_decomposition", None),
    ("plates.scalar", "heislab.plates", "compose_center", None),
    ("delta_sets.validate", "heislab.delta_sets", "BallFamily.validate",
     _validate_path),
    ("delta_sets.verify_delta_t_set", "heislab.delta_sets",
     "verify_delta_t_set", _centers_tested),
    ("delta_sets.covering_number", "heislab.delta_sets", "covering_number",
     None),
    ("delta_sets.write_family", "heislab.delta_sets", "write_family",
     _family_bytes),
    ("delta_sets.read_family", "heislab.delta_sets", "read_family",
     _family_bytes),
    ("measures.riesz_energy", "heislab.measures", "riesz_energy", None),
    ("measures.ball_masses", "heislab.measures", "ball_masses", None),
    ("measures.rasterize", "heislab.measures", "rasterize", None),
    ("measures.delta_measure_report", "heislab.measures",
     "delta_measure_report", None),
    ("duality.xray_transform", "heislab.duality", "xray_transform", None),
    ("cinematic.graph_overlap_integral", "heislab.cinematic",
     "graph_overlap_integral", None),
    ("cinematic.f_eval", "heislab.cinematic", "f_eval", None),
    ("experiments.projection_area", "heislab.experiments", "projection_area",
     None),
    ("experiments.plate_l2_energy", "heislab.experiments", "plate_l2_energy",
     None),
    ("experiments.family_regularity_constant", "heislab.experiments",
     "family_regularity_constant", None),
    ("experiments.rho_dimension", "heislab.experiments", "rho_dimension",
     None),
    ("experiments.directional_l2_vs_xray", "heislab.experiments",
     "directional_l2_vs_xray", None),
    ("experiments.derive_constants", "heislab.experiments",
     "derive_constants", None),
    ("reports.write", "heislab.reports", "ExperimentReport.write_json",
     _report_bytes),
    ("reports.write", "heislab.reports", "ExperimentReport.write_csv",
     _report_bytes),
    ("reports.write", "heislab.reports", "ExperimentReport.write_svg",
     _report_bytes),
    ("reports.write", "heislab.reports", "write_manifest", _report_bytes),
    ("cli.main", "heislab.cli", "main", None),
]

# Span around each whole operation; its self time is heislab time spent
# outside every wrapped function.
ROOT = "bench.unwrapped"


class Tracer:
    """In-memory span recorder that patches heislab while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _enter(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        rec = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(rec)

    def wrap(self, name, fn, count=None):
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    count(self.counts, bound.arguments, out)
                except (KeyError, TypeError, OSError):
                    # a changed signature loses the count, not the call
                    pass
            return out
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        heis_modules = [m for k, m in sorted(sys.modules.items())
                        if m is not None
                        and (k == "heislab" or k.startswith("heislab."))]
        # a target the program no longer has is skipped; its metrics read 0
        for name, modname, attr, count in self.targets:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if cls else None
                if original is not None:
                    self._patch(cls, meth, original,
                                self.wrap(name, original, count))
                continue
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for m in heis_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans):
    """Per span name: (total self time, number of spans).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end) in enumerate(spans):
        total, n = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[i], n + 1)
    return out
