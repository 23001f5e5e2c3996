"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    recs = [["root", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0],
            ["b", 1, 2.0, 3.0], ["c", 0, 5.0, 6.0], ["a", 0, 7.0, 7.5]]
    out = spans.self_times(recs)
    assert out["root"] == (pytest.approx(5.5), 1)
    assert out["a"] == (pytest.approx(2.5), 2)
    assert out["b"] == (pytest.approx(1.0), 1)
    assert out["c"] == (pytest.approx(1.0), 1)
    assert sum(s for s, _ in out.values()) == pytest.approx(10.0)


def test_tracer_spans_sum_to_the_root():
    tr = spans.Tracer(targets=[])
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    tr.call("root", outer)
    out = spans.self_times(tr.spans)
    assert out["inner"][1] == 3 and out["outer"][1] == 1
    name, parent, start, end = tr.spans[0]
    assert name == "root" and parent == -1
    assert sum(s for s, _ in out.values()) == pytest.approx(end - start)


def _aliases():
    """Every (owner, attribute) -> object the tracer may replace."""
    import heislab  # noqa: F401
    import importlib
    found = {}
    mods = [m for k, m in sys.modules.items()
            if m is not None and (k == "heislab" or k.startswith("heislab."))]
    for _, modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            found[(cls, meth)] = cls.__dict__[meth]
            continue
        original = getattr(mod, attr)
        for m in mods:
            for key, value in vars(m).items():
                if value is original:
                    found[(m, key)] = original
    return found


def test_tracer_wraps_aliases_and_puts_originals_back():
    import numpy as np
    from heislab import delta_sets
    before = _aliases()
    # the `from .core import heis_dist` alias in delta_sets is among them
    assert (delta_sets, "heis_dist") in before
    tr = spans.Tracer()
    tr.install()
    try:
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, (owner, attr)
        pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        assert delta_sets.covering_number(pts, 0.1) == 3
    finally:
        tr.uninstall()
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, (owner, attr)
    names = {s[0] for s in tr.spans}
    assert {"delta_sets.covering_number", "core.heis_dist"} <= names
    assert tr.counts["core.heis_dist.pairs"] == 1 + 2


def test_metric_names_and_benchmark_json():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [m[:3] for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(metrics.WORKLOADS)
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


TINY = {
    "plate-energy": {"delta": 2.0 ** -3, "samples": 3000, "brute": 300},
    "projection-scan": {"delta": 2.0 ** -4, "directions": 4,
                        "points_per_ball": 100, "rho_directions": 8},
    "measure-audit": {"delta": 0.125, "max_centers": 4096},
    "constants": {"balls": 10, "pairs": 100},
}


def run_tiny(name, seed, d):
    """One untimed repetition in-process: (workload, op summaries)."""
    wl = workloads.WORKLOADS[name](TINY[name])
    cwd = os.getcwd()
    os.chdir(d)
    try:
        wl.prepare(seed)
        summaries = {}
        for op in wl.ops(seed):
            value = op.run()
            assert op.expect_exit is None or value == op.expect_exit
            summaries[op.name] = op.summary(value)
    finally:
        os.chdir(cwd)
    return wl, summaries


def edit_json(path, fn):
    with open(path) as fh:
        data = json.load(fh)
    fn(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def failing(found):
    return sorted(k for k, v in found.items() if v)


def test_plate_energy_check_catches_a_count_off_by_one(tmp_path):
    wl, summ = run_tiny("plate-energy", 3, tmp_path)
    assert failing(wl.check(3, tmp_path, summ)) == []
    edit_json(tmp_path / "out/plate_energy.json",
              lambda r: r["scalars"].update(
                  max_count=r["scalars"]["max_count"] + 1))
    assert failing(wl.check(3, tmp_path, summ)) == ["plate-energy"]


def test_plate_energy_check_catches_a_wrong_fast_count(tmp_path, monkeypatch):
    wl, summ = run_tiny("plate-energy", 3, tmp_path)
    real = workloads.plates.count_memberships

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        out[::10] += 1
        return out
    monkeypatch.setattr(workloads.plates, "count_memberships", off_by_one)
    probs = wl.check(3, tmp_path, summ)["plate-energy"]
    assert any("brute force" in p for p in probs)


def test_projection_scan_check_catches_corrupted_outputs(tmp_path):
    wl, summ = run_tiny("projection-scan", 4, tmp_path)
    assert failing(wl.check(4, tmp_path, summ)) == []
    edit_json(tmp_path / "out/best_direction.json",
              lambda r: r["series"]["area"].__setitem__(
                  1, r["series"]["area"][1] * 1.05))
    edit_json(tmp_path / "out/rho_dimension.json",
              lambda r: r["series"]["sqrt_slope"].__setitem__(
                  0, r["series"]["sqrt_slope"][0] + 1e-6))
    assert failing(wl.check(4, tmp_path, summ)) == ["best-direction",
                                                    "rho-dim"]


def test_measure_audit_check_catches_corrupted_outputs(tmp_path):
    wl, summ = run_tiny("measure-audit", 5, tmp_path)
    assert failing(wl.check(5, tmp_path, summ)) == []
    bad = dict(summ, covering_number=summ["covering_number"] + 1,
               riesz_energy=summ["riesz_energy"] * (1 + 1e-6))
    bad["layer_decomposition"] = summ["layer_decomposition"][1:]
    edit_json(tmp_path / "out/verify.stdout",
              lambda r: r.update(max_ratio=r["max_ratio"] * 0.99))
    assert failing(wl.check(5, tmp_path, bad)) == [
        "covering_number", "layer_decomposition", "riesz_energy", "verify"]


def test_constants_check_catches_corrupted_outputs(tmp_path):
    wl, summ = run_tiny("constants", 6, tmp_path)
    assert failing(wl.check(6, tmp_path, summ)) == []
    path = tmp_path / "out/manifest.txt"
    text = path.read_text()
    path.write_text(text.replace("dual_ray_inclusion_rate 1 ",
                                 "dual_ray_inclusion_rate 0.999 "))
    assert failing(wl.check(6, tmp_path, summ)) == ["constants"]
    # the seed-0 derivation must match the checked-in manifest exactly
    path.write_text(text)
    fixture = os.path.join(ROOT, "tests", "fixtures",
                           "constants_manifest.txt")
    lines = open(fixture).read().splitlines()
    name, value, rest = lines[0].split(" ", 2)
    lines[0] = "%s %.17g %s" % (name, float(value) * (1 + 1e-9), rest)
    bad = tmp_path / "fixture.txt"
    bad.write_text("\n".join(lines) + "\n")
    probs = wl.check(6, tmp_path, summ, fixture=str(bad))["constants"]
    assert probs and all(p.startswith("seed-0 " + name) for p in probs)


class _NoCheck:
    def check(self, seed, d, summaries):
        return {}


def test_outputs_that_differ_between_repetitions_count_as_failures():
    def rep(digest, exit_code=0):
        return {"ops": [
            {"name": "a", "error": None, "expect_exit": 0, "exit": exit_code,
             "summary": None, "digest": digest, "seconds": 1.0}]}
    procs = [(1.0, {"trace": False, "reps": [rep("x"), rep("x")]}),
             (1.0, {"trace": False, "reps": [rep("y")]}),
             (1.0, {"trace": True, "reps": [rep("x", exit_code=2)]}),
             (None, None)]
    attempted, failed, _ = run.count_failures(_NoCheck(), 0, procs, "", 1)
    assert (attempted, failed) == (5, 3)


def test_probe_samples_untraced_repetitions_outside_the_op_times():
    import signal
    import time

    def spin():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    ops = [workloads.Op("spin", spin)]
    rep = worker.repetition(ops, spans.Tracer(targets=[]), traced=False)
    assert len(rep["probe_s"]) >= 5
    assert rep["ops"][0]["seconds"] == pytest.approx(
        0.2 - sum(rep["probe_s"]), abs=0.01)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    tr = spans.Tracer(targets=[])
    tr.install()
    assert worker.repetition(ops, tr, traced=True)["probe_s"] == []


def test_host_speed_scales_to_the_reference_and_drops_stalled_samples():
    fast = [{"probe_s": [run.PROBE_REF_S / 2] * 9 + [1.0]}]
    assert run.host_speed(fast) == pytest.approx(2.0)
    slow = [{"probe_s": [run.PROBE_REF_S * 1.5]}, {"probe_s": []}]
    assert run.host_speed(slow) == pytest.approx(1 / 1.5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constants",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
