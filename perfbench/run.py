"""heislab benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, a table

A run starts fresh Python processes (`worker.py`) one after the other
until --seconds have passed.  Each pays interpreter start, `import
heislab` and input preparation (set-up) the way a `heislab` command
does, then repeats the workload's operations for up to PROCESS_SECONDS.
`wall_s` is the mean time of a repetition over the run and `setup_s` the
median set-up time over its processes, both in reference seconds: scaled
by how fast the host ran a fixed probe kernel during the repetitions
(see `host_speed`).  `peak_rss_mb` is a median over repetitions.  With
--trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 untraced and traced processes
alternate and it holds the per-layer metrics.  Outputs are checked after the timed repetitions:
every operation's outputs must be identical in every repetition of the
run (traced or not) and pass its workload's oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
WORKER_TIMEOUT_S = 120
MIN_PROCESSES = 3
PROCESS_SECONDS = 5.0
SELF_SUM_TOL = 0.05
# mean time of worker.probe_kernel on the reference host, a 2-vCPU Xeon VM
PROBE_REF_S = 2.0e-4
# a probe sample this many times the median waited for something else
PROBE_OUTLIER = 3.0


def spawn(workload, seed, trace, seconds, d):
    """Run one worker; returns (set-up seconds, result dict or None)."""
    os.makedirs(d)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--seconds", repr(seconds)]
    with open(os.path.join(d, "worker.log"), "w") as log:
        # perf_counter is CLOCK_MONOTONIC, shared with the child
        t0 = time.perf_counter()
        # its own process group, so that a kill reaches forked children
        proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    path = os.path.join(d, "result.json")
    if code != 0 or not os.path.exists(path):
        with open(os.path.join(d, "worker.log")) as fh:
            sys.stderr.write("worker %s exited %s:\n%s" % (d, code, fh.read()))
        return None, None
    with open(path) as fh:
        res = json.load(fh)
    return res["ready"] - t0, res


def run_processes(workload, seed, seconds, trace, base):
    """Worker processes until `seconds` have passed: (setup, result) pairs.

    Each process repeats the operations for about PROCESS_SECONDS after
    its set-up, and less when the run's time is nearly up.  Once
    MIN_PROCESSES have run, no process starts whose set-up and one
    repetition, as long as the last process's, would end after the run's
    time.
    """
    procs = []
    start = time.perf_counter()
    setup = rep = 0.0
    while (len(procs) < MIN_PROCESSES
           or time.perf_counter() - start + setup + rep < seconds):
        left = seconds - (time.perf_counter() - start) - setup
        budget = max(0.0, min(PROCESS_SECONDS, left))
        traced = bool(trace) and len(procs) % 2 == 1
        procs.append(spawn(workload, seed, traced, budget,
                           os.path.join(base, "p%d" % len(procs))))
        last = repetitions(procs[-1:])
        if last:
            setup = procs[-1][0]
            rep = statistics.fmean(rep_seconds(r) for r in last)
    return procs


def repetitions(procs):
    """Every finished repetition of every finished process, in run order."""
    return [rep for _, res in procs if res is not None
            for rep in res["reps"] if rep is not None]


def count_failures(wl, seed, procs, base, n_ops):
    """(attempted, failed, problems) over all operations of all repetitions.

    Every operation of a lost repetition counts as failed.
    """
    reps = repetitions(procs)
    # a process that did not finish counts as one lost repetition
    lost = sum(1 if res is None else res["reps"].count(None)
               for _, res in procs)
    attempted = n_ops * (len(reps) + lost)
    failed = n_ops * lost
    problems = []
    if not reps:
        return attempted, failed, ["no repetition finished"]
    # the outputs checked are those of the process that ran reps[0]
    ref_i = next(i for i, (_, res) in enumerate(procs)
                 if res is not None and any(res["reps"]))
    ref = reps[0]
    summaries = {r["name"]: r["summary"] for r in ref["ops"]}
    try:
        found = wl.check(seed, os.path.join(base, "p%d" % ref_i), summaries)
    except Exception as exc:  # a check that cannot run fails every op
        found = {r["name"]: ["check raised %r" % exc] for r in ref["ops"]}
    for name, probs in found.items():
        problems += ["%s: %s" % (name, p) for p in probs]
    for rep in reps:
        for r, r0 in zip(rep["ops"], ref["ops"]):
            bad = (r["error"] is not None
                   or (r["expect_exit"] is not None
                       and r["exit"] != r["expect_exit"])
                   or r["digest"] != r0["digest"]
                   or bool(found.get(r["name"])))
            failed += bad
            if r["error"]:
                problems.append("%s raised:\n%s" % (r["name"], r["error"]))
            elif (r["expect_exit"] is not None
                  and r["exit"] != r["expect_exit"]):
                problems.append("%s exited %r" % (r["name"], r["exit"]))
            elif r["digest"] != r0["digest"]:
                problems.append("%s: outputs differ between repetitions"
                                % r["name"])
    return attempted, failed, problems


def host_speed(reps):
    """PROBE_REF_S over the mean probe time during the repetitions.

    Above 1 the host ran faster than the reference host, below 1 slower;
    a time multiplied by it is in reference seconds.  Samples more than
    PROBE_OUTLIER times the median are left out: a sample that waited
    for another thread of the process (the GIL) did not measure the
    host's speed.
    """
    samples = [x for rep in reps for x in rep["probe_s"]]
    if not samples:
        raise RuntimeError("no host-speed probe sample in the run")
    cut = PROBE_OUTLIER * statistics.median(samples)
    return PROBE_REF_S / statistics.fmean(x for x in samples if x <= cut)


def rep_seconds(rep):
    """Wall time of one repetition: the sum over its operations."""
    return sum(r["seconds"] for r in rep["ops"])


def layer_values(rep):
    """Per-layer metrics of one traced repetition."""
    v = {}
    for name, (self_s, calls) in rep["spans"].items():
        v[name + ".self_s"] = self_s
        v[name + ".calls"] = calls
    v.update(rep["counts"])
    cm = rep["spans"].get("plates.count_memberships")
    if cm and cm[0] > 0:
        v["plates.count_memberships.hits_per_s"] = (
            rep["counts"].get("plates.count_memberships.hits", 0) / cm[0])
    v["trace.self_sum_ratio"] = (
        sum(s for s, _ in rep["spans"].values()) / rep_seconds(rep))
    return v


def run(workload, seed, seconds, trace):
    base = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    try:
        procs = run_processes(workload, seed, seconds, trace, base)
        # the checks import heislab here, after the timed repetitions
        sys.path.insert(0, SRC)
        import workloads
        wl = workloads.WORKLOADS[workload]()
        attempted, failed, problems = count_failures(
            wl, seed, procs, base, len(wl.ops(seed)))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run is still using it
            pass
    plain = [(s, r) for s, r in procs if r is not None and not r["trace"]]
    traced = [r for _, r in procs if r is not None and r["trace"]]
    if not plain or (trace and not traced):
        raise RuntimeError("no process of %s finished" % workload)
    plain_reps = repetitions(plain)
    wall = statistics.fmean(rep_seconds(r) for r in plain_reps)
    speed = host_speed(plain_reps)
    out = {}
    if not trace:
        out["wall_s"] = wall * speed
        # each process's set-up at the speed its own repetitions saw
        timed = [(s, repetitions([(s, r)])) for s, r in plain]
        out["setup_s"] = statistics.median(
            s * host_speed(reps) for s, reps in timed if reps)
        # set-up and one repetition, what one heislab command holds
        out["peak_rss_mb"] = statistics.median(
            max(res["setup_rss_mb"], rep["peak_rss_mb"])
            for _, res in plain for rep in res["reps"] if rep is not None)
        units = {n: u for n, u, _, _ in metrics.END_TO_END}
    else:
        traced_reps = repetitions([(None, r) for r in traced])
        per_rep = [layer_values(r) for r in traced_reps]
        for name, *_ in metrics.PER_LAYER:
            out[name] = statistics.median(v.get(name, 0) for v in per_rep)
        out["process.cpu_s"] = statistics.median(
            sum(r["cpu_s"] for r in rep["ops"]) for rep in plain_reps)
        out["process.cpu_util"] = statistics.median(
            sum(r["cpu_s"] for r in rep["ops"])
            / rep_seconds(rep) for rep in plain_reps)
        out["trace.overhead_s"] = statistics.fmean(
            rep_seconds(r) for r in traced_reps) - wall
        out["host.speed"] = speed
        out["host.wall_raw_s"] = wall
        ratio = out["trace.self_sum_ratio"]
        if abs(ratio - 1.0) > SELF_SUM_TOL:
            problems.append("span self times sum to %.4f of traced wall_s"
                            % ratio)
        units = {n: u for n, u, *_ in metrics.PER_LAYER}
    for p in problems:
        sys.stderr.write("problem: %s\n" % p)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in out.items()}}


def run_all(seed, seconds):
    """Every workload, untraced then traced; prints one table."""
    rows = []
    for name in metrics.WORKLOADS:
        for trace in (0, 1):
            res = run(name, seed, seconds, trace)
            if not trace:
                rows.append((name, "error_rate", res["failed"]
                             / res["attempted"], "ratio"))
                rows.append((name, "attempted", res["attempted"], "count"))
                rows.append((name, "failed", res["failed"], "count"))
            for k, m in res["metrics"].items():
                rows.append((name, k, m["value"], m["unit"]))
    for name, key, value, unit in rows:
        print("%-16s %-46s %16.6g %s" % (name, key, value, unit))
    return 0


def main(argv=None):
    # on SIGTERM, unwind so that every worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(metrics.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heislab", "__init__.py")):
        sys.stderr.write("heislab sources not found under %s\n" % SRC)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
