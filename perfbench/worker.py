"""Repetitions of a workload after one set-up.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --seconds S

Runs in its own directory with heislab's `src` on PYTHONPATH.  Imports
heislab and writes the inputs (set-up), then forks one child per
repetition of the workload's operations, one after the other, until the
next repetition would end more than S seconds after set-up (at least
one).  Prints nothing and writes `result.json`: when set-up ended, the
peak resident memory of set-up, and per repetition the wall and CPU time
of every operation, a digest of every operation's outputs, the child's
peak resident memory, the host-speed probe's samples (untraced
repetitions) or, when traced, the span self times and counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import threading
import time
import traceback

import numpy as np

import spans
import workloads

PROBE_PERIOD_S = 0.02
PROBE_VECTOR = np.linspace(0.0, 1.0, 8)


def probe_kernel():
    """A fixed ~0.2 ms of small numpy calls that shares nothing with heislab."""
    a = PROBE_VECTOR
    for _ in range(60):
        a = np.sqrt(a * a + 1.0) - 0.5
    return a


class Probe:
    """Samples the host's speed while the operations run.

    The host is shared: its speed swings by up to 2x within seconds and
    CPU time swings with it, so a run's wall time says as much about the
    host as about heislab.  Every PROBE_PERIOD_S of wall time a SIGALRM
    handler times `probe_kernel`; `run.py` scales the run's wall time by
    how long the kernel took.  The kernel's time is kept out of the
    operations' times (`total`).
    """

    def __init__(self):
        self.samples = []
        self.total = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def digest(op, exit_code, summary):
    h = hashlib.sha256(json.dumps([exit_code, summary], sort_keys=True)
                       .encode())
    for path in op.files:
        h.update(path.encode())
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def peak_rss_kb():
    """High-water resident memory of this process image.

    ru_maxrss is not used: after fork and exec it keeps the parent's
    high-water mark when that was larger, while VmHWM belongs to the
    image exec created.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def repetition(ops, tracer, traced):
    """Every operation once, timed, then its outputs summarised.

    Untraced, the host-speed probe runs alongside; traced, it does not,
    so that span self times add up to the operations' times.
    """
    records, values = [], []
    probe = Probe()
    if not traced:
        probe.start()
    for op in ops:
        err = None
        value = None
        p0 = probe.total
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced:
                value = tracer.call(spans.ROOT, op.run)
            else:
                value = op.run()
        except Exception:  # an operation that raises is a failure
            err = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        c1 = time.process_time()
        p = probe.total - p0
        records.append({"name": op.name, "seconds": t1 - t0 - p,
                        "cpu_s": c1 - c0 - p, "error": err})
        values.append(value)
    probe.stop()
    rep = {"ops": records, "probe_s": probe.samples}
    if traced:
        rep["spans"] = {name: list(v)
                        for name, v in spans.self_times(tracer.spans).items()}
        rep["counts"] = dict(tracer.counts)
        tracer.uninstall()
    for op, rec, value in zip(ops, records, values):
        exit_code = value if op.expect_exit is not None else None
        try:
            summary = None if rec["error"] else op.summary(value)
        except Exception:
            summary = None
            rec["error"] = traceback.format_exc(limit=4)
        rec.update(exit=exit_code, expect_exit=op.expect_exit,
                   summary=summary, digest=digest(op, exit_code, summary))
    return rep


def forked_repetition(ops, traced):
    """One repetition in a child forked from the set-up process.

    Every repetition starts from the state set-up left, as a fresh
    `heislab` command would, so nothing one repetition caches in memory
    reaches the next.  Returns the repetition's record, or None when the
    child died.
    """
    if threading.active_count() > 1:
        # a fork copies only the calling thread; locks others hold stay held
        raise RuntimeError("set-up left threads running; cannot fork")
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            tracer = spans.Tracer()
            if traced:
                tracer.install()
            rep = repetition(ops, tracer, traced)
            rep["peak_rss_mb"] = peak_rss_kb() / 1024.0
            with os.fdopen(wfd, "w") as fh:
                json.dump(rep, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return None
    return json.loads(data)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    ready = time.perf_counter()
    setup_rss_mb = peak_rss_kb() / 1024.0

    ops = wl.ops(args.seed)
    reps = []
    while True:
        t0 = time.perf_counter()
        reps.append(forked_repetition(ops, bool(args.trace)))
        t1 = time.perf_counter()
        # stop before a repetition that would end after the budget
        if t1 + (t1 - t0) - ready > args.seconds:
            break

    out = {"ready": ready, "trace": bool(args.trace), "reps": reps,
           "setup_rss_mb": setup_rss_mb}
    with open("result.json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    code = main()
    # skip interpreter teardown: it is not the workload's time, and the
    # next process waits for it
    os._exit(code)
