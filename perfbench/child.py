"""One workload in one process: set up, warm up, then time trials.

Started by run.py with sepmix's sources on PYTHONPATH and the BLAS thread
count fixed in the environment.  Writes a JSON report to ``--report``.

Set-up builds the workload's fixed inputs and runs one untimed warm-up trial
on the first of them.  A ``--setup-only`` child stops there.  Otherwise
trials 0, 1, ... follow back to back (a closed loop with one client) in
rounds that each run every input once, until ``--seconds`` have passed.
Whole rounds keep a workload with several inputs balanced.  Each trial is
timed from the call into the workload to its return; its output is checked
after that, so checking costs no trial time.  With ``--trace 1`` every other
round runs with the layer functions rebound and tracemalloc on, and there is
at least one round of each kind; the untraced rounds give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

import sepmix
import spans
import workloads
from sepmix.errors import DiagnosticWarning, SampleBalanceWarning


def blas_info() -> dict:
    """BLAS library, version and the thread count it reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


# glibc's malloc_trim hands freed heap pages back to the system.  Called
# before each trial, it keeps the heap fragmentation that earlier trials leave
# behind out of ru_maxrss, so peak_rss_mb reads a trial's own peak plus a
# steady base rather than a value that drifts with the number of trials.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def run_trial(wl, inp, tracer: spans.Tracer | None):
    """Run one trial and check it; returns (seconds, Outcome)."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)
    try:
        with contextlib.nullcontext() if tracer is None else spans.Rebinding(tracer):
            start = time.perf_counter()
            out = wl.run(inp)
            seconds = time.perf_counter() - start
    except Exception as exc:  # a failed trial is counted, not fatal
        return None, workloads.Outcome(False, f"{type(exc).__name__}: {exc}")
    try:
        return seconds, wl.check(inp, out)
    except Exception:
        return None, workloads.Outcome(
            False, "check raised: " + traceback.format_exc(limit=3).strip()
        )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--report", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    warnings.simplefilter("ignore", DiagnosticWarning)
    warnings.simplefilter("ignore", SampleBalanceWarning)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    inputs = wl.inputs()
    # (trial, input, traced, seconds or None, outcome); the warm-up is trial -1.
    trials = [(-1, 0, False, *run_trial(wl, inputs[0], None))]
    ready = time.monotonic()

    tracer = spans.Tracer()
    if not args.setup_only:
        j, rounds = 0, 0
        loop_start = time.monotonic()
        while True:
            traced = args.trace == 1 and rounds % 2 == 0
            for i, inp in enumerate(inputs):
                if traced:
                    tracer.trial = j
                trials.append((j, i, traced, *run_trial(wl, inp, tracer if traced else None)))
                j += 1
            rounds += 1
            if rounds >= 1 + args.trace and time.monotonic() - loop_start >= args.seconds:
                break

    failures = [
        {"trial": j, "input": i, "seed": workloads.input_seed(args.seed, i), "error": o.reason}
        for j, i, _, _, o in trials
        if not o.ok
    ]
    first_round = [o for j, _, _, _, o in trials if 0 <= j < len(inputs)]
    digest = None
    if len(first_round) == len(inputs) and all(o.ok for o in first_round):
        digest = workloads.digest_of(*(o.digest for o in first_round))
    timed = [(traced, t) for j, _, traced, t, o in trials if j >= 0 and o.ok]
    report = {
        "ready": ready,
        "sepmix": sepmix.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "blas": blas_info(),
        "inputs": len(inputs),
        "attempted": len(trials),
        "failures": failures,
        "untraced_s": [t for traced, t in timed if not traced],
        "traced_s": [t for traced, t in timed if traced],
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
        "size": wl.size,
    }
    if args.trace and not args.setup_only:
        ratios = [o.objective_ratio for *_, o in trials if o.objective_ratio is not None]
        traced_trials = sum(1 for _, _, traced, _, _ in trials if traced)
        report["layers"] = spans.layer_metrics(tracer.spans, traced_trials)
        report["layers"]["kmedian.objective_ratio"] = max(ratios, default=0.0)
        if report["traced_s"] and report["untraced_s"]:
            overhead = statistics.median(report["traced_s"]) - statistics.median(
                report["untraced_s"]
            )
        else:  # every traced or every untraced trial failed
            overhead = 0.0
        report["layers"]["trace.overhead_s"] = overhead
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.dump()) + "\n")
    args.report.write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
