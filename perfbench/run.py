"""sepmix benchmark: seeded workloads, each in its own child process.

    python3 perfbench/run.py --workload planted_cli --seed 20260813 \\
        --seconds 15 --trace 0

These four options are the benchmark's interface: a benchmark runner passes
all of them.  ``--workload`` defaults to ``all``, which runs the four
workloads in turn; ``--seed`` defaults to the workload's acceptance master
seed; ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.  Every run
starts SETUPS child processes: each imports sepmix, builds its inputs and
runs one untimed warm-up trial; ``setup_s`` is the median of their set-up
times and the last one also runs the timed loop.  Every trial's output is
checked.

Each workload gets a human-readable report on stdout followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``, under the names BENCHMARK.json gives them.  The
last line of the output is therefore the last workload's result.  Full
records and span dumps go to ``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SETUPS = 3
BLAS_THREADS = 1  # one thread: steadier figures on a shared 2-core machine
TIME_LIMIT_S = 170.0
WORKLOADS = ("planted_cli", "concentric_peel", "spherical_fit", "validate_suites")
DEFAULT_SEEDS = {  # the acceptance criteria's master seeds
    "planted_cli": 20260813,
    "concentric_peel": 20260813,
    "spherical_fit": 606,
    "validate_suites": 413,
}


def tail(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten trials beyond it (nearest
    rank); the median when fewer than twenty trials leave none above p50."""
    n, s = len(times), sorted(times)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, s[rank - 1]
    return 50, statistics.median(s)


def l3_cache() -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def run_child(workload, seed, seconds, trace, setup_only, workdir, index, deadline):
    """Start one child and wait for it; returns its report and set-up time."""
    report = workdir / f"child-{index}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--report", str(report),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
        PYTHONHASHSEED="0",
    )
    spawn = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - spawn),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child {index} exited with code {proc.returncode}")
    doc = json.loads(report.read_text())
    return doc, doc["ready"] - spawn


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
    try:
        children, setups = [], []
        for i in range(SETUPS):
            doc, setup = run_child(
                workload, seed, seconds, trace, i < SETUPS - 1, workdir, i, deadline
            )
            children.append(doc)
            setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    main = children[-1]
    expected = str(ROOT / "src")
    if not main["sepmix"].startswith(expected):
        raise RuntimeError(f"child imported sepmix from {main['sepmix']}, not {expected}")
    times = main["untraced_s"]
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    if not times:
        raise RuntimeError(f"no timed trial completed; failures: {failures}")
    p, tail_s = tail(times)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": main["size"],
        "setups_s": setups,
        "inputs": main["inputs"],
        "trials": len(times),
        "tail_percentile": p,
        "attempted": attempted,
        "failures": failures,
        "digest": main["digest"],
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "l3": l3_cache(),
            "blas": main["blas"],
            **main["versions"],
            "platform": platform.platform(),
            "commit": git_commit(),
        },
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "trial_s_p50": statistics.median(times),
            "trial_s_tail": tail_s,
            "trials_per_s": len(times) / sum(times),
            "peak_rss_mb": max(c["maxrss_mib"] for c in children),
            "fail_rate": len(failures) / attempted,
        },
        "per_layer": main.get("layers", {}),
        "trial_s": times,
        "traced_trial_s": main["traced_s"],
    }


def digest_note(res: dict) -> str:
    if res["digest"] is None:
        return "not computed: a trial of the first round failed"
    refs = json.loads((HERE / "digests.json").read_text())
    ref = refs.get(res["workload"], {})
    if ref.get("seed") != res["seed"]:
        return "no reference digest for this seed"
    if ref.get("digest") == res["digest"]:
        return "matches the reference"
    return f"CHANGED from the reference {ref.get('digest')}"


def report(res: dict, units: dict) -> None:
    m = res["machine"]
    blas = m["blas"]
    e2e = res["end_to_end"]
    print(f"== {res['workload']} seed {res['seed']} ({res['size']}), trace {res['trace']}")
    print(
        f"   machine: nproc {m['nproc']}, L3 {m['l3']}, BLAS {blas['name']} "
        f"{blas['version']} with {blas['threads']} thread(s), Python {m['python']}, "
        f"numpy {m['numpy']}, scipy {m['scipy']}, commit {m['commit']}"
    )
    label = "untraced trials of a traced run" if res["trace"] else "untraced"
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in res["setups_s"]),
        "trial_s_p50": f"{res['trials']} trials, {label}",
        "trial_s_tail": f"p{res['tail_percentile']} of {res['trials']} trials",
        "trials_per_s": f"at {res['size']}, over the summed trial times",
        "peak_rss_mb": "max ru_maxrss over the child processes",
        "fail_rate": f"{len(res['failures'])} failed / {res['attempted']} attempted",
    }
    for name, value in e2e.items():
        print(f"   {name:<14} {value:12.6g} {units.get(name, ''):<5} ({notes[name]})")
    for f in res["failures"]:
        print(f"   FAILED trial {f['trial']} on input {f['input']} (seed {f['seed']}): {f['error']}")
    print(f"   digest of the first round ({res['inputs']} input(s)) {res['digest']}: {digest_note(res)}")
    if res["per_layer"]:
        for name, value in sorted(res["per_layer"].items()):
            print(f"   {name:<34} {value:14.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, help="default: the workload's acceptance seed")
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "sepmix" / "__init__.py").is_file():
        print(f"perfbench: no sepmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["fail_rate"] = "1"
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for n, workload in enumerate(chosen, 1):
        seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
        try:
            res = run_workload(workload, seed, args.seconds, args.trace, start + TIME_LIMIT_S * n)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        OUT.joinpath(f"result-{workload}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n"
        )
        report(res, units)
        values = {**res["end_to_end"], **res["per_layer"]}
        missing = [name for name in names if name not in values]
        if missing:
            print(f"perfbench: {workload}: no value for {missing}", file=sys.stderr)
            return 1
        print(
            json.dumps(
                {
                    "correct": not res["failures"],
                    "attempted": res["attempted"],
                    "failed": len(res["failures"]),
                    "metrics": {
                        name: {"value": values[name], "unit": units[name]} for name in names
                    },
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
