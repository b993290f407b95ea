"""alphasectors benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-highdeg --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 runs a closed loop (one client, one job at a time) over the
workload's job pool for --seconds and reports the end-to-end metrics, with no
wrappers installed; its times are scaled by a machine-speed probe (see
PROBE_REF_S).  --trace 1 runs a fixed set of jobs from the pool, each
once untraced and once traced, then the workload's known-failing edge probes
traced, and reports the per-layer metrics; its counts repeat exactly for a
given seed.  The spans of the latest traced run of each workload are written
to perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Set-up is repeated this many times per run and its median reported; so is
# the import, each time in a fresh interpreter.
SETUP_REPEATS = 5

# Tail percentile per workload, fixed so that a run at the seed commit has at
# least ten successful jobs beyond it (about 36, 384 and 36 jobs per run).
TAIL_PERCENT = {"verify-highdeg": 65, "census-sectors": 95, "qseries-certify": 70}

# Machine-speed probe.  On a shared host the CPU's speed drifts by about
# +-15 % over seconds and by more from one run to the next, whatever the
# benchmark does.  A timed run therefore times a fixed piece of work, the
# probe, before its first job and again after every job that ends at least
# PROBE_EVERY_S after the previous probe, and reports every time in
# "reference seconds": a job's measured seconds times PROBE_REF_S over the
# mean of the probes before and after it.  Set-up is scaled the same way, by
# probes around the set-ups.  A change to the package cannot change the
# probe, which is the benchmark's own code.  The notes print the unscaled
# figures.
PROBE_EVERY_S = 0.5
PROBE_REF_S = 0.025
PROBE_REPS = 20

END_TO_END = [
    ("setup_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("jobs_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _load():
    """Import the package from this checkout; returns (workloads, spans) modules."""
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")
    sys.dont_write_bytecode = True  # leave the checkout as found; every run compiles alike
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "alphasectors")):
        raise SystemExit(f"error: no package source at {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    import alphasectors

    if os.path.dirname(os.path.abspath(alphasectors.__file__)) != os.path.join(src, "alphasectors"):
        raise SystemExit(f"error: alphasectors imported from {alphasectors.__file__}, not {src}")
    return workloads, spans


def _import_s() -> float:
    """Median time to import numpy and the package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import numpy, alphasectors.cli; print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-B", "-c", code, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def _nearest_rank(values: list[float], percent: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def speed_probe():
    """A function that times a fixed piece of work and returns its seconds.

    The work has the two shapes of the package's inner loops, in about equal
    time: Horner evaluation of a fixed degree-128 complex polynomial at 128
    points inside the unit circle and 128 outside (a Python loop of small
    numpy operations, then a pure-Python pass over the values), and the
    pairwise reciprocal sums of 256 points (one large array at a time), as in
    an Aberth step.  Its inputs are fixed, not drawn from --seed.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    coeffs = list(rng.standard_normal(129) + 1j * rng.standard_normal(129))
    x = 0.9 * np.exp(2j * np.pi * np.arange(128) / 128)
    ring = np.exp(2j * np.pi * np.arange(256) / 256) * (1 + 0.1 * rng.random(256))

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            total = 0.0
            for z in (x, 1 / x):
                y = np.zeros_like(z)
                for c in coeffs:
                    y = y * z + c
                for v in y.tolist():
                    total += abs(v)
            diff = ring[:, None] - ring[None, :]
            np.fill_diagonal(diff, np.inf)
            total += float(np.abs((1.0 / diff).sum(axis=1)).max())
        return time.perf_counter() - t0

    probe()  # warm-up
    return probe


def timed_setup(W, workload: str, seed: int, workdir: str, probe):
    """Set up SETUP_REPEATS times; returns the jobs, setup_s and a note.

    setup_s is the median import time plus the median set-up time, each
    scaled by the probes just before and just after it.
    """
    probes = [probe()]
    import_s = _import_s()
    probes.append(probe())
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = W.build(workload, seed, workdir)
        setups.append(time.perf_counter() - t0)
        probes.append(probe())
    scale = [PROBE_REF_S * 2 / (a + b) for a, b in zip(probes, probes[1:])]
    setup_s = import_s * scale[0] + statistics.median(t * f for t, f in zip(setups, scale[1:]))
    note = (
        f"unscaled: setup_s {import_s + statistics.median(setups):.6g} s (import {import_s:.4f} s, set-ups "
        + ", ".join(f"{t:.4f}" for t in setups)
        + " s)"
    )
    return jobs, setup_s, note


def timed_run(W, jobs, seconds: float, round_jobs: int, tail_percent: float, probe):
    points, failures = 0, []
    attempted = 0
    probes = [probe()]
    probed_at = time.perf_counter()
    probe_s = 0.0
    timed = []  # (seconds, index of the last probe before it) of each successful job
    start = time.perf_counter()
    while True:
        job = jobs[attempted % len(jobs)]
        t0 = time.perf_counter()
        result, error = W.execute(job)
        dt = time.perf_counter() - t0
        outcome = W.check(job, result, error)
        attempted += 1
        if outcome.ok:
            timed.append((dt, len(probes) - 1))
            points += outcome.points
        else:
            failures.append(f"{job.label}: {outcome.reason}")
        done = attempted % round_jobs == 0 and time.perf_counter() - start >= seconds
        if done or time.perf_counter() - probed_at >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            probes.append(probe())
            probed_at = time.perf_counter()
            probe_s += probed_at - t0
        if done:
            break
    wall = time.perf_counter() - start - probe_s
    ok = len(timed)
    raw = [dt for dt, _ in timed]
    # each job is scaled by the mean of the probes around it; the run's wall
    # time by the same factors, weighted by job time
    durations = [dt * PROBE_REF_S * 2 / (probes[i] + probes[i + 1]) for dt, i in timed]
    scale = sum(durations) / sum(raw) if raw else PROBE_REF_S / probes[0]
    tail, beyond = _nearest_rank(durations, tail_percent) if durations else (0.0, 0)
    metrics = {
        "job_s_p50": statistics.median(durations) if durations else 0.0,
        "job_s_tail": tail,
        "jobs_per_s": ok / (wall * scale),
        "points_per_s": points / (wall * scale),
        "ok_frac": ok / attempted,
    }
    notes = [
        f"jobs: {attempted} attempted, {ok} ok, {len(failures)} failed in {wall:.3f} s",
        f"job_s_tail: p{tail_percent} of {ok} successful jobs, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: the tail is not resolved)"),
        f"probe: {len(probes)} probes, median {statistics.median(probes) * 1e3:.2f} ms "
        f"(reference {PROBE_REF_S * 1e3:g} ms); job time scaled by {scale:.4f} overall",
        f"unscaled: job_s_p50 {statistics.median(raw) if raw else 0.0:.6g} s, "
        f"job_s_tail {_nearest_rank(raw, tail_percent)[0] if raw else 0.0:.6g} s, "
        f"jobs_per_s {ok / wall:.6g} 1/s, points_per_s {points / wall:.6g} 1/s",
    ]
    return attempted, failures, metrics, notes


def traced_run(W, S, jobs, edge_jobs, workload: str):
    tracer = S.Tracer()
    untraced = traced = 0.0
    attempted = 0
    failures = []

    def run(job, idx, trace):
        tracer.job = idx
        t0 = time.perf_counter()
        if trace:
            with tracer.installed():
                sid = tracer.open("job")
                result, error = W.execute(job)
                tracer.close(sid, None, None if error is None else type(error).__name__)
        else:
            result, error = W.execute(job)
        return time.perf_counter() - t0, W.check(job, result, error)

    for idx, job in enumerate(jobs):
        # alternate which mode runs first, so warm-up favours neither
        for trace in ((False, True) if idx % 2 == 0 else (True, False)):
            dt, outcome = run(job, idx, trace)
            attempted += 1
            if trace:
                traced += dt
            else:
                untraced += dt
            if not outcome.ok:
                failures.append(f"{job.label}: {outcome.reason}")

    edge_failed = []
    for idx, job in enumerate(edge_jobs, start=len(jobs)):
        _, outcome = run(job, idx, True)
        if not outcome.ok:
            edge_failed.append(f"{job.label}: {outcome.reason}")

    metrics = S.per_layer(tracer)
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    metrics["edge.attempted"] = len(edge_jobs)
    metrics["edge.failed"] = len(edge_failed)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}.jsonl"))
    notes = [
        f"traced jobs: {len(jobs)} run untraced ({untraced:.3f} s) and traced ({traced:.3f} s), "
        f"{len(edge_jobs)} edge probes traced",
        f"winding.census_useful_ratio base: {metrics['winding.count_in_contour.calls']} slices integrated",
    ] + [f"edge probe failed (known): {line}" for line in edge_failed]
    return attempted, failures, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    W, S = _load()
    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(W.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            jobs = W.build(args.workload, args.seed, workdir)
            edge = W.build_edge(args.workload, workdir)
            attempted, failures, metrics, notes = traced_run(
                W, S, jobs[: W.TRACE_JOBS[args.workload]], edge, args.workload
            )
            units = {name: unit for name, unit, _ in S.PER_LAYER}
        else:
            probe = speed_probe()
            jobs, setup_s, setup_note = timed_setup(W, args.workload, args.seed, workdir, probe)
            attempted, failures, metrics, notes = timed_run(
                W, jobs, args.seconds, W.ROUND_JOBS[args.workload], TAIL_PERCENT[args.workload], probe
            )
            notes.append(setup_note)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = _peak_rss_mb()
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAILED {line}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
