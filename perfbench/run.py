"""Closed-loop benchmark of indephorn: one client, one process, one thread.

    python3 perfbench/run.py --workload {horn,nahm,expand} --seed N \
        --seconds S --trace {0,1}

Each job starts when the previous one ends, after a gc.collect().  A job's
time runs from the call into the library to the returned result; the check
against an independent route runs after it, untimed.  A run's jobs are the
ROUNDS rounds of the seed (see workloads.py), one pass over them; the
run makes whole passes until --seconds of busy time are used up, at least
MIN_PASSES of them.  The first pass checks every job and records its digest;
later passes must reproduce that digest exactly.  The digest of the jobs is
printed, and for DEFAULT_SEED it must equal the one in reference.json.

A shared host runs the same job up to twice as long from one minute to the
next.  So after each job the bench times a fixed reference kernel
(refkernel.py) and scales the job's time to a host on which the kernel takes
refkernel.NOMINAL_S; a job's time is then its best scaled time over the
passes.  job_p50_s, job_p90_s and jobs_per_s come from these times and are
seconds of that nominal host; the unscaled figures are printed beside them.
setup_s is the median unscaled time of fresh-interpreter imports of
indephorn.cli spread over the run (import time does not follow the kernel).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the ROUNDS
rounds once with the public functions and operators of the indephorn
modules wrapped in spans (see tracer.py), and prints the per-layer metrics;
calls and counts repeat exactly for a seed.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refkernel
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
SETUP_PER_PASS = 2  # fresh-interpreter imports timed after each pass
KERNEL_WINDOW = 5  # a job is scaled by the kernel runs of the jobs this near
MODULES = ("graph", "poly", "chordal", "series", "nahm", "hornfit",
           "tracemonoid", "cycletools", "cli")
SPAN_METRICS = {  # metric prefix -> span name
    "series.mul": "series.TruncatedSeries.__mul__",
    "series.pow": "series.TruncatedSeries.__pow__",
    "series.invert": "series.TruncatedSeries.invert",
    "series.pow_rational": "series.TruncatedSeries.pow_rational",
    "nahm.solve": "nahm.solve_nahm",
    "nahm.d_det": "nahm.d_series_det",
    "nahm.residuals": "nahm.residuals",
    "nahm.d_binomial": "nahm.d_series_binomial",
    "nahm.closed_form": "nahm.chordal_power_formula",
    "cycletools.identity_checks": "cycletools.cyclic_identity_checks",
    "hornfit.fit": "hornfit.fit_ratio",
    "tracemonoid.count": "tracemonoid.count_traces",
    "cli.main": "cli.main",
    "poly.indep": "poly.independence_polynomial",
    "chordal.find_peo": "chordal.find_peo",
}
ROUTE_SPANS = ("series.pow_neg_s", "nahm.chordal_power_formula",
               "tracemonoid.count_traces")  # direct, closed-form, traces


def percentile(samples, q):
    """Nearest-rank q-quantile, refused unless at least ten samples lie
    beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples leave fewer than ten beyond q={q}")
    return ordered[rank - 1]


def measure_setup(samples):
    """Times of `samples` imports of indephorn.cli, each in a fresh
    interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import indephorn.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout))
    return times


def metadata(seed):
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    import numpy

    lines = sum(
        len(p.read_text().splitlines()) for p in (SRC / "indephorn").glob("*.py")
    )
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed,
            "src_lines": lines}


def run_job(workload, job):
    """(seconds, output or None, problems) for one job."""
    t0 = time.perf_counter()
    try:
        out = workload.run(job.args)
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc()]
    return time.perf_counter() - t0, out, []


def check_job(workload, job, out, problems):
    if not problems:
        try:
            problems = workload.check(job.args, out)
        except Exception:
            problems = [traceback.format_exc()]
    for p in problems:
        print(f"job {job.id} {job.stratum} {job.args} failed: {p}", file=sys.stderr)
    return not problems


class Digest:
    """Hash of the per-job digests of the ROUNDS rounds."""

    def __init__(self, workloads, workload):
        self.w, self.workload, self.parts = workloads, workload, []

    def of(self, job, out, ok):
        text = self.workload.digest(job.args, out) if ok else f"failed {job.id}"
        return self.w.sha(text)

    def add(self, job, out, ok):
        part = self.of(job, out, ok)
        self.parts.append(part)
        return part

    def value(self):
        return self.w.sha("\n".join(self.parts))[:16]


def scaled(times, kernels):
    """Job times scaled to a host on which the reference kernel takes
    refkernel.NOMINAL_S.  kernels[i] is the kernel's time right after job
    i; the host's speed at job i is the median of those within
    KERNEL_WINDOW jobs of it, so one disturbed kernel run moves nothing."""
    out = []
    for i, dt in enumerate(times):
        near = kernels[max(0, i - KERNEL_WINDOW):i + KERNEL_WINDOW + 1]
        out.append(dt * refkernel.NOMINAL_S / statistics.median(near))
    return out


def timed_run(w, workload, seed, seconds):
    """Passes over the seed's jobs: per-job best scaled times, and the
    import times taken between passes."""
    jobs = [job for round_ in w.rounds(workload, seed) for job in round_]
    run_job(workload, jobs[0])  # warm-up: lazy imports
    measure_setup(1)  # warm-up: compiled bytecode on disk
    setup = []
    digest = Digest(w, workload)
    best, raw, want = {}, {}, {}
    kernels = []
    attempted = failed = passes = 0
    busy = 0.0
    # whole passes, so every job has as many samples; stop when the next
    # pass would overrun the budget
    while passes < MIN_PASSES or busy * (passes + 1) / passes <= seconds:
        times, pass_kernels = [], []
        for job in jobs:
            gc.collect()
            dt, out, problems = run_job(workload, job)
            pass_kernels.append(refkernel.seconds())
            busy += dt
            attempted += 1
            times.append(dt)
            if passes == 0:
                ok = check_job(workload, job, out, problems)
                part = digest.add(job, out, ok)
                want[job.id] = part if ok else None
            elif want[job.id] is None:
                ok = check_job(workload, job, out, problems)
            else:
                ok = not problems and digest.of(job, out, True) == want[job.id]
                if not ok:
                    print(f"job {job.id} {job.args}: output differs from pass 0",
                          file=sys.stderr)
            failed += not ok
        kernels.append(statistics.median(pass_kernels))
        for job, dt, st in zip(jobs, times, scaled(times, pass_kernels)):
            best[job.id] = min(st, best.get(job.id, math.inf))
            raw[job.id] = min(dt, raw.get(job.id, math.inf))
        passes += 1
        setup += measure_setup(SETUP_PER_PASS)
    scaled_times, raw_times = list(best.values()), list(raw.values())
    metrics = {
        "job_p50_s": (statistics.median(scaled_times), "s"),
        "job_p90_s": (percentile(scaled_times, 0.9), "s"),
        "jobs_per_s": (len(scaled_times) / sum(scaled_times), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {
        "failed_frac": (failed / attempted, "ratio"),
        "passes": (passes, "count"),
        "busy_s": (busy, "s"),
        "kernel_ms_per_pass": (" ".join(f"{k * 1e3:.3f}" for k in kernels), "ms"),
        "unscaled job_p50_s": (statistics.median(raw_times), "s"),
        "unscaled job_p90_s": (percentile(raw_times, 0.9), "s"),
        "unscaled jobs_per_s": (len(raw_times) / sum(raw_times), "1/s"),
    }
    return attempted, failed, digest.value(), metrics, extra


def traced_run(w, workload, seed):
    modules = {name: importlib.import_module(f"indephorn.{name}") for name in MODULES}
    rounds = w.rounds(workload, seed)
    # the tracing overhead compares the first round traced with the mean of
    # two untraced replays, one before and one after the traced pass
    for job in rounds[0]:
        run_job(workload, job)
    untraced = sum(run_job(workload, job)[0] for job in rounds[0])

    recorder = tracer.Tracer()
    digest = Digest(w, workload)
    counts, failed, attempted = {}, 0, 0
    recorder.install(modules)
    try:
        for jobs in rounds:
            for job in jobs:
                root = recorder.begin_job(job.id)
                try:
                    out, problems = workload.run(job.args), []
                except Exception:
                    out, problems = None, [traceback.format_exc()]
                finally:
                    recorder.end_job(root)
                attempted += 1
                ok = check_job(workload, job, out, problems)
                failed += not ok
                digest.add(job, out, ok)
                if ok:
                    for k, v in workload.counts(job.args, out).items():
                        counts[k] = counts.get(k, 0) + v
    finally:
        recorder.restore()
    untraced = (untraced + sum(run_job(workload, job)[0] for job in rounds[0])) / 2

    selfs = tracer.self_times(recorder.spans)
    sane = all(abs(root - total) <= 1e-6
               for root, total in tracer.job_sums(recorder.spans, selfs).values())
    if not sane:
        print("traced run: span self times do not add up to job time", file=sys.stderr)
    m = layer_metrics(recorder, selfs, counts)
    first = {job.id for job in rounds[0]}
    traced = sum(s[tracer.END] - s[tracer.START] for s in recorder.spans
                 if s[tracer.PARENT] < 0 and s[tracer.JOB] in first)
    m["bench.jobs"] = (attempted, "count")
    m["bench.spans"] = (len(recorder.spans), "count")
    m["bench.jobs_per_s_untraced"] = (len(first) / untraced, "1/s")
    m["bench.jobs_per_s_traced"] = (len(first) / traced, "1/s")
    m["bench.trace_overhead_frac"] = (traced / untraced - 1, "ratio")
    m["bench.failed_frac"] = (failed / attempted, "ratio")
    return attempted, failed, digest.value(), m, sane


def layer_metrics(recorder, selfs, counts):
    """Per-layer metrics from the spans of a traced run and the per-job
    counts the workload reported."""
    NAME, JOB = tracer.NAME, tracer.JOB
    spans = recorder.spans
    m = {}
    by_name = {}
    for s, own in zip(spans, selfs):
        calls, t = by_name.get(s[NAME], (0, 0.0))
        by_name[s[NAME]] = (calls + 1, t + own)
    for prefix, name in SPAN_METRICS.items():
        calls, t = by_name.get(name, (0, 0.0))
        m[f"{prefix}.calls"] = (calls, "count")
        m[f"{prefix}.self_s"] = (t, "s")
    for mod in MODULES + ("bench",):
        t = sum(t for name, (_, t) in by_name.items() if name.startswith(mod + "."))
        key = "bench.unattributed_s" if mod == "bench" else f"layer.{mod}.self_s"
        m[key] = (t, "s")

    st = recorder.series
    m["series.cells"] = (st["cells"], "count")
    m["series.nonzeros"] = (st["nonzeros"], "count")
    m["series.max_coeff_bits"] = (st["max_bits"], "bits")
    m["series.int_frac"] = (st["ints"] / st["nonzeros"] if st["nonzeros"] else 0.0, "ratio")

    in_solve = tracer.under(spans, SPAN_METRICS["nahm.solve"])
    products = sum(1 for s, u in zip(spans, in_solve)
                   if u and s[NAME] == SPAN_METRICS["series.mul"])
    solves = m["nahm.solve.calls"][0]
    m["nahm.solve.products_per_call"] = (products / solves if solves else 0.0, "count")

    directions = counts.get("directions", 0)
    m["hornfit.fits"] = (counts.get("fits", 0), "count")
    m["hornfit.failures_certified"] = (counts.get("certified", 0), "count")
    m["hornfit.failures_uncertified"] = (counts.get("uncertified", 0), "count")
    decided = counts.get("fits", 0) + counts.get("certified", 0)
    m["hornfit.decided_frac"] = (decided / directions if directions else 0.0, "ratio")

    routes = {}
    for s in spans:
        if s[NAME] in ROUTE_SPANS:
            routes.setdefault(s[JOB], set()).add(s[NAME])
    computed = sum(len(v) for v in routes.values())
    m["cli.routes_used_frac"] = (
        counts.get("routes_needed", 0) / computed if computed else 0.0, "ratio")
    m["cli.output_bytes"] = (counts.get("output_bytes", 0), "bytes")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["horn", "nahm", "expand"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indephorn" / "cli.py").is_file():
        print(f"no indephorn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    workload = w.WORKLOADS[args.workload]
    print("meta " + json.dumps(metadata(args.seed)))
    if args.trace:
        attempted, failed, digest, metrics, correct = traced_run(
            w, workload, args.seed)
    else:
        attempted, failed, digest, metrics, extra = timed_run(
            w, workload, args.seed, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB")
        for name, (value, unit) in extra.items():
            text = value if isinstance(value, str) else f"{value:.6g}"
            print(f"{args.workload} {name} = {text} {unit}")
        correct = True
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} digest = {digest} (seed {args.seed})")
    if args.seed == DEFAULT_SEED:
        want = json.loads(REFERENCE.read_text()).get(args.workload)
        if digest != want:
            print(f"digest {digest} differs from the reference {want}", file=sys.stderr)
            correct = False
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
