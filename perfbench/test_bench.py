"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from indephorn import cycletools, graph, nahm, series  # noqa: E402

MODULES = {name: importlib.import_module(f"indephorn.{name}") for name in run.MODULES}


def job_list(name, seed):
    return workloads.rounds(workloads.WORKLOADS[name], seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    assert job_list(name, 7) == job_list(name, 7)
    assert job_list(name, 7) != job_list(name, 8)


def test_self_times_sum_to_the_job_time():
    # job 1: root [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; root > d [7, 9]
    spans = [
        ["bench.job", 0.0, 10.0, -1, 1],
        ["a", 1.0, 6.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["c", 4.0, 5.5, 1, 1],
        ["d", 7.0, 9.0, 0, 1],
        ["bench.job", 10.0, 12.0, -1, 2],
    ]
    selfs = tracer.self_times(spans)
    assert selfs == [3.0, 2.5, 1.0, 1.5, 2.0, 2.0]
    assert tracer.job_sums(spans, selfs) == {1: (10.0, 10.0), 2: (2.0, 2.0)}
    assert tracer.under(spans, "a") == [False, False, True, True, False, False]


def snapshot():
    out = {}
    for mod in MODULES.values():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    out[(mod.__name__, attr, meth)] = fn
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = snapshot()
    t = tracer.Tracer()
    t.install(MODULES)
    try:
        # one wrapper per function, at every name bound to it
        assert nahm.solve_nahm is not before[("indephorn.nahm", "solve_nahm")]
        assert cycletools.solve_nahm is nahm.solve_nahm
        ts = series.TruncatedSeries
        assert vars(ts)["__rmul__"] is vars(ts)["__mul__"]
        original_mul = before[("indephorn.series", "TruncatedSeries", "__mul__")]
        assert vars(ts)["__mul__"] is not original_mul
        assert series.binomial is before[("indephorn.series", "binomial")]
    finally:
        t.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_job_spans_add_up():
    workload = workloads.WORKLOADS["nahm"]
    job = job_list("nahm", 3)[0][0]
    t = tracer.Tracer()
    t.install(MODULES)
    try:
        root = t.begin_job(job.id)
        out = workload.run(job.args)
        t.end_job(root)
    finally:
        t.restore()
    assert workload.check(job.args, out) == []
    selfs = tracer.self_times(t.spans)
    (wall, total), = tracer.job_sums(t.spans, selfs).values()
    assert abs(wall - total) < 1e-9
    assert all(s >= -1e-9 for s in selfs)
    assert {s[tracer.NAME] for s in t.spans} >= {"bench.job", "nahm.solve_nahm"}


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples + [0] * 10, 0.5) == 45
    with pytest.raises(ValueError):
        run.percentile(samples[:99], 0.9)


def test_scaling_follows_the_kernel_and_ignores_one_outlier():
    nominal = run.refkernel.NOMINAL_S
    times = [0.1, 0.2, 0.3, 0.4]
    assert run.scaled(times, [nominal] * 4) == times
    assert run.scaled(times, [2 * nominal] * 4) == [t / 2 for t in times]
    # one disturbed kernel run among its neighbours changes no scaled time
    kernels = [nominal] * 20
    kernels[7] = 10 * nominal
    assert run.scaled([0.1] * 20, kernels) == [0.1] * 20


def test_graph6_matches_the_library_parser():
    edges = ((1, 2), (2, 4), (3, 5), (1, 5))
    assert graph.parse_graph6(workloads.graph6(5, edges)) == graph.Graph(5, edges)
