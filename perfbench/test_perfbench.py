"""Self-tests of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools

import numpy as np
import pytest

import probe
import run
from levy_multiscale import hjb_solvers, jump_processes, levy_measures
from tracer import Tracer
from workloads import TINY, WORKLOADS

SPEC = run.load_spec()
SYM15 = levy_measures.LevyMeasureModel(levy_measures.Family.SYMMETRIC_STABLE, 1.5)
COUNTS = ("levy_measures.interval_mass.calls", "hjb_solvers.pide_solve.n_t",
          "jump_processes.sample_stable_increment.calls",
          "jump_processes.sample_stable_increment.draws")


@pytest.fixture(scope="module")
def traced_runs():
    return {w: run.run_workload(w, 3, 0.0, True, SPEC, sizes=TINY) for w in WORKLOADS}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = run.run_workload(workload, 3, 0.0, False, SPEC, sizes=TINY)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, traced_runs):
    result = traced_runs[workload]["result"]
    assert result["correct"], traced_runs[workload]["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced_runs[workload]["checks"]["self_times_within_op"]
    assert result["metrics"]["trace.errors"]["value"] == 0.0


def test_counts_repeat_exactly(traced_runs):
    again = run.run_workload("pricing", 3, 0.0, True, SPEC, sizes=TINY)["result"]["metrics"]
    first = traced_runs["pricing"]["result"]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] > 0.0
        assert again[name]["value"] == first[name]["value"]


def test_self_time_arithmetic_on_a_synthetic_nest():
    # op [0,10] > a [1,6] > (b [2,4], b [4.5,5]); op > c [7,9] > r [7.5,8.5] > r [7.8,8]
    events = [("in", "op", 0), ("in", "a", 1), ("in", "b", 2), ("out", 4), ("in", "b", 4.5),
              ("out", 5), ("out", 6), ("in", "c", 7), ("in", "r", 7.5), ("in", "r", 7.8),
              ("out", 8), ("out", 8.5), ("out", 9), ("out", 10)]
    clock = iter(e[-1] for e in events)
    tracer = Tracer(clock=lambda: float(next(clock)))
    stack = []
    for e in events:
        if e[0] == "in":
            stack.append(tracer.enter(tracer.name_id(e[1])))
        else:
            tracer.exit(stack.pop())
    summary = tracer.summarize()
    assert list(summary) == [0]
    m = summary[0]
    want = {"op.s": 10, "op.self_s": 3, "a.s": 5, "a.self_s": 2.5, "b.s": 2.5, "b.self_s": 2.5,
            "b.calls": 2, "c.s": 2, "c.self_s": 1, "r.s": 1, "r.self_s": 1, "r.calls": 2}
    assert {k: m[k] for k in want} == pytest.approx(want)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(m["op.s"])


def test_stopwatch_leaves_probes_out_and_rescales_each_stage():
    clock = iter([0.0, 2.0, 3.0, 7.0, 8.0])  # stages [0, 2] and [3, 7]; probes in between
    watch = probe.Stopwatch(probe.REFERENCE_S, clock=lambda: next(clock))
    watch()
    watch()
    p = watch.probes
    assert len(p) == 3 and all(v > 0.0 for v in p)
    assert watch.raw_s == 6.0
    assert watch.ref_s == pytest.approx(probe.at_reference(2.0, p[0], p[1])
                                        + probe.at_reference(4.0, p[1], p[2]))
    assert probe.at_reference(3.0, 2 * probe.REFERENCE_S, 2 * probe.REFERENCE_S) == pytest.approx(1.5)


def test_install_wraps_where_callers_look_up_and_uninstall_restores():
    originals = (hjb_solvers.interval_mass, hjb_solvers.linalg, jump_processes.iter_fast_values)
    tracer = Tracer()
    tracer.install([hjb_solvers, jump_processes, levy_measures])
    try:
        assert hjb_solvers.interval_mass is not originals[0]
        with tracer.root("op"):
            hjb_solvers.assemble_factor_generator(SYM15, np.linspace(-4.0, 4.0, 17))
            cfg = jump_processes.FastProcessConfig(SYM15, lam=1.0, y0=0.0, horizon=1.0, dt=0.25)
            values = list(itertools.islice(jump_processes.iter_fast_values(cfg, 3), 10))
    finally:
        tracer.uninstall()
    assert (hjb_solvers.interval_mass, hjb_solvers.linalg, jump_processes.iter_fast_values) == originals
    m = tracer.summarize()[0]
    assert len(values) == 5
    assert m["hjb_solvers.assemble_factor_generator.bytes_computed"] == 8 * 17 * 17
    assert m["levy_measures.interval_mass.calls"] > 0
    assert m["jump_processes.iter_fast_values.calls"] == 6  # one span per resume, the last one ends it
    assert m["jump_processes.sample_stable_increment.draws"] == 4 * 3
