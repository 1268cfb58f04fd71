"""Run one benchmark workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload merton_pde --seed 1 --seconds 20 --trace 0

One process runs one op at a time; the next op starts when the last one has
finished, and no op starts that would end past ``--seconds``.  Set-up
(imports, the invariant measure, spec construction) is timed before the
loop.  The machine-speed probe (``probe.py``) runs between set-ups and
between the stages of untraced ops; ``wall_s`` and ``setup_s`` are rescaled
by it to the reference speed.  With ``--trace 0`` the last line of standard output
carries the ``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1``
untraced and traced ops alternate and the last line carries the
``per_layer`` metrics, read off the spans of the traced ops.  Metric names
and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Units of the accuracy figures an op reports (all dimensionless).
FIGURE_UNIT = "1"
#: Figures recorded for information: no direction is better.
INFORMATION_ONLY = {"gap_slope", "mc_dev_eps_min"}


def cap_blas_threads() -> int:
    """Cap BLAS at the cores this process may use; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ.setdefault(var, str(cap))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int, blas_cap: int) -> dict:
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(), "machine": platform.machine(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas_version(np), "scipy_blas": blas_version(scipy),
        "nproc": os.cpu_count(), "blas_thread_cap": blas_cap, "seed": seed,
        "git_commit": git_commit(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _timed(tracer, modules, root_name, fn, *args):
    """Run ``fn`` under a root span (wrappers installed only for its duration)."""
    if tracer is not None:
        tracer.install(modules)
    try:
        with tracer.root(root_name) if tracer else contextlib.nullcontext(-1) as idx:
            t0 = time.perf_counter()
            try:
                return fn(*args), None, time.perf_counter() - t0, idx
            except Exception:  # an op that raises is counted as failed; the run goes on
                return None, traceback.format_exc(limit=4), time.perf_counter() - t0, idx
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 sizes=None, import_s: float = 0.0) -> dict:
    """Set up several times, then loop ops for ``seconds``; return the full record."""
    from levy_multiscale import (ergodicity, finance, hjb_solvers, jump_processes,
                                 levy_measures, nonlocal_generator)

    import probe
    from tracer import Tracer
    from workloads import FULL, WORKLOADS

    modules = (ergodicity, finance, hjb_solvers, jump_processes, levy_measures, nonlocal_generator)
    setup, op = WORKLOADS[name]
    sizes = sizes or FULL
    tracer = Tracer() if trace else None

    probes = [probe.measure()]  # taken right after the imports
    setup_times, setup_ref, setup_roots, ctx, checks = [], [], [], None, {}
    for _ in range(SETUP_REPEATS):
        new_ctx, err, dt, idx = _timed(tracer, modules, "setup", setup, seed, sizes)
        if err is not None:
            raise RuntimeError(f"set-up failed:\n{err}")
        probes.append(probe.measure())
        setup_ref.append(probe.at_reference(dt, *probes[-2:]))
        if ctx is not None:
            checks["setup_repeatable"] = checks.get("setup_repeatable", True) and bool(
                (new_ctx["mu"].nodes == ctx["mu"].nodes).all()
                and (new_ctx["mu"].weights == ctx["mu"].weights).all())
        ctx = new_ctx
        setup_times.append(dt)
        setup_roots.append(idx)

    ops, cycles, reference = [], [], None
    min_ops = 2 if trace else 1
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start + _median(cycles) <= seconds:
        traced = trace and len(ops) % 2 == 1
        t0 = time.perf_counter()
        if traced:  # no probes inside a traced op: they would land in its spans
            out, err, dt, idx = _timed(tracer, modules, "op", op, ctx, lambda: None)
            probes.append(probe.measure())
            ref = probe.at_reference(dt, *probes[-2:])
        else:
            watch = probe.Stopwatch(probes[-1])
            out, err, _, idx = _timed(None, modules, "op", op, ctx, watch)
            watch()
            probes.extend(watch.probes[1:])
            dt, ref = watch.raw_s, watch.ref_s
        cycles.append(time.perf_counter() - t0)
        figures, gates = out if out is not None else ({}, {})
        if err is None:
            reference = reference or figures
            gates = {**gates, "repeatable": figures == reference}
        ops.append({"traced": traced, "wall_s": dt, "ref_s": ref, "root": idx, "error": err,
                    "failed_gates": sorted(k for k, v in gates.items() if not v)})
    failed = sum(1 for o in ops if o["error"] is not None or o["failed_gates"])

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "setup_s_samples": setup_times, "setup_ref_s_samples": setup_ref, "import_s": import_s,
        "import_ref_s": probe.at_reference(import_s, probes[0], probes[0]), "probe_s": probes,
        "probe_reference_s": probe.REFERENCE_S,
        "op_wall_s": [o["wall_s"] for o in ops], "op_ref_s": [o["ref_s"] for o in ops],
        "ops": len(ops), "failed": failed,
        "fail_frac": failed / len(ops), "figures": reference or {},
        "failures": [{k: o[k] for k in ("error", "failed_gates")} for o in ops
                     if o["error"] is not None or o["failed_gates"]],
    }
    if trace:
        layers = _layer_metrics(tracer, ops, setup_roots, checks)
        record["layers"] = layers
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        measured = {
            "wall_s": _median(record["op_ref_s"]),
            "setup_s": record["import_ref_s"] + _median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **record["figures"],
        }
        metrics = {m["name"]: measured.get(m["name"]) for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record["checks"] = checks
    record["result"] = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def _layer_metrics(tracer, ops, setup_roots, checks):
    """Per-layer medians over traced ops, set-up layers, and the trace's own cost."""
    summary = tracer.summarize()
    traced = [o for o in ops if o["traced"]]
    per_op = [summary.get(o["root"], {}) for o in traced]
    layers = {k: _median([m.get(k, 0.0) for m in per_op]) for k in set().union(*per_op)}
    setups = [summary.get(r, {}) for r in setup_roots]
    for k in set().union(*setups) - {"setup.s", "setup.self_s", "setup.calls"}:
        layers[f"setup.{k}"] = _median([m.get(k, 0.0) for m in setups])
    totals: dict[str, float] = {}
    for m in summary.values():
        for k, v in m.items():
            if k.endswith(".errors"):
                totals[k] = totals.get(k, 0.0) + v
    layers.update(totals)
    layers["trace.errors"] = float(sum(totals.values()))

    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    layers["trace.wall_s_traced"] = _median([o["wall_s"] for o in traced])
    layers["trace.wall_s_untraced"] = _median(untraced)
    layers["trace.overhead_s"] = layers["trace.wall_s_traced"] - layers["trace.wall_s_untraced"]
    layers["trace.unattributed_s"] = layers.get("op.self_s", 0.0)

    # children's self times never exceed their parent: the layers' self times
    # inside one op add up to at most the op span
    checks["self_times_within_op"] = all(
        sum(v for k, v in m.items() if k.endswith(".self_s") and not k.startswith("op."))
        <= m.get("op.s", 0.0) + 1e-9
        and all(v >= -1e-9 for k, v in m.items() if k.endswith(".self_s"))
        for m in per_op)
    counts = [{k: v for k, v in m.items() if not k.endswith((".s", ".self_s", ".errors"))}
              for m in per_op]
    checks["counts_repeat"] = all(c == counts[0] for c in counts)
    return layers


def print_report(record: dict, spec: dict, env: dict) -> None:
    kind = "per_layer" if record["trace"] else "end_to_end"
    print(f"# workload={record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"ops={record['ops']} failed={record['failed']} seconds={record['seconds']}")
    walls = record["op_wall_s"]
    print(f"# op wall: median {_median(walls):.4f} s, min {min(walls):.4f} s, "
          f"max {max(walls):.4f} s over {len(walls)} ops (closed loop, one client)")
    print(f"# probe: median {_median(record['probe_s']):.5f} s over {len(record['probe_s'])} "
          f"measurements (reference {record['probe_reference_s']} s)")
    for m in spec[kind]:
        value = record["result"]["metrics"][m["name"]]["value"]
        print(f"{m['name']:<56} {value!s:>24} {m['unit']:<6} {m['better']}")
    print(f"{'fail_frac':<56} {record['fail_frac']!s:>24} {FIGURE_UNIT:<6} lower")
    shown = {m["name"] for m in spec[kind]}
    for k, v in sorted(record["figures"].items()):
        if k not in shown:
            better = "info" if k in INFORMATION_ONLY else "lower"
            print(f"{k:<56} {v!s:>24} {FIGURE_UNIT:<6} {better}")
    for name, ok in sorted(record["checks"].items()):
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for failure in record["failures"]:
        print(f"# failed op: {json.dumps(failure)}")
    print("report " + json.dumps({"env": env, **{k: v for k, v in record.items() if k != "result"}},
                                 sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    blas_cap = cap_blas_threads()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.interpolate  # noqa: F401  (imported lazily by sup_norm_gap)
    import workloads  # numpy, scipy and every levy_multiscale module

    import_s = time.perf_counter() - t0
    if not Path(workloads.finance.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("levy_multiscale must be imported from this checkout's src/")

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec,
                          import_s=import_s)
    print_report(record, spec, environment(args.seed, blas_cap))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
