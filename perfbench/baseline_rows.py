"""Re-measure the ROADMAP baseline rows as per-layer span times.

    PYTHONPATH=src python3 perfbench/baseline_rows.py

Each row runs REPEATS times without and REPEATS times with the tracer.  The
table gives the untraced median wall time and, per reported span, the traced
medians of its inclusive and self seconds, its calls and its step count.
The merton and pricing specs are the benchmark's (``workloads.py``) on the
baseline grid at epsilon = 0.05.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from levy_multiscale import (ergodicity, finance, hjb_solvers, jump_processes, levy_measures,
                             nonlocal_generator)
from tracer import Tracer
from workloads import FULL, SYM, setup_merton, setup_pricing

REPEATS = 3
MODULES = (ergodicity, finance, hjb_solvers, jump_processes, levy_measures, nonlocal_generator)


def rows():
    merton, pricing = setup_merton(1, FULL), setup_pricing(1, FULL)
    fast = jump_processes.FastProcessConfig(SYM, lam=1.0, y0=0.0, horizon=10.0, dt=0.02, seed=1)
    slow = jump_processes.SlowSystemConfig(
        problem=pricing["prob"], x0=1.0,
        fast=jump_processes.FastProcessConfig(SYM, lam=1.0, y0=0.0, horizon=1.0, dt=0.001, seed=1))
    quad = nonlocal_generator.GeneratorQuadrature(SYM)
    for ny in (65, 129, 257):
        yield (f"assemble_factor_generator, ny = {ny}", ("hjb_solvers.assemble_factor_generator",),
               lambda ny=ny: hjb_solvers.assemble_factor_generator(SYM, np.linspace(-8.0, 8.0, ny)))
    for label, ctx in (("Merton", merton), ("pricing", pricing)):
        yield (f"pide_solve {label}, eps = 0.05",
               ("hjb_solvers.pide_solve", "hjb_solvers.lu", "hjb_solvers.assemble_factor_generator"),
               lambda ctx=ctx: hjb_solvers.pide_solve(ctx["prob"], SYM, 0.05, ctx["grids"]))
        yield (f"effective_solve {label}", ("hjb_solvers.effective_solve",),
               lambda ctx=ctx: hjb_solvers.effective_solve(ctx["prob"], ctx["mu"], ctx["grids"]))
    yield ("estimate_invariant_measure, 40k samples",
           ("ergodicity.estimate_invariant_measure", "jump_processes.sample_stable_increment",
            "jump_processes.iter_fast_values"),
           lambda: ergodicity.estimate_invariant_measure(fast, burn_in=10.0, n_samples=40_000))
    yield ("generator_apply, one point", ("nonlocal_generator.generator_apply",),
           lambda: nonlocal_generator.generator_apply(quad, math.cos, 0.0, lambda v: -math.sin(v),
                                                      lambda v: -math.cos(v)))
    yield ("levy_exponent, one u", ("levy_measures.levy_exponent",),
           lambda: levy_measures.levy_exponent(SYM, 1.0))
    yield ("simulate_slow_system, 1000 steps",
           ("jump_processes.simulate_slow_system", "jump_processes.sample_stable_increment"),
           lambda: jump_processes.simulate_slow_system(slow))


def main():
    print("| row | untraced s | span | traced s | self s | calls | n_t |")
    print("|---|---|---|---|---|---|---|")
    for label, spans, fn in rows():
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install(MODULES)
        try:
            for _ in range(REPEATS):
                with tracer.root("row"):
                    fn()
        finally:
            tracer.uninstall()
        per_root = list(tracer.summarize().values())
        untraced = f"{statistics.median(walls):.4f}"
        for span in spans:
            med = {stat: statistics.median(m.get(f"{span}.{stat}", 0.0) for m in per_root)
                   for stat in ("s", "self_s", "calls", "n_t")}
            n_t = f"{med['n_t']:.0f}" if med["n_t"] else ""
            print(f"| {label} | {untraced} | `{span}` | {med['s']:.4f} | {med['self_s']:.4f} "
                  f"| {med['calls']:.0f} | {n_t} |")
            label = untraced = ""


if __name__ == "__main__":
    main()
