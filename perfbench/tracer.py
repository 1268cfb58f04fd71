"""Span tracer that wraps the public functions of ``levy_multiscale`` from outside.

Every public function of the package is replaced, in each module namespace
where a caller looks it up, by a wrapper that records a span (name, parent,
start, end) or, for the hot closed-form helpers in ``COUNT_ONLY``, only a call
counter.  ``scipy.linalg`` as bound in ``hjb_solvers`` is swapped for a proxy
whose ``lu_factor``/``lu_solve`` record the ``hjb_solvers.lu`` span.  Nothing
in ``src/`` is edited: :meth:`Tracer.uninstall` puts every original back.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children; spans nest strictly in
this single-threaded program, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

#: Closed-form helpers that get a call counter and no span.
COUNT_ONLY = frozenset({
    "compensator_drift", "default_outer_cut", "default_step", "density_eval",
    "interval_first_moment", "interval_mass", "small_jump_variance",
    "stable_exponent_closed", "stable_scale_exponent", "standard_stable",
    "stream_rng", "tail_mass", "tail_moment", "truncated_moment",
})


def _draws(args, kwargs, result):
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    return {"draws": 1 if size is None else int(size)}


def _n_t(args, kwargs, result):
    return {"n_t": int(result.diagnostics["n_t"])}


def _generator_bytes(args, kwargs, result):
    ny = len(kwargs.get("y_grid", args[1] if len(args) > 1 else None))
    return {"bytes_computed": 8 * ny * ny}  # the dense float64 matrix written once


#: Work counters read off a call's arguments or result ("computed", not measured).
EXTRA_COUNTERS = {
    "jump_processes.sample_stable_increment": _draws,
    "hjb_solvers.pide_solve": _n_t,
    "hjb_solvers.effective_solve": _n_t,
    "hjb_solvers.assemble_factor_generator": _generator_bytes,
}


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside ``hjb_solvers`` only."""

    def __init__(self, linalg, tracer: "Tracer"):
        self._linalg = linalg
        nid = tracer.name_id("hjb_solvers.lu")

        def lu_factor(a, *args, **kwargs):
            n = np.shape(a)[0]
            tracer.bump(nid, "flops_computed", 2.0 * n**3 / 3.0)
            return tracer.call(nid, linalg.lu_factor, a, *args, **kwargs)

        def lu_solve(lu_and_piv, b, *args, **kwargs):
            n = np.shape(lu_and_piv[0])[0]
            nrhs = np.shape(b)[1] if np.ndim(b) > 1 else 1
            tracer.bump(nid, "flops_computed", 2.0 * n * n * nrhs)
            return tracer.call(nid, linalg.lu_solve, lu_and_piv, b, *args, **kwargs)

        self.lu_factor = lu_factor
        self.lu_solve = lu_solve

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class Tracer:
    """Span and counter recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 if no enclosing span has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[int, dict[tuple[int, str], float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(1 if self._active[nid] == 0 else 0)
        self._active[nid] += 1
        self._stack.append(idx)
        self.span_end.append(math.nan)
        self.span_start.append(self._clock())
        return idx

    def exit(self, idx: int) -> None:
        self.span_end[idx] = self._clock()
        self._stack.pop()
        self._active[self.span_name[idx]] -= 1

    def bump(self, nid: int, key: str, amount: float = 1.0) -> None:
        """Add to a counter of the enclosing root span (-1 outside any span)."""
        self.counters[self._stack[0] if self._stack else -1][nid, key] += amount

    def call(self, nid: int, fn, *args, **kwargs):
        idx = self.enter(nid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.bump(nid, "errors")
            raise
        finally:
            self.exit(idx)

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (one set-up or one op); yields its index."""
        idx = self.enter(self.name_id(name))
        try:
            yield idx
        finally:
            self.exit(idx)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, key: str):
        nid = self.name_id(key)
        tracer = self
        if key.rsplit(".", 1)[1] in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.bump(nid, "calls")
                return fn(*args, **kwargs)
            return counted

        if inspect.isgeneratorfunction(fn):
            # one span per resume, so time spent in the consumer between
            # resumes belongs to the consumer
            def resumes(gen):
                while True:
                    idx = tracer.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.bump(nid, "errors")
                        raise
                    finally:
                        tracer.exit(idx)
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return resumes(fn(*args, **kwargs))
            return gen_wrapper

        extra = EXTRA_COUNTERS.get(key)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            result = tracer.call(nid, fn, *args, **kwargs)
            if extra is not None:
                for k, v in extra(args, kwargs, result).items():
                    tracer.bump(nid, k, v)
            return result
        return spanned

    def install(self, modules) -> None:
        """Wrap every public package function wherever ``modules`` bind it."""
        wrappers = {}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("levy_multiscale.")):
                    continue
                if obj not in wrappers:
                    key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, key)
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
            if mod.__name__ == "levy_multiscale.hjb_solvers":
                self._patched.append((mod, "linalg", mod.linalg))
                mod.linalg = _LinalgProxy(mod.linalg, self)

    def uninstall(self) -> None:
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    # -- analysis --------------------------------------------------------
    def summarize(self) -> dict[int, dict[str, float]]:
        """Per root span: ``<name>.s`` (outermost spans), ``.self_s``, ``.calls``, counters.

        Root spans are keyed by their index; each also reports its own
        ``<root name>.s`` and ``.self_s`` (time not covered by any layer).
        """
        n = len(self.span_start)
        out: dict[int, dict[str, float]] = {}
        if n:
            nid = np.frombuffer(self.span_name, dtype=np.int32)
            parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
            outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
            dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
            if np.any(np.isnan(dur)):
                raise RuntimeError("summarize() called with open spans")
            has_parent = parent >= 0
            cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
            self_t = dur - cover
            root = np.where(has_parent, parent, np.arange(n))
            while True:  # pointer jumping up to the root span
                nxt = np.where(parent[root] >= 0, parent[root], root)
                if np.array_equal(nxt, root):
                    break
                root = nxt
            n_names = len(self.names)
            roots = np.flatnonzero(~has_parent)
            pos = np.searchsorted(roots, root)
            key = pos * n_names + nid
            size = len(roots) * n_names
            incl = np.bincount(key[outer], weights=dur[outer], minlength=size).reshape(-1, n_names)
            selfs = np.bincount(key, weights=self_t, minlength=size).reshape(-1, n_names)
            calls = np.bincount(key, minlength=size).reshape(-1, n_names)
            for r, row in enumerate(roots):
                metrics = {}
                for j in np.flatnonzero(calls[r]):
                    name = self.names[j]
                    metrics[f"{name}.s"] = float(incl[r, j])
                    metrics[f"{name}.self_s"] = float(selfs[r, j])
                    metrics[f"{name}.calls"] = float(calls[r, j])
                out[int(row)] = metrics
        for r, counts in self.counters.items():
            target = out.setdefault(r, {})
            for (name_id, stat), v in counts.items():
                name = f"{self.names[name_id]}.{stat}"
                target[name] = target.get(name, 0.0) + v
        return out
