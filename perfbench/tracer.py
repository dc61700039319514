"""Spans and counters recorded around the public functions of each specprox module.

The tracer lives entirely in the benchmark: while installed it replaces each
traced function in every ``specprox`` module that imported it (for example
both ``specprox.reference.precondition`` and ``specprox.optimizer.precondition``)
and puts the originals back on exit.  A span records its id, its parent span,
the ``execute`` call it belongs to, its name, and its start and end in
nanoseconds.  Spans are kept in memory in one flat integer array and only
reduced (or written out) after the traced work has finished.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

SPAN_FIELDS = ("id", "parent", "call", "name", "start_ns", "end_ns")
_NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._call = _NO_SPAN
        self._next_call = 0
        self._undo: list[tuple[object, str, object]] = []
        self._seen_scalars: dict[int, object] = {}

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else _NO_SPAN
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name_id: int, t0: int) -> None:
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans.extend((sid, parent, self._call, name_id, t0, t1))

    def span(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name_id, t0)

        return traced

    def call_span(self, name: str, fn):
        """Span that opens a new ``execute`` call id shared by everything inside it."""
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._call
            self._call = self._next_call
            self._next_call += 1
            sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name_id, t0)
                self._call = outer

        return traced

    def first_use_span(self, cold_name: str, warm_name: str, fn):
        """Method span named ``cold_name`` on the first call per instance."""
        cold_id = self._name_id(cold_name)
        warm_id = self._name_id(warm_name)
        seen = self._seen_scalars  # holds the instances so their ids stay unique

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            key = id(obj)
            name_id = warm_id if key in seen else cold_id
            seen[key] = obj
            sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close(sid, parent, name_id, t0)

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing -----------------------------------------------------------

    def patch_function(self, module, attr: str, wrap) -> None:
        """Replace ``module.attr`` everywhere a specprox module imported it."""
        orig = getattr(module, attr)
        wrapped = wrap(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "specprox" or name.startswith("specprox.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, wrap) -> None:
        self._set(cls, attr, wrap(cls.__dict__[attr]))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction ------------------------------------------------------------

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS)).copy()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (duration minus children)."""
        t = self.table()
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        if not len(t):
            return out
        ids, parents, names = t[:, 0], t[:, 1], t[:, 3]
        dur = (t[:, 5] - t[:, 4]).astype(float)
        # Ids are dense 0..n-1; a single thread nests children inside parents,
        # so the time children cover is the sum of their durations.
        child = np.zeros(int(ids.max()) + 1)
        has_parent = parents != _NO_SPAN
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child[ids]
        for i, name in enumerate(self.names):
            sel = names == i
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float(self_ns[sel].sum()) / 1e6,
            }
        return out

    def write(self, path: str) -> None:
        """Write the spans as ``.npz``: one int64 row per span plus the name table."""
        np.savez_compressed(path, spans=self.table(), fields=np.array(SPAN_FIELDS),
                            names=np.array(self.names))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every specprox layer the workloads reach."""
    # The package re-exports functions named like its modules (``specprox.prox``
    # is the function), so the modules are looked up by their dotted names.
    direction, harness, optimizer, problems, prox, reference, stationarity, tensor = (
        importlib.import_module(f"specprox.{name}")
        for name in ("direction", "harness", "optimizer", "problems", "prox", "reference",
                     "stationarity", "tensor")
    )

    t = tracer
    t.patch_function(tensor, "full_svd", lambda f: t.span("tensor.full_svd", f))
    t.patch_method(tensor.ParamVec, "__init__", lambda f: t.counter("tensor.paramvec", f))

    t.patch_function(reference, "precondition", lambda f: t.span("reference.precondition", f))
    t.patch_function(reference, "phi_star", lambda f: t.span("reference.phi_star", f))
    t.patch_method(reference.HyperKappa, "h_star", lambda f: t.first_use_span(
        "reference.h_star.cold", "reference.h_star.warm", f))
    for cls in (reference.Barrier, reference.HyperKappa):
        t.patch_method(cls, "h_star_prime", lambda f: t.counter("reference.h_star_prime", f))

    t.patch_function(prox, "prox", lambda f: t.span("prox.prox", f))
    t.patch_function(prox, "recover_subgradient", lambda f: t.span("prox.recover_subgradient", f))
    t.patch_function(prox, "feasibility_error", lambda f: t.span("prox.feasibility_error", f))

    for cls in (problems.QuadraticProblem, problems.LogisticProblem, problems.MatrixQuadraticProblem):
        t.patch_method(cls, "grad_f", lambda f: t.span("problems.grad_f", f))
    t.patch_method(problems.GradientOracle, "sample", lambda f: t.span("problems.oracle_sample", f))
    t.patch_method(problems.NoiseModel, "draw", lambda f: t.span("problems.noise_draw", f))

    t.patch_function(direction, "polyak_update", lambda f: t.span("direction.update", f))
    t.patch_function(direction, "storm_update", lambda f: t.span("direction.update", f))

    t.patch_function(stationarity, "gap_bregman", lambda f: t.span("stationarity.gap_bregman", f))

    t.patch_function(optimizer, "run", lambda f: t.span("optimizer.run", f))
    t.patch_function(optimizer, "step", lambda f: t.span("optimizer.step", f))
    t.patch_function(optimizer, "polar_express_step", lambda f: t.span("optimizer.step", f))

    t.patch_function(harness, "build_problem", lambda f: t.span("harness.build_problem", f))
    t.patch_function(harness, "build_reference", lambda f: t.span("harness.build_reference", f))
    t.patch_function(harness, "execute", lambda f: t.call_span("harness.execute", f))
    t.patch_function(harness, "traces_to_csv", lambda f: t.span("harness.traces_to_csv", f))
    t.patch_function(harness, "rate_sweep", lambda f: t.span("harness.rate_sweep", f))
