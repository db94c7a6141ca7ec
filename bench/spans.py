"""Span tracing of the fbsde layers, installed from outside the package.

`Tracer.install` rebinds public functions and methods of the loaded fbsde
modules to wrappers that record one span per call: (name, start, end,
parent span, point id).  Every module that imported a function by name
(``fbsde.solver.project``, ``fbsde.cli.simulate_paths``, ...) gets the
same wrapper, and `Tracer.uninstall` restores the originals, so the
package source is never edited.  Spans stay in memory until `write_csv`.

Counts are recorded at the same boundaries by hooks that read a call's
arguments and result, per point id: normals drawn, driver calls, basis
bytes returned, design bytes passed, projections and their rank,
Picard iterations, nested-tree leaves.

Spans are kept on one stack, so calls are assumed to come from one
thread; the benchmark fixes FBSDE_WORKERS=1 for that reason.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "model", "simulate", "basis", "regress", "solver", "oracle")

# Harness time inside a point that no layer span covers.
ROOT_SPAN = "bench.point"

# (span name, defining module, function name)
_FUNCTIONS = (
    ("cli.main", "fbsde.cli", "main"),
    ("cli.build_config", "fbsde.cli", "build_config"),
    ("cli.run", "fbsde.cli", "run"),
    ("cli.csv", "fbsde.cli", "write_csv"),
    ("model.grid", "fbsde.model", "make_uniform_grid"),
    ("simulate.paths", "fbsde.simulate", "simulate_paths"),
    ("simulate.normals", "fbsde.simulate", "counter_normals"),
    ("simulate.euler", "fbsde.simulate", "euler_states"),
    ("regress.project", "fbsde.regress", "project"),
    ("solver.later", "fbsde.solver", "solve_regress_later"),
    ("solver.now", "fbsde.solver", "solve_regress_now"),
    ("oracle.reference", "fbsde.oracle", "reference_for"),
    ("oracle.nested", "fbsde.oracle", "nested_mc_y0"),
)

_BASIS_METHODS = (
    ("basis.init", "__init__"),
    ("basis.eval", "eval"),
    ("basis.grad", "grad"),
    ("basis.cond_exp", "cond_exp"),
    ("basis.cond_exp_grad", "cond_exp_grad"),
)

SPAN_NAMES = (tuple(name for name, _, _ in _FUNCTIONS)
              + ("model.make_problem", "model.callable")
              + tuple(name for name, _ in _BASIS_METHODS))

_PROBLEM_CALLABLES = ("drift", "diffusion", "driver", "terminal",
                      "terminal_gradient", "drift_dx", "diffusion_dx")

_EPS = sys.float_info.epsilon

_signature = functools.cache(inspect.signature)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: list = []  # (name, start, end, parent, point)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.peaks: dict[int, dict] = defaultdict(dict)
        self.point = -1
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counts[self.point][key] += value

    def peak(self, key: str, value: float) -> None:
        peaks = self.peaks[self.point]
        peaks[key] = max(peaks.get(key, value), value)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.point)

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording a span per call; `hook(tracer, fn, args, kwargs,
        result)` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.point)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every loaded fbsde module's binding of `original` at
        `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fbsde" or mod_name.startswith("fbsde.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, mod_name, attr in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.wrap(name, original, _HOOKS.get(name)))

        make_problem = sys.modules["fbsde.model"].make_problem
        make_problem_span = self.wrap("model.make_problem", make_problem)

        @functools.wraps(make_problem)
        def traced_make_problem(*args, **kwargs):
            return self.wrap_problem(make_problem_span(*args, **kwargs))

        self._rebind(make_problem, traced_make_problem)

        basis_cls = sys.modules["fbsde.basis"].BasisSet
        for name, attr in _BASIS_METHODS:
            original = basis_cls.__dict__[attr]
            self._saved.append((basis_cls, attr, original))
            setattr(basis_cls, attr, self.wrap(name, original, _HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap_problem(self, problem):
        """Copy of an FbsdeProblem whose coefficient callables record
        ``model.callable`` spans."""
        fields = {}
        for attr in _PROBLEM_CALLABLES:
            fn = getattr(problem, attr)
            if fn is not None:
                hook = _count_driver if attr == "driver" else None
                fields[attr] = self.wrap("model.callable", fn, hook)
        return dataclasses.replace(problem, **fields)

    # -- output ------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "point"))
            for sid, (name, start, end, parent, point) in enumerate(self.spans):
                out.writerow((sid, name, f"{start - self.origin:.9f}",
                              f"{end - self.origin:.9f}", parent, point))


# -- count hooks -----------------------------------------------------------

def _count_normals(tracer, fn, args, kwargs, result):
    tracer.add("simulate.normals_count", int(result.size))


def _count_values(tracer, fn, args, kwargs, result):
    tracer.add("basis.values_bytes", int(result.nbytes))


def _count_project(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    design = bound.arguments["design"]
    entries = getattr(design, "entries", design)
    rows, cols = entries.shape
    if bound.arguments["ridge"] > 0.0:
        rows += cols
    condition = result[1]
    # project's lstsq drops singular values <= rcond * s_max, so the design
    # has full numerical rank exactly when s_max / s_min < 1 / rcond.
    rcond = rows * _EPS
    tracer.add("regress.design_bytes", int(entries.nbytes))
    tracer.add("regress.project_calls", 1)
    tracer.add("regress.full_rank", int(condition < 1.0 / rcond))
    if math.isfinite(condition):
        tracer.peak("regress.max_condition", float(condition))


def _count_picard(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tol = bound.arguments["picard_tol"]
    gaps = result.diagnostics["picard_gap"]
    tracer.add("solver.picard_iters", int(sum(result.diagnostics["picard_iterations"])))
    tracer.add("solver.picard_steps", len(gaps))
    tracer.add("solver.picard_converged", sum(1 for gap in gaps if gap < tol))


def _count_nested(tracer, fn, args, kwargs, result):
    bound = _signature(fn).bind(*args, **kwargs)
    n_steps = bound.arguments["grid"].n_steps
    outer, inner = bound.arguments["outer"], bound.arguments["inner"]
    tracer.add("oracle.nested_leaves", outer * inner ** max(n_steps - 1, 0))


def _count_driver(tracer, fn, args, kwargs, result):
    tracer.add("model.driver_calls", 1)


_HOOKS = {
    "simulate.normals": _count_normals,
    "basis.eval": _count_values,
    "basis.grad": _count_values,
    "basis.cond_exp": _count_values,
    "basis.cond_exp_grad": _count_values,
    "regress.project": _count_project,
    "solver.now": _count_picard,
    "oracle.nested": _count_nested,
}


# -- analysis --------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that the union of its child spans covers (children may
    overlap each other or stick out of the parent)."""
    children = defaultdict(list)
    for name, start, end, parent, point in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, point) in enumerate(spans):
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_totals(spans, selfs, points) -> tuple[dict, dict]:
    """Inclusive and self seconds per span name over the spans of `points`."""
    points = set(points)
    inclusive, own = Counter(), Counter()
    for (name, start, end, parent, point), self_s in zip(spans, selfs):
        if point in points:
            inclusive[name] += end - start
            own[name] += self_s
    return inclusive, own
