"""Run-time span tracer for the spinff layers, kept outside the library.

``Tracer.install`` replaces the public functions listed in ``SPANS`` with
wrappers that record a span (id, parent id, name, start, end) per call.
Modules such as ``cli`` and ``tables`` bind names like ``reduce_system``
with ``from .cdsolver import ...``, so every ``spinff`` module attribute
that is the original function is replaced, not only the defining one.
It also wraps ``numpy.linalg.eigh``/``pinv``/``solve`` to count the
matrices that reach them.  ``uninstall`` puts every original back.

Spans are kept in memory for the current operation; ``end_op`` reduces
them to per-layer numbers (self time = duration minus the union of the
child spans' intervals) and forgets them.
"""

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _points(name):
    """Counter of the R values handed to a function as its second argument."""
    return lambda args, result: {f"{name}.points": np.size(args[1])}


def _stage(args, trajectory):
    """Stage points of an evolve call and the bytes its stage arrays take.

    The bytes are computed from the array shapes evolve builds (3 real
    arrays and 2 complex matrix stacks on the stage grid, 5 complex matrix
    stacks on the step grid), not measured.
    """
    steps = int(round(trajectory.t[-1] / trajectory.dt))
    points = 2 * steps + 1
    matrix = 16 * args[0].dim ** 2
    return {"propagator.stage_points": points,
            "propagator.stage_bytes": points * (3 * 8 + 2 * matrix) + steps * 5 * matrix}


# (module, attribute, span name, measure(args, result) -> {counter: value})
SPANS = (
    ("spinff.models", "hamiltonian", "models.hamiltonian", _points("models.hamiltonian")),
    ("spinff.models", "eigensystem", "models.eigensystem", None),
    ("spinff.models", "eigensystem_batch", "models.eigensystem_batch", None),
    ("spinff.models", "analytic_eigenvalues", "models.analytic_eigenvalues", None),
    ("spinff.models", "state_and_derivative", "models.state_and_derivative", None),
    ("spinff.models", "state_and_derivative_batch", "models.state_and_derivative_batch",
     _points("models.state_and_derivative_batch")),
    ("spinff.cdsolver", "reduce_system", "cdsolver.reduce_system", None),
    ("spinff.cdsolver", "solve_selection", "cdsolver.solve_selection",
     lambda args, result: {"cdsolver.solve_selection.accepted": int(result.accepted)}),
    ("spinff.cdsolver", "enumerate_solutions", "cdsolver.enumerate_solutions", None),
    ("spinff.cdsolver", "solve_dense", "cdsolver.solve_dense", None),
    ("spinff.cdsolver", "solve_lz", "cdsolver.solve_lz", None),
    ("spinff.cdsolver", "drb_counterdiabatic", "cdsolver.drb_counterdiabatic", None),
    ("spinff.cdsolver", "CoefficientPath.values", "cdsolver.CoefficientPath.values",
     _points("cdsolver.CoefficientPath.values")),
    ("spinff.cdsolver", "CoefficientPath.matrices", "cdsolver.CoefficientPath.matrices",
     None),
    ("spinff.propagator", "evolve", "propagator.evolve", _stage),
    ("spinff.propagator", "ff_state_residual", "propagator.ff_state_residual", None),
    ("spinff.tables", "verify_table", "tables.verify_table", None),
    ("spinff.cli", "run_job", "cli.run_job", None),
    ("spinff.cli", "resolve_selection", "cli.resolve_selection", None),
    ("spinff.cli", "write_csv", "cli.write_csv",
     lambda args, result: {"cli.write_csv.bytes": os.path.getsize(args[0])}),
    ("spinff.cli", "enumerate_job", "cli.enumerate_job", None),
    ("spinff.cli", "verify_table_job", "cli.verify_table_job", None),
    ("spinff.cli", "verify_job", "cli.verify_job", None),
    ("spinff.config", "load_config", "config.load", None),
    ("spinff.config", "load_preset", "config.load", None),
)

# numpy.linalg entry points whose incoming matrix count is recorded
LINALG_COUNTERS = (
    ("eigh", "models.eigh_matrices"),
    ("pinv", "cdsolver.pinv_matrices"),
    ("solve", "cdsolver.solve_matrices"),
)


def _matrix_count(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _union_length(intervals, lo, hi):
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self._root = None
        self._root_start = 0.0
        self.spans = []
        self.counts = Counter()

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "spinff" or name.startswith("spinff."))]
        wrappers = {}
        for module_name, attr, span, measure in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, original, measure))
                continue
            original = getattr(owner, attr)
            wrappers[original] = self._wrap(span, original, measure)
        # every module that binds one of the originals gets the wrapper
        for module in modules:
            for name, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])
        for attr, counter in LINALG_COUNTERS:
            self._patch(np.linalg, attr, self._counting(counter, getattr(np.linalg, attr)))

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- recording --------------------------------------------------------

    def count(self, name, value):
        with self._lock:
            self.counts[name] += value

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # spans opened on a worker thread hang under the operation
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, span, start, end))
            if measure is not None:
                for counter, value in measure(args, result).items():
                    tracer.count(counter, value)
            return result

        return wrapper

    def _counting(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            tracer.count(counter, _matrix_count(a))
            return fn(a, *args, **kwargs)

        return wrapper

    # -- per operation ----------------------------------------------------

    def begin_op(self):
        self.spans.clear()
        self.counts.clear()
        self._root = next(self._ids)
        self._root_start = time.perf_counter()

    def end_op(self):
        """Per-layer numbers of the operation that just finished."""
        root_end = time.perf_counter()
        wall = root_end - self._root_start
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        self_s, calls, busy = Counter(), Counter(), Counter()
        for sid, _, name, start, end in self.spans:
            self_s[name] += (end - start) - _union_length(children.get(sid, ()), start, end)
            calls[name] += 1
            busy[name] += end - start
        covered = _union_length(children.get(self._root, ()), self._root_start, root_end)
        out = {"op_s": wall, "trace.coverage": covered / wall,
               "cli.run.overlap": busy["propagator.evolve"] / wall}
        for name in self_s:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        accepted = self.counts.get("cdsolver.solve_selection.accepted", 0)
        out["cdsolver.solve_selection.accept_ratio"] = (
            accepted / calls["cdsolver.solve_selection"]
            if calls["cdsolver.solve_selection"] else 0.0)
        self.spans.clear()
        self._root = None
        return out
