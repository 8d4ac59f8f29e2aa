"""Per-layer spans recorded from outside the qtradeoff package.

While a ``Tracer`` is installed, the public functions of each layer are
replaced by wrappers in every qtradeoff module whose namespace holds them, so
a function imported by name (``oracle`` imports ``haar_unit_vector``) is
caught where it is looked up.  Each wrapper opens a span; on close the span's
duration is added to its layer and charged to the enclosing span as child
time, so a layer's self time is its duration minus that of the spans it
caused.  A call into a layer that is already the innermost open span (such as
``spectral_radius`` calling ``eigvals_hermitian``) is not a new span, so only
the outermost call is counted.  Spans are aggregated as they close.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

EIGENSOLVE = "linalg.eigensolve"
HAAR = "linalg.haar"
ORACLE = "oracle"
METRIC_PREFIX = "metrics."

# Layer of each traced function, by (defining module, function name).
LAYERS = {
    ("qtradeoff.linalg", "spectral_radius"): EIGENSOLVE,
    ("qtradeoff.linalg", "eigvals_hermitian"): EIGENSOLVE,
    ("qtradeoff.linalg", "eig_hermitian"): EIGENSOLVE,
    ("qtradeoff.linalg", "haar_unitary"): HAAR,
    ("qtradeoff.linalg", "haar_unit_vector"): HAAR,
    ("qtradeoff.metrics", "error"): "metrics.error",
    ("qtradeoff.metrics", "disturbance"): "metrics.disturbance",
    ("qtradeoff.metrics", "overall_error"): "metrics.overall_error",
    ("qtradeoff.metrics", "relaxed_error"): "metrics.relaxed_error",
    ("qtradeoff.oracle", "max_expectation"): ORACLE,
    ("qtradeoff.oracle", "max_error_over_states"): ORACLE,
    ("qtradeoff.oracle", "max_disturbance_over_states"): ORACLE,
    ("qtradeoff.oracle", "max_sum_over_states"): ORACLE,
    ("qtradeoff.cli", "run"): "cli",
}
# Every public function defined in these modules is a span of the layer.
WHOLE_MODULES = {"qtradeoff.explorer": "explorer"}


def _module(name: str):
    module = sys.modules.get(name)
    if module is None:
        raise LookupError(f"tracer: module {name} is not imported")
    return module


class _Span:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Span aggregates per layer: calls, total and self seconds, counts."""

    def __init__(self):
        self._stack: list[_Span] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        # Outermost eigensolves charged to the innermost enclosing metric.
        self.eigensolves: Counter = Counter()
        self.matrices = 0
        self.oracle_samples = 0
        self.oracle_refinement_steps = 0

    def _wrap(self, layer: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = _Span(layer)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._close(span, duration, args)
            if layer == ORACLE:
                self.oracle_samples += result.samples_used
                self.oracle_refinement_steps += result.refinement_steps
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span: _Span, duration: float, args) -> None:
        layer = span.layer
        self.calls[layer] += 1
        self.seconds[layer] += duration
        self.self_seconds[layer] += duration - span.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        if layer == EIGENSOLVE:
            # A stack of matrices is one call but many eigensolves.
            self.matrices += math.prod(getattr(args[0], "shape", (1, 1))[:-2])
            for outer in reversed(self._stack):
                if outer.layer.startswith(METRIC_PREFIX):
                    self.eigensolves[outer.layer] += 1
                    break

    def _targets(self):
        """(function, layer) of every traced function.

        A missing target is an error rather than a layer that reads zero,
        which would look like the largest possible gain.
        """
        for (module_name, name), layer in LAYERS.items():
            fn = getattr(_module(module_name), name, None)
            if not inspect.isfunction(fn):
                raise LookupError(f"tracer: {module_name}.{name} is not a function")
            yield fn, layer
        for module_name, layer in WHOLE_MODULES.items():
            fns = [fn for name, fn in vars(_module(module_name)).items()
                   if inspect.isfunction(fn) and fn.__module__ == module_name
                   and not name.startswith("_")]
            if not fns:
                raise LookupError(f"tracer: {module_name} defines no public function")
            yield from ((fn, layer) for fn in fns)

    @contextlib.contextmanager
    def installed(self):
        """Patch every qtradeoff module that holds a traced function."""
        wrappers = {id(fn): self._wrap(layer, fn) for fn, layer in self._targets()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qtradeoff" or name.startswith("qtradeoff."))]
        patched = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and wrapper.__wrapped__ is value:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)
