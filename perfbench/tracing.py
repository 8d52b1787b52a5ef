"""Spans around curvlab's public functions, recorded from outside the program.

`install` wraps each named function once and rebinds the wrapper at every
attribute of a loaded curvlab module that held the original, so a call is
seen whichever module it was made through; methods are patched on their
classes.  Inside `operation`, every call records a span: name, start, end
and the index of the span open around it.  Each operation is a root span, so
all spans of one operation share that root; calls outside operations (the
benchmark's checks) are not recorded.  Spans
stay in memory until the run ends; a span's self time is its duration minus
the time its child spans cover.  Counters read from return values sit beside
the spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []           # [name, start, end, parent index or -1]
        self.counters: dict = {}
        self._open: list = []           # indices of the spans now open

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, name: str):
        """Trace one benchmark operation under a root span of its own."""
        self.active = True
        try:
            with self.span(f"op {name}"):
                yield
        finally:
            self.active = False

    def totals(self) -> dict:
        """name -> (calls, self time) over every recorded span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, parent), child in zip(self.spans, covered):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child)
        return out

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install_function(self, name: str, module, attr: str, on_result=None) -> None:
        """Wrap module.attr and rebind it wherever a curvlab module binds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "curvlab" or mod_name.startswith("curvlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install_method(self, name: str, cls, attr: str, on_result=None) -> None:
        setattr(cls, attr, self._wrap(name, getattr(cls, attr), on_result))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from curvlab import (cli, constancy, harness, io_format, linsolve,
                         polarization, spaces, tensors)

    tracer.install_method("tensors.eval", tensors.CurvatureTensor, "eval")
    tracer.install_method("tensors.eval_c", tensors.CurvatureTensor, "eval_c")
    tracer.install_function("tensors.failing_symmetries", tensors, "failing_symmetries")
    tracer.install_function("tensors.sectional", tensors, "sectional")
    tracer.install_function("spaces.tuple_from_rng", spaces, "tuple_from_rng")
    tracer.install_function("spaces.light_isometry", spaces, "light_isometry")
    tracer.install_function("polarization.expand", polarization, "expand")
    tracer.install_method(
        "linsolve.add_row", linsolve.RowReducer, "add_row",
        lambda grew: tracer.count("linsolve.add_row.absorbed", 1 if grew else 0))
    tracer.install_method("linsolve.nullspace", linsolve.RowReducer, "nullspace")
    for kind in ("holomorphic", "antiholomorphic", "biholomorphic"):
        tracer.install_function(f"constancy.constant_{kind}", constancy, f"constant_{kind}")
    tracer.install_function(
        "harness.impose", harness, "impose",
        lambda system: tracer.count("harness.impose.probes_used", system.probes_used))
    tracer.install_method("harness.random_element", harness.ConstraintSystem,
                          "random_element")
    tracer.install_function(
        "harness.probe_unboundedness", harness, "probe_unboundedness",
        lambda report: tracer.count("harness.probe_unboundedness.evaluations",
                                    report.evaluations))
    tracer.install_function("io_format.parse_document", io_format, "parse_document")
    tracer.install_function("io_format.build_tensor", io_format, "build_tensor")
    tracer.install_function("cli.main", cli, "main")
