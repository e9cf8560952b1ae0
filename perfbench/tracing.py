"""In-memory spans around the benchmark's calls into sktflow, for traced runs.

A span is (name, start, end, parent, op id); names are `<module>.<function>`.
Hot library functions are wrapped as counted calls instead: they add to call
counts and self time but keep no span, so a flow pass does not store a few
hundred thousand tuples. Self time is duration minus the time of children.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import sktflow.curvature
import sktflow.flow
import sktflow.hermitian

# The integrate spans; a guard rejection is counted under the open one.
_INTEGRATE = "flow.integrate."
_EPS_POS = sktflow.flow.FlowConfig().eps_pos  # the benchmark uses the default

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced passes; costs one call per span."""

    op_id = None

    def span(self, name):
        return _NULL

    def count(self, name, n):
        pass


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self._stack: list = []  # frames [child seconds, span index or None, name]

    def reset_totals(self):
        """Zero totals and counts in place; wrappers hold their total's list."""
        for tot in self.totals.values():
            tot[:] = [0, 0.0, 0.0]
        self.counts.clear()

    def _total(self, name) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def _close(self, frame, tot, start) -> float:
        dur = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame[0]
        return dur

    @contextlib.contextmanager
    def span(self, name):
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        frame = [0.0, len(self.spans), name]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = self._close(frame, self._total(name), start)
            self.spans[frame[1]] = (name, start, start + dur, parent, self.op_id)

    def count(self, name, n):
        self.counts[name] += n

    def _counted(self, fn, name):
        """Wrapper that adds to call counts and self time but keeps no span."""
        tot = self._total(name)

        def wrapper(*args, **kwargs):
            frame = [0.0, None, name]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, tot, start)

        return wrapper

    def _spanned(self, fn, name, on_result=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _guard_counted(self, fn):
        """Wrapper of the positivity test the flow guard makes on every stage.

        A value at or below eps_pos rejects the stage; it is counted as
        `flow.guard_rejections.<integrator>` of the open integrate span.
        """

        def wrapper(*args, **kwargs):
            values = fn(*args, **kwargs)
            if (values <= _EPS_POS).any():
                name = next(f[2] for f in reversed(self._stack) if f[2].startswith(_INTEGRATE))
                self.count("flow.guard_rejections." + name[len(_INTEGRATE):], 1)
            return values

        return wrapper

    @contextlib.contextmanager
    def wrapped(self):
        """Wrap library functions under the names their callers look them up by."""

        def ddc_components(form):
            self.count("forms.ddc_components", len(form.components))

        wrappers = (
            (sktflow.hermitian, "exterior_derivative",
             lambda fn: self._spanned(fn, "forms.exterior_derivative", ddc_components)),
            (sktflow.hermitian, "dc_form", lambda fn: self._spanned(fn, "hermitian.dc_form")),
            (sktflow.flow, "rhs", lambda fn: self._counted(fn, "flow.rhs")),
            (sktflow.flow, "grad_F", lambda fn: self._counted(fn, "curvature.grad_F")),
            (sktflow.curvature, "grad_F", lambda fn: self._counted(fn, "curvature.grad_F")),
            (sktflow.flow, "family_values", self._guard_counted),
        )
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in wrappers]
        try:
            for mod, attr, wrap in wrappers:
                setattr(mod, attr, wrap(getattr(mod, attr)))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
