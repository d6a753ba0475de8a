"""Per-layer spans recorded from outside the package.

Every traced name is a module-level function that the package calls through
its module globals, so replacing the module attribute routes each call
through a timing wrapper without touching the package's source. A span's
self time is its duration minus the durations of the spans it encloses.
Spans are aggregated per name as they close (calls, self time) instead of
being stored one by one: a hallway trial opens over 100,000 of them.

Counts that need a call's arguments or result (cells flooded, contenders)
are taken by an observer that runs after the span has closed; its time is
kept apart in `observe_s` so it inflates no layer's self time.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class TraceGuardError(RuntimeError):
    """A traced name is missing, or a layer the workload needs was never called."""


class Recorder:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.observe_s = 0.0
        self._open: list[float] = []  # time of closed child spans, per open span

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, span: str, fn, observe=None):
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = open_spans.pop()
                self.calls[span] = self.calls.get(span, 0) + 1
                self.self_s[span] = self.self_s.get(span, 0.0) + dt - children
                if open_spans:
                    open_spans[-1] += dt
            if observe is not None:
                t1 = clock()
                observe(self, args, kwargs, result)
                spent = clock() - t1
                self.observe_s += spent
                if open_spans:
                    open_spans[-1] += spent
            return result

        return traced


@contextmanager
def traced(pkg, recorder: Recorder, targets):
    """Route each (module, attribute, span, observer) target through `recorder`.

    The original functions are restored on exit, also after an error.
    """
    originals = []
    try:
        for module_name, attr, span, observe in targets:
            module = getattr(pkg, module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise TraceGuardError(
                    f"traced name {module.__name__}.{attr} is missing; update the targets in bench/layers.py"
                )
            originals.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(span, fn, observe))
        yield recorder
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def require_calls(recorder: Recorder, spans) -> None:
    """Fail loudly if a span the workload depends on recorded no calls."""
    silent = [span for span in spans if recorder.calls.get(span, 0) == 0]
    if silent:
        raise TraceGuardError(f"spans recorded zero calls: {', '.join(silent)}")


def check_coverage(recorder: Recorder, trial_s: float, tolerance: float = 0.05) -> float:
    """Share of traced trial time the spans account for; fails outside tolerance.

    Self times plus observer time must add up to the trial time measured
    around each trial, so no layer is silently double counted or missed.
    """
    covered = sum(recorder.self_s.values()) + recorder.observe_s
    share = covered / trial_s if trial_s > 0 else 0.0
    if abs(share - 1.0) > tolerance:
        raise TraceGuardError(
            f"span self times cover {share:.3f} of traced trial time (allowed 1 +/- {tolerance})"
        )
    return share
