"""Spans and counters recorded around calls into uralid's public functions.

The wrappers live here, in the benchmark, and are swapped in by name for
the duration of a traced round only: untraced rounds run the package
untouched. A wrapper replaces the name where its caller looks it up (for
``from .features import tokenize`` that is ``uralid.models.tokenize``, not
``uralid.features.tokenize``).

Coarse calls (a model load, a pipeline stage) become spans: name, start,
end, the index of the enclosing span and the benchmark phase. Hot calls (tokenize, one n-gram
extraction, one CJK check) run hundreds of thousands of times a round, so
they are only summed, per enclosing benchmark phase, to keep the trace
small and its overhead low.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

HOT_PHASE_NONE = "-"


class Tracer:
    """Spans, per-phase hot-call totals and counters of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, phase]
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])  # (name, phase) -> [calls, s]
        self.counters: dict[str, float] = defaultdict(float)
        self.sets: dict[str, set] = defaultdict(set)
        self.phase = HOT_PHASE_NONE
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, phase: bool = False):
        """Time a block as a span; ``phase`` also makes it the hot-call scope."""
        index = len(self.spans)
        outer = self.phase
        if phase:
            self.phase = name
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self.phase = outer
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def span_seconds(self, name: str, phase: str | None = None) -> float:
        return sum(
            end - start for n, start, end, _, p in self.spans if n == name and phase in (None, p)
        )

    def hot_seconds(self, name: str, phase: str | None = None) -> float:
        return sum(s for (n, p), (_, s) in self.hot.items() if n == name and phase in (None, p))

    # -- wrappers -----------------------------------------------------------

    def wrap_span(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._swap(owner, attr, original, traced)

    def wrap_hot(self, owner, attr: str, name: str, observe=None) -> None:
        """Sum calls and seconds; ``observe(tracer, args, result)`` may count more."""
        original = getattr(owner, attr)
        clock = time.perf_counter
        hot = self.hot

        def traced(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            cell = hot[(name, self.phase)]
            cell[0] += 1
            cell[1] += clock() - start
            if observe is not None:
                observe(self, args, result)
            return result

        self._swap(owner, attr, original, traced)

    def wrap_observe(self, owner, attr: str, observe) -> None:
        """Count without timing: ``observe(tracer, args)`` runs before the call."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            observe(self, args)
            return original(*args, **kwargs)

        self._swap(owner, attr, original, traced)

    def _swap(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                for n, s, e, p, ph in self.spans
            ],
            "hot": [
                {"name": n, "phase": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in sorted(self.hot.items())
            ],
        }
