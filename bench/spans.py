"""Layer spans recorded from outside the program.

The tracer replaces, for the duration of a `with` block, the module
attributes that `graduator.cli` and `graduator.analysis` look up at call
time with wrappers that record a span per call: name, start, end, parent
span and invocation id, read from the process CPU clock like the untraced
calls.  Spans stay in memory until the run writes them out.  `lattice` has no boundary visible from here, so its cost shows up as
`analysis.kildall` self time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

import graduator.analysis
import graduator.cli

# (module, attribute, span name): every boundary the CLI crosses into a layer.
BOUNDARIES = (
    (graduator.cli, "parse", "syntax.parse"),
    (graduator.cli, "check_surface", "syntax.check_surface"),
    (graduator.cli, "lower", "cfg.lower"),
    (graduator.cli, "validate", "cfg.validate"),
    (graduator.cli, "analyze", "analysis.analyze"),
    (graduator.cli, "run", "runtime.run"),
    (graduator.analysis, "kildall", "analysis.kildall"),
    (graduator.analysis, "static_warnings", "analysis.findings"),
    (graduator.analysis, "check_sites", "analysis.findings"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None for a root
    invocation: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # What the wrapped calls of the current invocation returned, by span
    # name; the caller reads the work counts from it and drops it.
    returned: dict[str, object] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _invocation: int = -1
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.process_time(), 0.0, parent, self._invocation))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.process_time()

    def invoke(self, invocation: int, fn, *args):
        """Run one CLI call as a root `cli.main` span."""
        self._invocation = invocation
        self.returned = {}
        return self.span("cli.main", fn, *args)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = self.span(name, fn, *args, **kwargs)
            self.returned[name] = value
            return value

        return wrapper

    def __enter__(self) -> "Tracer":
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Seconds per invocation and span name, children's time subtracted."""
        out: dict[int, dict[str, float]] = {}
        for s in self.spans:
            own = out.setdefault(s.invocation, {})
            own[s.name] = own.get(s.name, 0.0) + (s.end - s.start)
            if s.parent is not None:
                p = self.spans[s.parent].name
                own[p] = own.get(p, 0.0) - (s.end - s.start)
        return out
