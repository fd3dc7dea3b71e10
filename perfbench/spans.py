"""In-memory spans recorded around calls into the package's layers.

Wrappers are installed on module-level names and ``USeqTrie`` methods only for
a traced pass and removed afterwards, so untraced passes run the package
untouched. Each span keeps its parent (the span open when it started) and its
children, so a layer's self time is its duration minus its children's.
A hook whose target no longer exists is recorded as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections.abc import Callable
from typing import Any

# Spans of kind CALL mark the benchmark's own entry calls (a mine, an init, a
# step). They give structure (self time, parentage) but do not count towards
# coverage: only LAYER spans name where time went.
LAYER = "layer"
CALL = "call"


class Span:
    __slots__ = ("name", "kind", "parent", "start", "end", "attrs", "children")

    def __init__(self, name: str, kind: str, parent: "Span | None"):
        self.name = name
        self.kind = kind
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.attrs: dict[str, float] = {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counters hooked at a boundary: before(args) runs outside the span's time,
# after(span, result, args) attaches counts to the finished span.
Before = Callable[..., dict[str, float]]
After = Callable[..., None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[Span] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def _begin(self, name: str, kind: str) -> Span:
        span = Span(name, kind, self._open[-1] if self._open else None)
        if span.parent is not None:
            span.parent.children.append(span)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def hook(
        self,
        module: str,
        attr: str,
        *,
        cls: str | None = None,
        kind: str = LAYER,
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Wrap ``module.attr`` (or ``module.cls.attr``) with a named span."""
        short = module.rsplit(".", 1)[-1]
        name = f"{short}.{cls}.{attr}" if cls else f"{short}.{attr}"
        try:
            owner: Any = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            pre = before(*args, **kwargs) if before else None
            span = self._begin(name, kind)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._finish(span)
            if pre:
                span.attrs.update(pre)
            if after:
                after(span, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- queries ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def count(self, attr: str, *names: str) -> float:
        return sum(s.attrs.get(attr, 0.0) for s in self.spans if s.name in names)

    def covered(self) -> float:
        """Seconds inside LAYER spans, counting nested layer spans once."""
        total = 0.0
        for s in self.spans:
            if s.kind != LAYER:
                continue
            node = s.parent
            while node is not None and node.kind != LAYER:
                node = node.parent
            if node is None:
                total += s.duration
        return total
