"""Outside-in spans around the layer boundaries of ``repro``.

The benchmark measures its end-to-end numbers untraced, then reruns the
same operations with a :class:`Tracer` installed.  Installing it replaces
each traced function *at the attribute its caller looks it up by* (a
module global, or a class attribute for methods) with a wrapper that
records a span and calls straight through, so tracing never changes a
result.  Nothing under ``src/`` knows it is being traced.

Spans are kept in memory (name, start, end, parent, thread) and written
as JSONL when the run ends.  A layer's *self* time is its span's
duration minus the part covered by its child spans, so summing self
times over a subtree gives back the root span's wall time.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: ``(name, start, end, parent index, thread id)``; ``end`` is ``None``
#: while the span is open and ``parent`` is -1 for a root span.
Span = List


class Tracer:
    """Records spans and counters for the functions it is installed on."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        A call nested directly inside a span of the same name (an
        override calling ``super()``) is not recorded again, so busy
        times and counts are never doubled.
        """
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1,
                               threading.get_ident()])
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()
        if count is not None:
            self.add(count(args, kwargs, result))
        return result

    def add(self, increments: Dict[str, float]) -> None:
        with self._lock:
            self.counters.update(increments)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, owner, attr: str, name: Optional[str], count=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`uninstall`.

        ``owner`` is a module or a class (or a dotted module path).  With
        ``name=None`` the wrapper only updates counters, for functions
        called too often to afford a span each.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        original = owner.__dict__[attr]
        if name is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                self.add(count(args, kwargs, result))
                return result
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, original, args, kwargs, count)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children
        (0 for a span still open)."""
        own = [0.0 if end is None else end - start
               for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if end is not None and parent >= 0:
                own[parent] -= end - start
        return own

    def busy_and_self(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: summed duration, summed self time, and call count."""
        busy: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span, self_time in zip(self.spans, self._self_times()):
            name, start, end = span[:3]
            if end is not None:
                busy[name] += end - start
                own[name] += self_time
                calls[name] += 1
        return dict(busy), dict(own), dict(calls)

    def durations(self, name: str) -> List[Tuple[float, float]]:
        """``(start, end)`` of every closed span called ``name``, in start order."""
        return sorted((span[1], span[2]) for span in self.spans
                      if span[0] == name and span[2] is not None)

    def write_jsonl(self, path: Path, origin: float) -> Path:
        """Write one JSON object per span, times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, thread) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "thread": thread,
                    "start": start - origin,
                    "end": None if end is None else end - origin,
                }) + "\n")
        return path
