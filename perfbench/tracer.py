"""Spans and counters recorded from outside the program.

The benchmark never edits code under ``src/``: it replaces public functions
and methods of the program's layers with thin wrappers for the duration of a
traced window, then puts the originals back.  Each wrapped call records one
span ``(id, parent, op, name, start, end, nested, nested_layer)``:

* ``parent`` is the span that was open on the same thread when the call
  started (the span that caused it);
* ``op`` is the op key the calling thread carried; threads that work for an
  op they cannot name (server handler and service worker threads) carry a
  placeholder key that :meth:`Tracer.alias` later maps to the op id;
* ``nested`` marks a call made while a span of the same name was already open
  on the thread (a subclass method calling ``super()``), so inclusive times
  count the outermost call only; ``nested_layer`` does the same for the layer,
  the part of the name before the first dot, so a layer's time is not counted
  twice when one of its calls makes another.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional


class MissingHook(LookupError):
    """A function the traced run wraps is not defined where layers.py expects it."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._aliases: dict[Any, Any] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Op context
    # ------------------------------------------------------------------ #

    def set_op(self, key: Any) -> None:
        """Tag every span this thread records from now on with ``key``."""
        self._local.op = key

    def op_key(self) -> Any:
        return getattr(self._local, "op", None)

    def alias(self, key: Any, target: Any) -> None:
        """Resolve spans tagged ``key`` to the op ``target`` (another key or an id)."""
        self._aliases[key] = target

    def resolve(self, key: Any) -> Any:
        seen = 0
        while key in self._aliases and seen < 8:
            key = self._aliases[key]
            seen += 1
        return key

    # ------------------------------------------------------------------ #
    # Counters and wrappers
    # ------------------------------------------------------------------ #

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.active = defaultdict(int)
        return stack, local.active

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans = self.spans
        ids = self._ids

        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, active = self._thread_state()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            nested = active[name] > 0
            nested_layer = active[layer] > 0
            stack.append(span_id)
            active[name] += 1
            active[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
                spans.append(
                    (span_id, parent, self.op_key(), name, start, end, nested, nested_layer)
                )
            if hook is not None and not nested:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn: Callable, hook: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return wrapper

    def install(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`.

        An attribute the program no longer defines raises
        :class:`MissingHook`, so a renamed or moved function fails the traced
        run instead of reading as a layer that does no work.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            raise MissingHook(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span(
        self, owner: Any, attr: str, name: str, hook: Optional[Callable] = None
    ) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``hook(args, kwargs, result)`` runs after each outermost call, for
        counters measured where the work happens.
        """
        self.install(owner, attr, lambda fn: self._span(name, fn, hook))

    def count(self, owner: Any, attr: str, hook: Callable) -> None:
        """Run ``hook(args, kwargs, result)`` after every call, with no span."""
        self.install(owner, attr, lambda fn: self._counter(fn, hook))

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Aggregation and output
    # ------------------------------------------------------------------ #

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost calls), self seconds.

        Self time is a span's duration minus the time its child spans cover;
        children of one span run on its thread one after another, so their
        durations add up without overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _name, start, end, *_flags in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for span_id, _parent, _op, name, start, end, nested, _layer in self.spans:
            entry = out[name]
            entry["calls"] += 1
            duration = end - start
            if not nested:
                entry["inclusive_s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
        return dict(out)

    def layer_inclusive(self) -> dict[str, float]:
        """Per layer (name prefix): seconds inside its outermost spans."""
        out: dict[str, float] = defaultdict(float)
        for _id, _parent, _op, name, start, end, _nested, nested_layer in self.spans:
            if not nested_layer:
                out[name.split(".", 1)[0]] += end - start
        return dict(out)

    def write(self, path: str, origin: float) -> None:
        """Write every span (times relative to ``origin``) as gzip'd JSON."""
        rows = [
            [span_id, parent, self.resolve(op), name,
             round(start - origin, 7), round(end - origin, 7)]
            for span_id, parent, op, name, start, end, *_flags in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                 "spans": rows},
                handle,
                default=str,
            )
