"""Timing shims installed from outside the program.

A :class:`Tracer` replaces a public function or method of a layer with a
wrapper that records one span (name, start, end, parent) per call, keeps
the spans in memory, and restores the originals on :meth:`Tracer.remove`.
Nothing under ``src/`` changes: a module-level function is swapped in its
defining module and in every ``repro`` module that imported it by name,
a method is swapped on its class.

:class:`MilpProbe` is the one probe the untraced run also carries: it
counts HiGHS solves and the solves that stopped at the time limit, which
the determinism report needs beside the simulated throughput.  It adds
one Python call per solve, against solves of milliseconds to seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from stats import Span, SpanSummary, summarize

#: scipy ``milp`` status for "iteration or time limit reached".
HIGHS_LIMIT_STATUS = 1


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``module:qualname``."""
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    return owner, attr, raw


class _Patcher:
    """Swaps attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, module: str, qualname: str, make: Callable[[Any], Any]) -> None:
        owner, attr, raw = _resolve(module, qualname)
        replacement = make(raw)
        owners = [owner]
        if not inspect.isclass(owner):
            # Rebind the name in every repro module that imported it.
            owners += [
                mod
                for key, mod in list(sys.modules.items())
                if key.startswith("repro") and mod is not owner
                and getattr(mod, attr, None) is raw
            ]
        for target in owners:
            self._saved.append((target, attr, raw))
            setattr(target, attr, replacement)

    def restore(self) -> None:
        for target, attr, raw in reversed(self._saved):
            setattr(target, attr, raw)
        self._saved.clear()


class MilpProbe:
    """Counts HiGHS solves and time-limit stops inside ``milp_pack``."""

    def __init__(self) -> None:
        self.solves = 0
        self.limit_hits = 0
        self._patcher = _Patcher()

    def install(self) -> "MilpProbe":
        def make(solve):
            @functools.wraps(solve)
            def counted(*args, **kwargs):
                result = solve(*args, **kwargs)
                self.solves += 1
                if result.status == HIGHS_LIMIT_STATUS:
                    self.limit_hits += 1
                return result

            return counted

        self._patcher.patch("repro.scheduler.milp", "milp", make)
        return self

    def remove(self) -> None:
        self._patcher.restore()

    def take(self) -> tuple[int, int]:
        """``(solves, limit_hits)`` since the last call; resets both."""
        out = (self.solves, self.limit_hits)
        self.solves = self.limit_hits = 0
        return out


#: A post-call hook: ``(counters, args, result)``; adds counts taken from
#: the call's arguments or return value.
Post = Callable[[Counter, tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One public function or method to time as layer span ``name``."""

    name: str
    module: str
    qualname: str
    post: Post | None = None


class Tracer:
    """Records spans around the :class:`Target` calls while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patcher = _Patcher()

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, post, counters = target.name, target.post, self.counters
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = self.open(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self.close(index)
                if post is not None:
                    post(counters, args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if post is not None:
                post(counters, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target]) -> "Tracer":
        for target in targets:
            self._patcher.patch(
                target.module,
                target.qualname,
                lambda fn, target=target: self._wrap(target, fn),
            )
        return self

    def remove(self) -> None:
        self._patcher.restore()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, SpanSummary]:
        """Per-name totals, counting a span only when no ancestor has the
        same name (re-entry into a layer is not double counted); self time
        is summed over every span."""
        out = summarize(self.spans)
        for summary in out.values():
            summary.calls = 0
            summary.total = 0.0
        for span in self.spans:
            parent = span.parent
            while parent >= 0 and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent < 0:
                out[span.name].calls += 1
                out[span.name].total += span.duration
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span plus per-name summaries as JSON."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = {
            **extra,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    "parent": s.parent,
                }
                for s in self.spans
            ],
            "summary": {
                name: {
                    "calls": v.calls,
                    "total_s": v.total,
                    "self_s": v.self_time,
                    "unattributed": v.unattributed,
                }
                for name, v in sorted(self.layer_totals().items())
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
