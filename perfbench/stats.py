"""Summary statistics the benchmark reports: percentiles with their sample
counts, quartile spreads, and self-time arithmetic over a span tree."""

from __future__ import annotations

import math
from dataclasses import dataclass


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    Matches ``numpy.percentile``'s default method, without needing numpy.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass(frozen=True)
class Pct:
    """A percentile together with how many samples it rests on.

    Attributes:
        q: The percentile (50 = median).
        value: Its value.
        count: Samples in the distribution.
        beyond: Samples strictly above the value.
    """

    q: float
    value: float
    count: int
    beyond: int


def pct(values: list[float], q: float) -> Pct:
    """:func:`percentile` plus the sample count and samples beyond it."""
    value = percentile(values, q)
    return Pct(q, value, len(values), sum(1 for v in values if v > value))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Span:
    """One timed call: ``start``/``end`` are host seconds, ``parent`` the
    index of the enclosing span (``-1`` at top level)."""

    name: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's self time: its duration minus the part of its interval
    that its child spans cover.

    Children of one span never overlap each other (the benchmark runs on
    one thread), but a child is clipped to its parent's interval so a
    clock skew between the two can never produce a negative self time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            lo = max(span.start, parent.start)
            hi = min(span.end, parent.end)
            covered[span.parent] += max(0.0, hi - lo)
    return [max(0.0, s.duration - c) for s, c in zip(spans, covered)]


@dataclass
class SpanSummary:
    """Totals over every span of one name.

    Attributes:
        calls: Spans recorded (entries into the layer from outside it).
        total: Summed duration, host seconds.
        self_time: Summed self time, host seconds.
    """

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0

    @property
    def unattributed(self) -> float:
        """Share of this region's time no child span accounts for."""
        return self.self_time / self.total if self.total > 0 else 0.0


def summarize(spans: list[Span]) -> dict[str, SpanSummary]:
    """Per-name call counts, total and self time."""
    out: dict[str, SpanSummary] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, SpanSummary())
        entry.calls += 1
        entry.total += span.duration
        entry.self_time += own
    return out
