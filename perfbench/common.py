"""Shared plumbing of the benchmark: statistics, spans, registry deltas.

This module does not import the program under test.
"""

from __future__ import annotations

import json
import math
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


# -- Statistics ----------------------------------------------------------------


def quantile(values, fraction: float) -> float:
    """Linear-interpolated quantile of ``values`` (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


def geometric_mean(values) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- Host speed ----------------------------------------------------------------

#: Seconds :func:`calibration_work` takes on the reference host at its
#: usual speed.  Every timed figure is reported in seconds at that speed.
CALIBRATION_S = 0.005
#: Seconds of timed work per extra probe (about 5% of the time probing).
PROBE_EVERY_S = 0.1


def calibration_work() -> int:
    """A fixed pure-Python loop that times the host, not the program.

    It allocates no containers but one dict, so the garbage collector and
    the program's heap do not change its time.
    """
    counts: dict[int, int] = {}
    for number in range(20_000):
        key = number % 997
        counts[key] = counts.get(key, 0) + number
    return len(counts)


def probe_seconds() -> float:
    """Seconds one :func:`calibration_work` takes now."""
    started = time.perf_counter()
    calibration_work()
    return time.perf_counter() - started


def speed_factor(probes) -> float:
    """Reference seconds per raw second, from the times of some probes."""
    return CALIBRATION_S * len(probes) / sum(probes)


class Pace:
    """Calibration probes taken next to a stretch of timed work.

    The reference host (2 vCPUs of a shared machine) runs the same work
    up to 1.8 times faster or slower from one stretch of seconds to the
    next, and the guest sees no steal time for it.  A probe is one timed
    :func:`calibration_work`; :meth:`factor` turns raw seconds measured
    beside the probes into seconds at the reference speed.  Work and
    probes alternate, so both see the same speed; :meth:`follow` weights
    the probes by the time of the work they follow.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def probe(self, times: int = 1) -> None:
        self.probes += [probe_seconds() for _ in range(times)]

    def follow(self, seconds: float) -> None:
        """Probe after ``seconds`` of timed work: once, and once more per
        :data:`PROBE_EVERY_S` of it."""
        self.probe(1 + int(seconds / PROBE_EVERY_S))

    def factor(self) -> float:
        return speed_factor(self.probes)


#: Probes before and after each timed set-up.
SETUP_PROBES = 10


def timed_at_reference(action, samples: list[float]):
    """Run ``action()``, append its time at the reference speed to
    ``samples`` and return its result."""
    pace = Pace()
    pace.probe(SETUP_PROBES)
    started = time.perf_counter()
    result = action()
    raw = time.perf_counter() - started
    pace.probe(SETUP_PROBES)
    samples.append(raw * pace.factor())
    return result


# -- Outcome bookkeeping -------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and how many failed or returned wrong rows."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, ok: bool, what: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def same_rows(relation, expected) -> bool:
    """Row-set equality of two relations (column order included)."""
    return (tuple(relation.columns) == tuple(expected.columns)
            and set(relation.rows) == set(expected.rows))


def row_digest(relation) -> tuple:
    """Columns, size and an order-free hash of a relation's row set.

    Equal row sets give equal digests within one process; keeping digests
    instead of results lets a run check its results after it measured.
    """
    return (tuple(relation.columns), len(relation.rows),
            hash(frozenset(relation.rows)))


# -- Spans ---------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans around calls into the program's public functions.

    Each span has a name (``<layer>.<operation>``), start and end times, its
    parent span and the id of the request it belongs to.  The parent is the
    innermost open span of the calling thread.  Spans are written out only
    by :meth:`write`, at the end of a run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str = ""):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        record = Span(span_id=span_id,
                      parent_id=parent.span_id if parent else None,
                      request_id=request_id or (parent.request_id
                                                if parent else ""),
                      name=name, start=time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: Span) -> None:
        """Record a span measured elsewhere (e.g. server-side timings)."""
        with self._lock:
            self._next_id += 1
            self.spans.append(Span(span_id=self._next_id,
                                   parent_id=parent.span_id,
                                   request_id=parent.request_id, name=name,
                                   start=start, end=end))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id] = (children.get(span.parent_id, 0.0)
                                            + span.duration)
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.duration - children.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + max(own, 0.0)
        return totals

    def layer_self_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent_id,
                    "request": span.request_id, "name": span.name,
                    "start": round(span.start, 9), "end": round(span.end, 9),
                }) + "\n")


class NoSpans:
    """Stand-in recorder for untraced runs: spans cost one no-op call."""

    @contextmanager
    def span(self, name: str, request_id: str = ""):
        yield None


# -- Registry deltas -----------------------------------------------------------


def counter_totals(flat: dict[str, object], *names: str) -> float:
    """Sum of every labelled series of the named counters in a snapshot."""
    total = 0.0
    for key, value in flat.items():
        base = key.split("{", 1)[0]
        if base in names:
            total += float(value)
    return total


def parse_prometheus(text: str) -> dict[str, float]:
    """``name{labels} value`` lines of a Prometheus text body."""
    flat: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            flat[key] = float(value)
        except ValueError:
            continue
    return flat
