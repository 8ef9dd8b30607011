"""Small measurement helpers: supported percentiles, /metrics diffs and
span self time.

Everything here is pure (no I/O), so the benchmark's own tests pin it.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the number is a guess about the largest few.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def samples_needed(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above
    the ``q``-th percentile (``q`` in (0, 100))."""
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``values``.

    Raises :class:`UnsupportedPercentile` unless at least
    ``MIN_BEYOND`` samples lie beyond it.
    """
    n = len(values)
    if n < samples_needed(q):
        raise UnsupportedPercentile(
            f"p{q:g} needs {samples_needed(q)} samples for {MIN_BEYOND} "
            f"beyond it, got {n}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise UnsupportedPercentile("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- Prometheus text scrape -------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+0-9.eEinfNa]+)"
)


def parse_prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """``(metric name, label block)`` → value, for every sample line.

    Exemplar suffixes (``# {...} v ts``) and comment lines are ignored.
    """
    samples: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        samples[(match["name"], match["labels"] or "")] = float(match["value"])
    return samples


def scrape_diff(
    before: Mapping[Tuple[str, str], float],
    after: Mapping[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """Per-sample growth between two scrapes (a series absent from the
    first scrape started at 0)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def metric_total(
    samples: Mapping[Tuple[str, str], float],
    name: str,
    label: Optional[str] = None,
) -> float:
    """Sum of every series of ``name`` (optionally only those whose
    label block contains ``label``, e.g. ``'result="hit"'``)."""
    return sum(
        value
        for (metric, labels), value in samples.items()
        if metric == name and (label is None or label in labels)
    )


# -- span self time ---------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[int, float]:
    """Span id → its duration minus the part its children cover.

    A span is ``{"id", "parent", "start", "end", ...}``; children are
    the spans whose ``parent`` is its ``id`` (overlapping children count
    once).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }
