"""The process-local metrics registry.

Three instrument kinds, all dependency-free and thread-safe:

* :class:`Counter` — a monotonically increasing number (int increments
  stay exact ints; float increments are allowed for accumulated
  seconds).
* :class:`Gauge` — a point-in-time value (``set``/``inc``/``dec``).
* :class:`Histogram` — fixed upper-edge buckets chosen at creation;
  ``observe(v)`` lands in the first bucket with ``v <= edge``, values
  above the last edge land in the implicit overflow bucket.

Instruments are owned by a :class:`MetricsRegistry` and addressed by
``(name, labels)``; asking for the same pair twice returns the same
child, so call sites never coordinate.  A registry can be rendered to a
JSON-able :meth:`~MetricsRegistry.snapshot` (the ``--metrics`` file and
the serving ``/metrics`` source).

Exactness: every mutation happens under the instrument's lock, so
concurrent threads (the serving loop and its engine thread) never lose
increments.  The lock is a plain ``threading.Lock`` — cheap enough for
per-call counters; genuinely hot per-node loops should accumulate
locally and flush one bulk ``inc``.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "labels_suffix",
    "quantile_from_counts",
]

Number = Union[int, float]

DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)
"""Default histogram edges for wall-time observations, in seconds."""

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def labels_suffix(labels: Mapping[str, str]) -> str:
    """Render labels as ``{k=v,...}`` (empty string for no labels)."""
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def quantile_from_counts(
    edges: Sequence[Number], counts: Sequence[int], count: int, q: float
) -> float:
    """Upper-edge quantile estimate from fixed-bucket counts.

    Conservative in the upper-bound sense: the true quantile of the
    observed values is never above the returned edge — except when the
    target rank falls in the overflow bucket (values above every edge),
    where the last edge is the best available answer and the estimate
    becomes a lower bound instead.  ``counts`` has one entry per edge
    plus the trailing overflow bucket; ``count`` is the total number of
    observations (the sliding-window aggregator calls this with merged
    bucket arrays, a :class:`Histogram` with its own).
    """
    if count <= 0:
        return 0.0
    target = q * count
    cumulative = 0
    for edge, bucket in zip(edges, counts):
        cumulative += bucket
        if cumulative >= target:
            return float(edge)
    return float(edges[-1])  # overflow bucket: bounded below by the last edge


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value


class Gauge:
    """A settable point-in-time value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self._value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Number:
        return self._value


class Histogram:
    """Fixed-bucket histogram: ``counts[i]`` holds observations with
    ``v <= edges[i]`` (first matching edge); ``counts[-1]`` is the
    overflow bucket for values above every edge."""

    __slots__ = ("name", "labels", "edges", "counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        edges: Sequence[Number] = DEFAULT_TIME_BUCKETS,
    ):
        if not edges:
            raise ValueError(f"histogram {name!r}: needs at least one bucket edge")
        ordered = tuple(edges)
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram {name!r}: edges must strictly increase")
        self.name = name
        self.labels = dict(labels)
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum: Number = 0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        idx = len(self.edges)  # overflow by default
        for i, edge in enumerate(self.edges):
            if value <= edge:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile (0 when empty).

        Generic fixed-bucket math (:func:`quantile_from_counts`); the
        serving stats op and the sliding-window aggregator share it.
        """
        with self._lock:
            counts = list(self.counts)
            count = self.count
        return quantile_from_counts(self.edges, counts, count, q)


class MetricsRegistry:
    """A family of named, labeled instruments with snapshot support."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}

    # -- instrument lookup/creation -------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labels_key(labels))
        child = self._counters.get(key)
        if child is None:
            with self._lock:
                child = self._counters.setdefault(key, Counter(name, dict(key[1])))
        return child

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labels_key(labels))
        child = self._gauges.get(key)
        if child is None:
            with self._lock:
                child = self._gauges.setdefault(key, Gauge(name, dict(key[1])))
        return child

    def histogram(
        self,
        name: str,
        edges: Optional[Sequence[Number]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _labels_key(labels))
        child = self._histograms.get(key)
        if child is None:
            with self._lock:
                child = self._histograms.setdefault(
                    key, Histogram(name, dict(key[1]), edges or DEFAULT_TIME_BUCKETS)
                )
        if edges is not None and tuple(edges) != child.edges:
            raise ValueError(
                f"histogram {name!r} already exists with edges {child.edges}"
            )
        return child

    # -- convenience reads ----------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> Number:
        key = (name, _labels_key(labels))
        child = self._counters.get(key)
        return child.value if child is not None else 0

    def flat(self, prefix: str = "") -> Dict[str, Number]:
        """Counters and gauges as ``name{labels} -> value`` (prefix-filtered)."""
        out: Dict[str, Number] = {}
        with self._lock:
            instruments: List = list(self._counters.values()) + list(
                self._gauges.values()
            )
        for inst in instruments:
            if not inst.name.startswith(prefix):
                continue
            out[inst.name + labels_suffix(inst.labels)] = inst.value
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, point-in-time image of every instrument."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "kind": "metrics-snapshot",
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for c in sorted(counters, key=lambda c: (c.name, _labels_key(c.labels)))
            ],
            "gauges": [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for g in sorted(gauges, key=lambda g: (g.name, _labels_key(g.labels)))
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": h.labels,
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for h in sorted(
                    histograms, key=lambda h: (h.name, _labels_key(h.labels))
                )
            ],
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- persistence ----------------------------------------------------

    def dump_json(self, path) -> None:
        """Write :meth:`snapshot` as pretty JSON to ``path``."""
        from pathlib import Path

        Path(path).write_text(json.dumps(self.snapshot(), indent=2) + "\n")

    @staticmethod
    def load_snapshot(path) -> Dict[str, Any]:
        from pathlib import Path

        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or payload.get("kind") != "metrics-snapshot":
            raise ValueError(f"{path}: not a metrics snapshot")
        return payload
