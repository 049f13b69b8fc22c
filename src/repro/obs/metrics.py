"""Metrics registry: named counters/gauges/histograms for one PDTL run.

The registry unifies the engine's previously scattered signals -- per-phase
``IOStats`` deltas, fd-cache hit/miss counts from
``externalmem/blockio.py``, shm attach-cache hits from ``core/shm.py``,
scheduler queue depths and steal/re-enqueue counts, ``EdgeSupportSink``
spill events, and per-kernel dispatch counts from
``core/kernel_backend.py`` -- under one flat, dotted namespace.

Conventions:

* Counters are monotone sums (``worker.blockio.fd_cache.hits``); gauges are
  point-in-time values (``scheduler.max_queue_depth``); histograms track
  count/sum/min/max of observations (``scheduler.queue_depth``).
* ``<base>.hits`` / ``<base>.misses`` counter pairs get a derived
  ``<base>.hit_rate`` from :func:`derive_rates`.
* Process-global sources (shm attach cache, kernel dispatch) are harvested
  via before/after snapshots (:func:`snapshot_process_counters` +
  :func:`counter_delta`) so worker processes can ship deltas back to the
  master inside pickled ``ChunkOutcome``s.

Nothing in this module imports ``repro.core`` at module level; the snapshot
helper imports lazily inside the function body to keep the dependency
direction core -> obs.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class Counter:
    """Monotone additive metric."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_items(self) -> list[tuple[str, float]]:
        return [(self.name, self.value)]


class Gauge:
    """Last-write-wins point-in-time metric."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)

    def as_items(self) -> list[tuple[str, float]]:
        return [(self.name, self.value)]


class Histogram:
    """Count/sum/min/max summary of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            self.min = bound if self.min is None else min(self.min, bound)
            self.max = bound if self.max is None else max(self.max, bound)

    def as_items(self) -> list[tuple[str, float]]:
        items = [
            (f"{self.name}.count", self.count),
            (f"{self.name}.sum", self.total),
            (f"{self.name}.mean", self.mean),
        ]
        if self.min is not None:
            items.append((f"{self.name}.min", self.min))
        if self.max is not None:
            items.append((f"{self.name}.max", self.max))
        return items


class MetricsRegistry:
    """Ordered collection of named metrics with get-or-create accessors."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def add_counts(self, counts: Mapping[str, float], prefix: str = "") -> None:
        """Bulk-add a flat mapping of additive counts under ``prefix``."""
        for key in sorted(counts):
            self.inc(f"{prefix}{key}" if prefix else key, counts[key])

    def add_iostats(self, prefix: str, stats) -> None:
        """Fold an ``IOStats``-like object (``as_dict()``) into counters."""
        for key, value in sorted(stats.as_dict().items()):
            if key == "block_size":
                continue
            self.inc(f"{prefix}.{key}", value)

    def observe_each(self, name: str, values: Iterable[float]) -> None:
        histogram = self.histogram(name)
        for value in values:
            histogram.observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        for name, metric in other._metrics.items():
            mine = self._get(name, type(metric))
            mine.merge(metric)

    def as_dict(self) -> dict[str, float]:
        """Flat ``{name: value}`` view, sorted by metric name."""
        items: list[tuple[str, float]] = []
        for metric in self._metrics.values():
            items.extend(metric.as_items())
        return dict(sorted(items))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def derive_rates(counters: Mapping[str, float]) -> dict[str, float]:
    """Derive ``<base>.hit_rate`` for every ``.hits``/``.misses`` pair.

    Works on any flat counter mapping; pairs with zero total are skipped so
    a rate is only reported when the cache was actually exercised.
    """
    rates: dict[str, float] = {}
    for key, hits in counters.items():
        if not key.endswith(".hits"):
            continue
        base = key[: -len(".hits")]
        misses = counters.get(f"{base}.misses")
        if misses is None:
            continue
        total = hits + misses
        if total > 0:
            rates[f"{base}.hit_rate"] = hits / total
    return rates


def snapshot_process_counters() -> dict[str, float]:
    """Snapshot the process-global caches instrumented by this package.

    Covers the shm attach cache and the compiled-kernel dispatch counts.
    Call once before and once after a unit of work, then diff with
    :func:`counter_delta`, to attribute increments to that unit.  Inside a
    pool worker (tasks run one at a time) the delta is exact; the
    master-side run-level delta is exact for the serial backend, where
    everything runs in one process.
    """
    from repro.core import kernel_backend, shm

    counters: dict[str, float] = {}
    attach = shm.attach_cache_stats()
    counters["shm.attach_cache.hits"] = attach["hits"]
    counters["shm.attach_cache.misses"] = attach["misses"]
    for key, value in kernel_backend.dispatch_counts().items():
        counters[f"kernel.dispatch.{key}"] = value
    return counters


def counter_delta(
    after: Mapping[str, float], before: Mapping[str, float]
) -> dict[str, float]:
    """Non-zero differences ``after - before``, keyed like ``after``."""
    delta: dict[str, float] = {}
    for key, value in after.items():
        diff = value - before.get(key, 0)
        if diff:
            delta[key] = diff
    return delta
