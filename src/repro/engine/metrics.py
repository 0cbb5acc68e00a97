"""Unified run metrics: counters, timers, gauges, and snapshot sources.

Before the staged engine, every layer kept its own accounting island —
:class:`~repro.yahooapi.client.ClientStats` inside the PlaceFinder client,
:class:`~repro.datasets.refine.RefinementFunnel` inside the refinement,
crawl counters inside :class:`~repro.twitter.crawler.CrawlResult`.  The
:class:`MetricsRegistry` gives one place all of them report into, so a
single :meth:`MetricsRegistry.snapshot` call describes a whole study run.

Naming convention (see DESIGN.md "Execution architecture"): dotted
lower-case paths, ``<subsystem>.<metric>`` — e.g. ``geocode.requests``,
``funnel.study_users``, ``crawl.api_calls``, ``grouping.users``, and
``stage.<stage>.s`` for per-stage wall time.  Existing stats objects keep
their own classes and *re-register* here via :meth:`register_source`, so
legacy call sites keep working while engine runs see everything.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Mapping
from contextlib import contextmanager

from repro.errors import ConfigurationError

#: A snapshot source: zero-argument callable returning a (possibly nested)
#: mapping of metric names to numbers; evaluated lazily at snapshot time.
SnapshotSource = Callable[[], Mapping[str, object]]

#: Default observation window of a :class:`LatencyHistogram` — large
#: enough for stable tail percentiles, small enough that a long-lived
#: server never grows without bound.
DEFAULT_HISTOGRAM_WINDOW = 4096


class LatencyHistogram:
    """Bounded sliding-window histogram with percentile summaries.

    The serving layer records one of these per endpoint.  Observations
    land in a fixed-size ring buffer (the most recent ``window`` values),
    while ``count``/``sum``/``max`` track the full lifetime — so p50/p95/
    p99 describe *recent* behaviour and the totals describe the whole
    run.  All operations are thread-safe: HTTP handler threads observe
    concurrently with ``/metrics`` snapshots.

    Observations may carry an *epoch* — an opaque integer identifying the
    regime they were measured under (the serving layer passes the
    snapshot store's generation).  The window only ever holds samples
    from one epoch: the first observation of a new epoch clears it, so
    percentiles never average latencies measured against different
    snapshots across an ``/admin/reload`` swap.  Lifetime ``count`` /
    ``total`` / ``max`` still span every epoch.

    Args:
        window: Ring-buffer capacity (>= 1).

    Raises:
        ConfigurationError: for a non-positive window.
    """

    def __init__(self, window: int = DEFAULT_HISTOGRAM_WINDOW):
        if window < 1:
            raise ConfigurationError(f"histogram window must be >= 1, got {window}")
        self._window = window
        self._ring: list[float] = []
        self._next = 0
        self._epoch = 0
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def epoch(self) -> int:
        """The epoch the current window's samples belong to (0 initially)."""
        with self._lock:
            return self._epoch

    def observe(self, value: float, epoch: int = 0) -> None:
        """Record one observation (seconds, bytes, whatever the name says).

        Args:
            value: The measurement.
            epoch: Regime tag; a value different from the window's
                current epoch resets the window before recording (the
                lifetime totals are never reset).
        """
        with self._lock:
            if epoch != self._epoch:
                self._ring.clear()
                self._next = 0
                self._epoch = epoch
            if len(self._ring) < self._window:
                self._ring.append(value)
            else:
                self._ring[self._next] = value
                self._next = (self._next + 1) % self._window
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the current window (0.0 empty).

        Nearest-rank on a sorted copy — exact, deterministic, and cheap at
        the serving layer's window sizes.
        """
        with self._lock:
            values = sorted(self._ring)
        return _nearest_rank(values, q)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in: totals always sum; windows obey epochs.

        Same epoch: the windows concatenate (truncated to this
        histogram's capacity).  ``other`` from a newer epoch: its window
        *replaces* this one and the newer epoch is adopted.  ``other``
        from an older epoch: its window samples are dropped — mixing
        them in would reintroduce exactly the cross-swap contamination
        the epoch exists to prevent.  Shard-local histograms never set an
        epoch, so engine merges keep the plain concatenation behaviour.
        """
        with other._lock:
            other_ring = list(other._ring)
            other_epoch = other._epoch
            other_count, other_total, other_max = other.count, other.total, other.max
        with self._lock:
            self.count += other_count
            self.total += other_total
            if other_max > self.max:
                self.max = other_max
            if other_epoch < self._epoch:
                return
            if other_epoch > self._epoch:
                self._ring.clear()
                self._next = 0
                self._epoch = other_epoch
            for value in other_ring:
                if len(self._ring) < self._window:
                    self._ring.append(value)
                else:
                    self._ring[self._next] = value
                    self._next = (self._next + 1) % self._window

    def snapshot(self) -> dict[str, float]:
        """Flat summary: count, mean, max, and the p50/p95/p99 tail.

        One locked copy, sorted once: totals and percentiles describe the
        same instant even while handler threads keep observing.
        """
        with self._lock:
            count, total, peak = self.count, self.total, self.max
            values = list(self._ring)
        values.sort()
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "max": peak,
            "p50": _nearest_rank(values, 50),
            "p95": _nearest_rank(values, 95),
            "p99": _nearest_rank(values, 99),
        }


def _nearest_rank(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of sorted ``values`` (0.0 if empty)."""
    if not values:
        return 0.0
    rank = max(0, min(len(values) - 1, int(round(q / 100.0 * (len(values) - 1)))))
    return values[rank]


def _flatten(prefix: str, mapping: Mapping[str, object], out: dict[str, float]) -> None:
    """Flatten nested mappings into dotted keys (``funnel.profile_status_counts.vague``)."""
    for key, value in mapping.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            _flatten(name, value, out)
        else:
            out[name] = value  # type: ignore[assignment]


class MetricsRegistry:
    """Counters, gauges, accumulated timers, and pluggable snapshot sources.

    Counters and timers are additive (and merge by summation across
    shards); gauges are point-in-time values where the last write wins.
    Sources are live views onto existing stats objects — registering the
    same prefix twice replaces the previous source, so re-running an
    engine over one context never double-counts.
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, float] = {}
        self._sources: dict[str, SnapshotSource] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- record
    def counter(self, name: str, delta: float = 1) -> float:
        """Add ``delta`` to counter ``name`` and return its new value.

        Safe under concurrent callers (the serving layer's handler
        threads share one registry); single-threaded engine runs pay one
        uncontended lock acquisition.
        """
        with self._lock:
            value = self._counters.get(name, 0) + delta
            self._counters[name] = value
            return value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins).

        Locked for the same reason counters are: the live pipeline's
        ingest thread sets gauges while ``/metrics`` handler threads
        snapshot the registry, and an unguarded dict write concurrent
        with iteration is a ``RuntimeError``.
        """
        with self._lock:
            self._gauges[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into timer ``name``."""
        with self._lock:
            self._timers[name] = self._timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating the block's wall time into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def register_source(self, prefix: str, source: SnapshotSource) -> None:
        """Attach a live stats view under ``prefix`` (e.g. ``"geocode"``).

        The callable is evaluated at every :meth:`snapshot`; nested
        mappings flatten into dotted keys.  Re-registering a prefix
        replaces the previous source.

        Raises:
            ConfigurationError: for an empty prefix.
        """
        if not prefix:
            raise ConfigurationError("metrics source prefix must be non-empty")
        with self._lock:
            self._sources[prefix] = source

    def histogram(
        self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW
    ) -> LatencyHistogram:
        """The :class:`LatencyHistogram` registered under ``name``,
        creating it on first use.

        Snapshots surface it as ``<name>.count`` / ``.mean`` / ``.max`` /
        ``.p50`` / ``.p95`` / ``.p99``.  Repeated calls return the same
        instance (the ``window`` argument only applies on creation), so
        hot paths may cache the handle or re-ask by name.

        Raises:
            ConfigurationError: for an empty name.
        """
        if not name:
            raise ConfigurationError("histogram name must be non-empty")
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = LatencyHistogram(window)
                self._histograms[name] = histogram
            return histogram

    # ----------------------------------------------------------------- merge
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters/timers sum, gauges last-write.

        This is how shard-local registries collapse into the run registry;
        sources are copied over as well (same replace-on-conflict rule).
        """
        for name, value in other._counters.items():
            self.counter(name, value)
        for name, seconds in other._timers.items():
            self.add_time(name, seconds)
        with self._lock:
            self._gauges.update(other._gauges)
            self._sources.update(other._sources)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram._window).merge(histogram)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict[str, float]:
        """One flat, sorted dict over counters, gauges, timers, and sources.

        Timer values keep their registered names (convention: a ``.s``
        suffix); source values appear under ``<prefix>.<key>``.
        """
        out: dict[str, float] = {}
        with self._lock:
            out.update(self._counters)
            out.update(self._gauges)
            out.update(self._timers)
            histograms = list(self._histograms.items())
            sources = list(self._sources.items())
        # Histograms and sources are evaluated outside the lock: both
        # take their own locks (or read live objects), and holding ours
        # across them would couple every gauge write to snapshot cost.
        for name, histogram in histograms:
            _flatten(name, histogram.snapshot(), out)
        for prefix, source in sources:
            _flatten(prefix, source(), out)
        return dict(sorted(out.items()))
