"""The live loop: firehose → accumulator → delta build → hot swap.

:class:`LiveStudyPipeline` is the one-process composition the ROADMAP's
"millions of users, heavy traffic" story needs: the existing
:class:`~repro.streaming.consumer.StreamPump` ingests micro-batches into
an :class:`~repro.analysis.incremental.IncrementalStudyAccumulator`, and
on a configurable cadence a :class:`~repro.live.builder
.DeltaSnapshotBuilder` turns the accumulator's state into a fresh
:class:`~repro.serving.state.ServingSnapshot` and publishes it through
:meth:`~repro.serving.state.SnapshotStore.swap` — the same atomic swap
``POST /admin/reload`` uses, with no signal and no file round-trip.
Query threads of a running :class:`~repro.serving.http.StudyServer`
observe each publish as a generation bump; in-flight requests keep the
reference they already grabbed.

Scheduling rides the pump's ``on_batch`` hook, which fires *between*
micro-batches on the pump's own thread — the accumulator is quiescent
during a build, so the builder needs no locks against the fold path.
Cadence is by folded batch count, wall-clock seconds (injectable clock),
or both — whichever fires first.

Failure containment is layered:

* a build that raises keeps the previously served snapshot live and
  loses no dirt (the builder re-claims the same users next tick);
* a build whose document digest equals the live snapshot's is not
  swapped at all (``live.swaps_skipped``) — content equality is the
  cheap no-op check, exactly as ``/admin/reload`` of an unchanged file;
* the stream ending forces one final build+swap, so the served state
  always converges to the end-of-stream study.

Observability (on the pump context's registry): gauges
``live.swap_lag_seconds`` (data-ready to swap-complete for the last
publish), ``live.snapshot_age_batches`` (batches folded past the served
snapshot), and ``live.dirty_users`` (rebuild backlog); counters
``live.builds``, ``live.build_failures``, ``live.swaps``,
``live.swaps_skipped``; and a ``live.swap_lag`` latency histogram whose
p95 is the pipeline's freshness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.metrics import MetricsRegistry
from repro.errors import ConfigurationError
from repro.live.builder import DeltaSnapshotBuilder
from repro.serving.state import SnapshotStore
from repro.streaming.consumer import StreamPump
from repro.streaming.snapshot import StreamSnapshot


@dataclass(frozen=True)
class LiveConfig:
    """Cadence tunables for one live pipeline.

    Attributes:
        cadence_batches: Build+swap every N folded micro-batches
            (``None`` disables the batch trigger).
        cadence_seconds: Build+swap when this much wall-clock time has
            passed since the last build (``None`` disables the clock
            trigger).  Checked between batches — a silent stream does
            not wake the builder, which is correct: no folds, no drift.
        pace_s: Optional sleep after every folded batch, throttling a
            synthetic firehose to a human (or CI-smoke) observable rate.
            ``0`` streams flat out.

    Raises:
        ConfigurationError: if both triggers are disabled or any value
            is non-positive.
    """

    cadence_batches: int | None = 8
    cadence_seconds: float | None = None
    pace_s: float = 0.0

    def __post_init__(self) -> None:
        if self.cadence_batches is None and self.cadence_seconds is None:
            raise ConfigurationError(
                "live cadence needs cadence_batches or cadence_seconds"
            )
        if self.cadence_batches is not None and self.cadence_batches < 1:
            raise ConfigurationError(
                f"cadence_batches must be >= 1, got {self.cadence_batches}"
            )
        if self.cadence_seconds is not None and self.cadence_seconds <= 0:
            raise ConfigurationError(
                f"cadence_seconds must be > 0, got {self.cadence_seconds}"
            )
        if self.pace_s < 0:
            raise ConfigurationError(f"pace_s must be >= 0, got {self.pace_s}")


class LiveStudyPipeline:
    """Drives ingestion and snapshot publication in one loop.

    Args:
        pump: The stream scheduler to ride (its ``on_batch`` hook is
            claimed by this pipeline).
        builder: Delta builder over the pump's accumulator.
        store: The serving store swaps publish into (typically the one a
            running :class:`~repro.serving.http.StudyServer` reads).
        config: Cadence tunables.
        clock: Injectable monotonic clock (tests drive cadence and lag
            deterministically).
        sleep: Injectable sleep for ``pace_s`` throttling.
    """

    def __init__(
        self,
        pump: StreamPump,
        builder: DeltaSnapshotBuilder,
        store: SnapshotStore,
        config: LiveConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._pump = pump
        self._builder = builder
        self._store = store
        self._config = config if config is not None else LiveConfig()
        self._clock = clock
        self._sleep = sleep
        self._consumer = pump.consumer
        self._accumulator = self._consumer.accumulator
        self._last_build_at = clock()
        self._batches_at_build = self._consumer.batches
        self._batches_at_swap = self._consumer.batches
        self._builds = 0
        self._build_failures = 0
        self._swaps = 0
        self._swaps_skipped = 0
        pump.on_batch = self._on_batch
        self._metrics = pump.context.metrics
        self._metrics.register_source("live", self.stats_source)

    # ------------------------------------------------------------------ state
    @property
    def metrics(self) -> MetricsRegistry:
        """The registry live gauges/counters land on (the pump's)."""
        return self._metrics

    @property
    def store(self) -> SnapshotStore:
        """The serving store this pipeline publishes into."""
        return self._store

    def stats_source(self) -> dict[str, float]:
        """Live-loop counters for the metrics registry."""
        return {
            "builds": self._builds,
            "build_failures": self._build_failures,
            "swaps": self._swaps,
            "swaps_skipped": self._swaps_skipped,
        }

    # -------------------------------------------------------------------- run
    def run(
        self, start_offset: int = 0, max_batches: int | None = None
    ) -> StreamSnapshot:
        """Pump the stream to exhaustion (or ``max_batches``), publishing
        snapshots on cadence, then force one final build+swap.

        The final publish makes the served state converge to the
        end-of-stream study even when the tail of the stream never
        filled a cadence window; if the last cadenced build already
        covered everything, the digest short-circuit turns it into a
        no-op (``live.swaps_skipped``).
        """
        snapshot = self._pump.run(start_offset=start_offset, max_batches=max_batches)
        self._build_and_swap()
        return snapshot

    # ------------------------------------------------------------------ hooks
    def _on_batch(self) -> None:
        """Per-batch cadence check (runs on the pump's thread)."""
        self._update_gauges()
        if self._config.pace_s > 0:
            self._sleep(self._config.pace_s)
        if self._cadence_due():
            self._build_and_swap()

    def _cadence_due(self) -> bool:
        batches = self._config.cadence_batches
        if (
            batches is not None
            and self._consumer.batches - self._batches_at_build >= batches
        ):
            return True
        seconds = self._config.cadence_seconds
        return (
            seconds is not None
            and self._clock() - self._last_build_at >= seconds
        )

    # ------------------------------------------------------------ build/swap
    def _build_and_swap(self) -> None:
        """One cadence tick: build, maybe swap, never lose the old state.

        ``live.swap_lag_seconds`` measures data-ready → swap-complete:
        the clock starts when the tick begins (every folded batch is in
        the accumulator by then) and stops after the store swap, so it
        covers the full staleness window a freshly folded tweet waits
        before becoming servable.
        """
        started = self._clock()
        self._last_build_at = started
        self._batches_at_build = self._consumer.batches
        try:
            snapshot = self._builder.build()
        except Exception:
            # The previously served snapshot stays live; the builder kept
            # its pending pool, so the next tick retries the same users.
            self._build_failures += 1
            self._metrics.counter("live.build_failures")
            self._update_gauges()
            return
        self._builds += 1
        self._metrics.counter("live.builds")
        if snapshot.digest == self._store.current().digest:
            # Content-equal publish — observationally a no-op, so skip
            # the generation bump (mirrors /admin/reload of an unchanged
            # file reporting changed=false).
            self._swaps_skipped += 1
            self._metrics.counter("live.swaps_skipped")
        else:
            self._store.swap(snapshot)
            self._swaps += 1
            self._metrics.counter("live.swaps")
        self._batches_at_swap = self._consumer.batches
        lag = self._clock() - started
        self._metrics.gauge("live.swap_lag_seconds", lag)
        # Deliberately epoch-0: swap lag is a property of the *pipeline*
        # across publishes, so the window must span generations (unlike
        # per-request serving latency, which partitions on swap).
        self._metrics.histogram("live.swap_lag").observe(lag)
        self._update_gauges()

    def _update_gauges(self) -> None:
        self._metrics.gauge(
            "live.dirty_users",
            self._accumulator.dirty_count + self._builder.pending_count,
        )
        self._metrics.gauge(
            "live.snapshot_age_batches",
            self._consumer.batches - self._batches_at_swap,
        )
