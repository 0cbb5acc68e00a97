"""The RunContext threaded through every engine stage.

One :class:`RunContext` accompanies one study run: it carries the run's
identity (dataset name, master seed), the shared
:class:`~repro.engine.metrics.MetricsRegistry`, and the structured
per-stage :class:`StageSpan` records (start/end, items in/out, errors)
from which a full execution trace can be emitted — see
:func:`render_trace` and the ``repro engine trace`` CLI command.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine.metrics import MetricsRegistry


@dataclass
class StageSpan:
    """One stage execution record.

    Attributes:
        stage: Stage name (e.g. ``"reverse_geocode"``).
        started_s: ``time.perf_counter()`` at stage entry.
        ended_s: ``time.perf_counter()`` at stage exit (0 while running).
        items_in: Items the stage consumed (stage-defined unit).
        items_out: Items the stage produced.
        errors: Errors the stage observed (including a raised exception).
    """

    stage: str
    started_s: float
    ended_s: float = 0.0
    items_in: int = 0
    items_out: int = 0
    errors: int = 0

    @property
    def duration_s(self) -> float:
        """Wall time the stage took (0.0 while still running)."""
        if self.ended_s == 0.0:
            return 0.0
        return self.ended_s - self.started_s

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-friendly view for traces."""
        return {
            "stage": self.stage,
            "duration_s": round(self.duration_s, 6),
            "items_in": self.items_in,
            "items_out": self.items_out,
            "errors": self.errors,
        }


@dataclass
class RunContext:
    """Everything a run shares across stages.

    Attributes:
        dataset_name: Label used in reports ("Korean", "Lady Gaga").
        seed: The run's master seed, when the caller knows it (dataset
            builders record it here so traces are reproducible).
        metrics: The run-wide metrics registry.
        spans: Completed (and in-flight) stage spans, in execution order.
    """

    dataset_name: str = "dataset"
    seed: int | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spans: list[StageSpan] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        """Open a span for stage ``name``; yields the :class:`StageSpan`.

        The stage fills ``items_in`` / ``items_out`` while running.  On
        exit the span is closed and its duration mirrored into the
        metrics timer ``stage.<name>.s``; an escaping exception is
        counted in ``errors`` before propagating.
        """
        span = StageSpan(stage=name, started_s=time.perf_counter())
        self.spans.append(span)
        try:
            yield span
        except BaseException:
            span.errors += 1
            raise
        finally:
            span.ended_s = time.perf_counter()
            self.metrics.add_time(f"stage.{name}.s", span.duration_s)

    def trace(self) -> dict[str, object]:
        """The full run trace: identity, metrics snapshot, span records."""
        return {
            "dataset": self.dataset_name,
            "seed": self.seed,
            "metrics": self.metrics.snapshot(),
            "spans": [span.as_dict() for span in self.spans],
        }


def render_trace(context: RunContext) -> str:
    """Plain-text rendering of a run trace (CLI ``engine trace`` output).

    Spans aggregate by stage name in first-execution order — a batch run
    prints one row per stage exactly as before, while a streaming run
    (thousands of ``stream.batch`` spans) collapses to one row with its
    run count, total time, and summed items.  The simulated API client's
    retry behaviour and the geocode service's per-tier hit/miss counters
    get their own summary lines so transient-failure and cache-warmth
    behaviour are legible without digging through the metrics snapshot.
    """
    lines = [f"Run trace — {context.dataset_name}"
             + (f" (seed {context.seed})" if context.seed is not None else "")]
    lines.append("")
    lines.append("per-stage spans:")
    width = max(18, *(len(span.stage) for span in context.spans)) if context.spans else 18
    lines.append(
        f"  {'stage':<{width}} {'runs':>6} {'seconds':>9} {'in':>9} {'out':>9} {'errors':>7}"
    )
    aggregated: dict[str, list[float]] = {}
    for span in context.spans:
        row = aggregated.setdefault(span.stage, [0, 0.0, 0, 0, 0])
        row[0] += 1
        row[1] += span.duration_s
        row[2] += span.items_in
        row[3] += span.items_out
        row[4] += span.errors
    for stage, (runs, seconds, items_in, items_out, errors) in aggregated.items():
        lines.append(
            f"  {stage:<{width}} {runs:>6} {seconds:>9.3f} {items_in:>9} "
            f"{items_out:>9} {errors:>7}"
        )
    snapshot = context.metrics.snapshot()
    retries = snapshot.get("geocode.retries")
    retry_exhausted = snapshot.get("geocode.retry_exhausted")
    if retries is not None or retry_exhausted is not None:
        lines.append("")
        lines.append(
            f"api client: retries={int(retries or 0)} "
            f"retry_exhausted={int(retry_exhausted or 0)}"
        )
    if "geocode.tiers.l1.hits" in snapshot:
        lines.append("")
        lines.append(
            "geocode tiers: "
            f"l1 {int(snapshot['geocode.tiers.l1.hits'])} hit"
            f"/{int(snapshot['geocode.tiers.l1.misses'])} miss"
            f" ({int(snapshot['geocode.tiers.l1.evictions'])} evicted), "
            f"disk {int(snapshot['geocode.tiers.disk.hits'])} hit"
            f"/{int(snapshot['geocode.tiers.disk.misses'])} miss, "
            f"backend {int(snapshot['geocode.tiers.backend.lookups'])} lookups, "
            f"cache_size={int(snapshot['geocode.tiers.cache_size'])}"
        )
    lines.append("")
    lines.append("metrics snapshot:")
    for name, value in snapshot.items():
        if isinstance(value, float):
            value = round(value, 4)
        lines.append(f"  {name} = {value}")
    return "\n".join(lines)
