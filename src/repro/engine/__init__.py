"""Staged execution engine: composable stages, run context, metrics.

Public surface of :mod:`repro.engine`:

* :class:`StudyEngine` / :class:`EngineConfig` — the staged study runner
* :class:`RunContext` / :class:`StageSpan` / :func:`render_trace` — the
  per-run context with structured stage spans
* :class:`MetricsRegistry` — unified counters/timers/gauges + sources,
  plus :class:`LatencyHistogram` windows with p50/p95/p99 summaries
* The concrete stages (``RefineStage`` … ``StatisticsStage``) and the
  :class:`Stage` protocol for swapping in custom ones
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "context": ("RunContext", "StageSpan", "render_trace"),
    "engine": (
        "EngineConfig", "EngineRun", "StudyEngine", "default_stages",
    ),
    "metrics": ("LatencyHistogram", "MetricsRegistry"),
    "stages": (
        "GroupingStage", "ProfileGeocodeStage", "RefineStage", "ReverseGeocodeStage",
        "Stage", "StatisticsStage", "StudyState",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
