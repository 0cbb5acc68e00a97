"""repro — reproduction of Lee & Hwang (ICDE 2012 Workshops):
*A Study of the Correlation between the Spatial Attributes on Twitter*.

The library answers the paper's question — how reliable is the free-text
profile location on Twitter as a proxy for where users actually tweet? —
over fully synthetic but behaviourally faithful Twitter data, and then
applies the answer the way the paper proposes: as weight factors in
event-localisation systems.

Quick start::

    from repro import run_korean_study, render_fig7

    output = run_korean_study()
    print(render_fig7(output.study.statistics))

Subpackages: :mod:`repro.geo` (districts, geocoding), :mod:`repro.yahooapi`
(the simulated PlaceFinder), :mod:`repro.twitter` (synthetic platform),
:mod:`repro.storage` (tweet/user stores), :mod:`repro.text` (normalisation,
TF-IDF), :mod:`repro.grouping` (the paper's method), :mod:`repro.analysis`
(study + reliability weights), :mod:`repro.events` (Toretter/Twitris and
weighted localisation), :mod:`repro.datasets` and :mod:`repro.pipelines`
(builders, funnel, experiment registry), :mod:`repro.engine` (the staged
execution substrate: stages, run context, metrics), and
:mod:`repro.streaming` (live firehose ingestion with backpressure and
checkpoint/resume), and :mod:`repro.serving` (online query API over
saved studies: versioned hot-swappable snapshots, single-flight geocode
batching, admission control).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "analysis.correlation": ("run_study",),
    "analysis.reliability": ("ReliabilityTable", "WeightingScheme"),
    "analysis.result": ("StudyResult",),
    "analysis.report": (
        "render_comparison", "render_dataset_summary", "render_fig6", "render_fig7",
        "render_funnel", "render_tweet_distribution",
    ),
    "engine.context": ("RunContext",),
    "engine.engine": ("EngineConfig", "StudyEngine"),
    "engine.metrics": ("MetricsRegistry",),
    "errors": ("ReproError",),
    "grouping.stats": ("GroupStatistics", "compute_group_statistics"),
    "grouping.strings": ("LocationString",),
    "grouping.topk": ("TopKGroup", "UserGrouping", "group_users"),
    "pipelines.experiments": ("EXPERIMENTS", "run_experiment"),
    "pipelines.study": ("run_korean_study", "run_ladygaga_study"),
}

__version__ = "1.0.0"

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
