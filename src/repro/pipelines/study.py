"""One-call pipelines: build a dataset and run the study on it.

These are the library's front doors.  ``run_korean_study()`` is the whole
paper in one call: build the crawled corpus, refine it, group users, and
return the :class:`~repro.analysis.correlation.StudyResult` whose
statistics are Figs. 6-7.

Both pipelines are thin wrappers over the staged
:class:`~repro.engine.engine.StudyEngine`: collection accounting (the
Korean crawler's counters, the streaming connection's delivery stats) is
registered into the run's metrics registry under the ``crawl`` prefix, so
one ``output.context.metrics.snapshot()`` describes the entire run — from
crawl through geocoding to grouping — and ``output.context.spans`` holds
the per-stage wall-time records.

Reverse geocoding runs through the tiered
:class:`~repro.geocode.service.GeocodeService`; pass an
``EngineConfig(cache_dir=...)`` to persist its cell cache and a repeat
run resolves every cell from the warm disk tier — zero backend lookups,
byte-identical result (cell outcomes are pure functions of the cell
key, see DESIGN.md §10).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.result import StudyResult
from repro.datasets.korean import KoreanDataset, KoreanDatasetConfig, build_korean_dataset
from repro.datasets.ladygaga import (
    LadyGagaDataset,
    LadyGagaDatasetConfig,
    build_ladygaga_dataset,
)
from repro.engine.context import RunContext
from repro.engine.engine import EngineConfig, StudyEngine


@dataclass
class KoreanStudyOutput:
    """A built Korean dataset together with its study result.

    Attributes:
        dataset: The built corpus with collection provenance.
        study: The study result.
        context: The engine run context (metrics snapshot, stage spans).
    """

    dataset: KoreanDataset
    study: StudyResult
    context: RunContext | None = None


@dataclass
class LadyGagaStudyOutput:
    """A built streaming dataset together with its study result.

    Attributes:
        dataset: The captured stream with provenance.
        study: The study result.
        context: The engine run context (metrics snapshot, stage spans).
    """

    dataset: LadyGagaDataset
    study: StudyResult
    context: RunContext | None = None


def run_korean_study(
    config: KoreanDatasetConfig | None = None,
    min_gps_tweets: int = 1,
    engine_config: EngineConfig | None = None,
) -> KoreanStudyOutput:
    """Build the Korean dataset and run the full correlation study.

    Args:
        config: Dataset build configuration (default scale otherwise).
        min_gps_tweets: Study-entry threshold; overrides the matching
            ``engine_config`` field.
        engine_config: Execution configuration (tie-break, geocode cache_dir).
    """
    config = config or KoreanDatasetConfig()
    dataset = build_korean_dataset(config)
    context = RunContext(dataset_name="Korean", seed=config.seed)
    context.metrics.register_source("crawl", dataset.crawl.snapshot)
    engine = StudyEngine(
        dataset.gazetteer,
        config=replace(engine_config or EngineConfig(), min_gps_tweets=min_gps_tweets),
    )
    study = engine.run(
        dataset.users, dataset.tweets, dataset_name="Korean", context=context
    )
    return KoreanStudyOutput(dataset=dataset, study=study, context=context)


def run_ladygaga_study(
    config: LadyGagaDatasetConfig | None = None,
    min_gps_tweets: int = 1,
    engine_config: EngineConfig | None = None,
) -> LadyGagaStudyOutput:
    """Build the streaming dataset and run the full correlation study.

    Args:
        config: Dataset build configuration (default scale otherwise).
        min_gps_tweets: Study-entry threshold; overrides the matching
            ``engine_config`` field.
        engine_config: Execution configuration (tie-break, geocode cache_dir).
    """
    config = config or LadyGagaDatasetConfig()
    dataset = build_ladygaga_dataset(config)
    context = RunContext(dataset_name="Lady Gaga", seed=config.seed)
    context.metrics.register_source("crawl", dataset.stream_stats.snapshot)
    engine = StudyEngine(
        dataset.gazetteer,
        config=replace(engine_config or EngineConfig(), min_gps_tweets=min_gps_tweets),
    )
    study = engine.run(
        dataset.users, dataset.tweets, dataset_name="Lady Gaga", context=context
    )
    return LadyGagaStudyOutput(dataset=dataset, study=study, context=context)
