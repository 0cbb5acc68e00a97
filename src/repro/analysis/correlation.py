"""The end-to-end correlation study (paper §III-§IV).

:func:`run_study` is the one call examples and benchmarks use.  Since the
staged-engine refactor it is a thin wrapper over
:class:`~repro.engine.engine.StudyEngine`, which runs the same sequence —
forward-geocode profiles, reverse-geocode GPS tweets through the simulated
Yahoo client, the text-based grouping method, the Figs. 6-7 aggregates —
as composable stages in one process with shared metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.result import StudyResult

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.engine.context import RunContext
    from repro.engine.engine import EngineConfig
    from repro.geo.gazetteer import Gazetteer
    from repro.storage.tweetstore import TweetStore
    from repro.storage.userstore import UserStore
    from repro.yahooapi.client import PlaceFinderClient

__all__ = ["StudyResult", "run_study"]


def run_study(
    users: UserStore,
    tweets: TweetStore,
    gazetteer: Gazetteer,
    dataset_name: str = "dataset",
    min_gps_tweets: int = 1,
    placefinder: PlaceFinderClient | None = None,
    engine_config: "EngineConfig | None" = None,
    context: "RunContext | None" = None,
) -> StudyResult:
    """Run the complete correlation study over a stored corpus.

    Thin wrapper over :class:`~repro.engine.engine.StudyEngine`,
    result-identical to the pre-engine monolith (property-tested).

    Args:
        users: Crawled / streamed accounts.
        tweets: Their tweets.
        gazetteer: District catalogue both geocoders resolve against.
        dataset_name: Label used in reports.
        min_gps_tweets: Study-entry threshold (paper: 1); overrides the
            ``engine_config`` field when both are given.
        placefinder: Optionally inject a pre-configured client (custom
            quota, failure plan); reverse geocoding then goes through it
            tweet by tweet.
        engine_config: Tie-break and geocode-cache configuration.
        context: Optionally supply the run context to collect the run's
            metrics snapshot and stage spans.

    Returns:
        The full :class:`StudyResult`.
    """
    from dataclasses import replace

    from repro.engine.engine import EngineConfig, StudyEngine

    config = replace(engine_config or EngineConfig(), min_gps_tweets=min_gps_tweets)
    engine = StudyEngine(gazetteer, config=config, placefinder=placefinder)
    return engine.run(users, tweets, dataset_name=dataset_name, context=context)
