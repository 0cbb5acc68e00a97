"""The value types one study produces and a saved study restores.

:class:`StudyResult` and its :class:`RefinementFunnel` are plain
dataclasses with no behaviour beyond a JSON view, so they live apart
from the pipeline that computes them
(:func:`~repro.analysis.correlation.run_study`, the engine, the dataset
builders): loading and serving a saved study
(:mod:`repro.analysis.serialization`, :mod:`repro.serving.state`)
imports this module and none of that pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.geo.region import District
    from repro.grouping.stats import GroupStatistics
    from repro.grouping.topk import UserGrouping
    from repro.twitter.models import GeotaggedObservation
    from repro.yahooapi.client import ClientStats


@dataclass
class RefinementFunnel:
    """Per-step attrition counts of the refinement.

    Attributes:
        crawled_users: Users entering the funnel.
        profile_status_counts: Forward-geocoding outcome tally (by
            :class:`GeocodeStatus` value) over all crawled users.
        well_defined_users: Users surviving step 2.
        users_with_gps: Well-defined users with >= ``min_gps_tweets``.
        total_tweets: Tweets of crawled users in the store.
        gps_tweets: GPS-tagged tweets among them.
        resolved_observations: Per-tweet observations produced.
        unresolvable_gps_tweets: GPS tweets the reverse geocoder refused.
        study_users: Final user count (non-empty observation sets).
    """

    crawled_users: int = 0
    profile_status_counts: Counter = field(default_factory=Counter)
    well_defined_users: int = 0
    users_with_gps: int = 0
    total_tweets: int = 0
    gps_tweets: int = 0
    resolved_observations: int = 0
    unresolvable_gps_tweets: int = 0
    study_users: int = 0

    def as_dict(self) -> dict[str, int | dict[str, int]]:
        """JSON-friendly view for reports."""
        return {
            "crawled_users": self.crawled_users,
            "profile_status_counts": dict(self.profile_status_counts),
            "well_defined_users": self.well_defined_users,
            "users_with_gps": self.users_with_gps,
            "total_tweets": self.total_tweets,
            "gps_tweets": self.gps_tweets,
            "resolved_observations": self.resolved_observations,
            "unresolvable_gps_tweets": self.unresolvable_gps_tweets,
            "study_users": self.study_users,
        }


@dataclass
class StudyResult:
    """Everything the study produces for one dataset.

    Attributes:
        dataset_name: Label for reports ("Korean", "Lady Gaga").
        funnel: Refinement attrition accounting (experiment E9).
        observations: The grouping method's input rows.
        groupings: Per-user Top-k outcomes.
        statistics: Per-group aggregates (experiments E1-E3).
        profile_districts: Each study user's resolved profile district
            (consumed by the localisation experiment).
        api_stats: Simulated PlaceFinder usage during reverse geocoding.
    """

    dataset_name: str
    funnel: RefinementFunnel
    observations: list[GeotaggedObservation]
    groupings: dict[int, UserGrouping]
    statistics: GroupStatistics
    profile_districts: dict[int, District]
    api_stats: ClientStats
