"""The §III-B refinement funnel: crawled users -> study population.

The paper's selection steps, with their attrition accounting:

1. start from every crawled user;
2. keep users whose profile location is *well defined* (drops vague,
   country-only, bare-metro, multi-location, and unresolvable fields —
   "we had to remove many users from our data collection");
3. keep users with at least one GPS-tagged tweet ("most of our users were
   eliminated" here — GPS tweets are scarce);
4. reverse-geocode every remaining GPS tweet through the PlaceFinder
   client into per-tweet observations.

The funnel's per-step counts are an experiment artefact themselves (E9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.result import RefinementFunnel
from repro.geo.forward import TextGeocoder
from repro.geo.region import District
from repro.storage.tweetstore import TweetStore
from repro.storage.userstore import UserStore
from repro.twitter.models import GeotaggedObservation, TwitterUser
from repro.yahooapi.client import PlaceFinderClient


@dataclass
class RefinementResult:
    """Output of the refinement pipeline.

    Attributes:
        funnel: Attrition accounting.
        observations: Per-tweet (profile district, tweet district) rows —
            the input of the grouping method.
        profile_districts: Each study user's resolved profile district.
        study_users: The surviving users, by id.
    """

    funnel: RefinementFunnel
    observations: list[GeotaggedObservation]
    profile_districts: dict[int, District]
    study_users: dict[int, TwitterUser]


class RefinementPipeline:
    """Runs the §III-B refinement over stored users and tweets.

    Args:
        text_geocoder: Resolves profile-location fields.
        placefinder: Reverse-geocodes tweet GPS points (the simulated
            Yahoo API, complete with cache and quota accounting).
        min_gps_tweets: Minimum GPS-tagged tweets a user needs to enter
            the study (the paper requires at least one; raising it is an
            ablation knob).
    """

    def __init__(
        self,
        text_geocoder: TextGeocoder,
        placefinder: PlaceFinderClient,
        min_gps_tweets: int = 1,
    ):
        self._text_geocoder = text_geocoder
        self._placefinder = placefinder
        self._min_gps_tweets = min_gps_tweets

    def run(self, users: UserStore, tweets: TweetStore) -> RefinementResult:
        """Execute the funnel and produce grouping-ready observations.

        Delegates to the engine's refinement stages (RefineStage →
        ProfileGeocodeStage → ReverseGeocodeStage) so the funnel has one
        implementation; the injected client keeps reverse geocoding on
        the serial path, preserving quota and failure-injection
        semantics exactly.
        """
        # Imported here: the engine package imports this module for the
        # funnel dataclasses, so a top-level import would be circular.
        from repro.engine.context import RunContext
        from repro.engine.stages import (
            ProfileGeocodeStage,
            RefineStage,
            ReverseGeocodeStage,
            StudyState,
        )

        state = StudyState(
            users=users,
            tweets=tweets,
            text_geocoder=self._text_geocoder,
            placefinder=self._placefinder,
            min_gps_tweets=self._min_gps_tweets,
        )
        context = RunContext()
        for stage in (RefineStage(), ProfileGeocodeStage(), ReverseGeocodeStage()):
            stage.run(context, state)
        return RefinementResult(
            funnel=state.funnel,
            observations=state.observations,
            profile_districts=state.kept_profile_districts,
            study_users=state.study_users,
        )
