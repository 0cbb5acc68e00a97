"""Injection of event tweets into a platform stream.

Produces the tweets an earthquake would cause: study users whose sampled
current district lies inside the felt radius post keyword tweets shortly
after onset, carrying GPS with the usual scarcity.  The output is plain
:class:`~repro.twitter.models.Tweet` objects, so an injected stream is
indistinguishable in type from the background firehose — exactly what the
online detector must cope with.
"""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.events.scenario import EventScenario, WitnessGenerator
from repro.geo.gazetteer import Gazetteer
from repro.grouping.topk import UserGrouping
from repro.twitter.idgen import SnowflakeGenerator
from repro.twitter.models import Tweet


class EventTweetInjector:
    """Turns a scenario + study population into injectable event tweets.

    Args:
        gazetteer: District catalogue.
        gps_rate: Fraction of event tweets carrying GPS.
        seed: Witness-draw seed.
    """

    def __init__(self, gazetteer: Gazetteer, gps_rate: float = 0.2, seed: int = 7):
        if not 0.0 <= gps_rate <= 1.0:
            raise ConfigurationError("gps_rate must be in [0, 1]")
        self._witnesses = WitnessGenerator(gazetteer, gps_rate=gps_rate, seed=seed)
        self._idgen = SnowflakeGenerator(worker_id=31)
        self._seed = seed

    def inject(
        self,
        scenario: EventScenario,
        groupings: dict[int, UserGrouping],
        background: list[Tweet],
    ) -> list[Tweet]:
        """Merge the scenario's event tweets into ``background``.

        Returns a new list in global id (time) order; the background list
        is not modified.
        """
        event_tweets = self.event_tweets(scenario, groupings)
        merged = list(background) + event_tweets
        merged.sort(key=lambda t: t.tweet_id)
        return merged

    def event_tweets(
        self,
        scenario: EventScenario,
        groupings: dict[int, UserGrouping],
    ) -> list[Tweet]:
        """Just the event tweets, as platform-level Tweet objects."""
        tweets = []
        for report in self._witnesses.generate(scenario, groupings):
            tweets.append(
                Tweet(
                    tweet_id=self._idgen.next_id(report.timestamp_ms),
                    user_id=report.user_id,
                    created_at_ms=report.timestamp_ms,
                    text=report.text,
                    coordinates=report.gps,
                    true_state=report.true_district.state,
                    true_county=report.true_district.name,
                )
            )
        return tweets
