"""Extension E11 — the third spatial attribute: places mentioned in text.

The paper names three spatial attribute sources and analyses only two
(§III-A); Fig. 4 observes in passing that mentioned places often equal
the GPS district.  This extension quantifies that: over the Korean
corpus's GPS tweets, how often does an unambiguous place mention agree
with the reverse-geocoded GPS district?

On this synthetic corpus the answer is fixed by construction, so E11 is
a consistency check of the generator rather than a measurement: a text
mention names the district the tweet was sampled in
(``tweetgen._render_text``), and ``MobilityModel._safe_radius_km`` caps
GPS jitter inside that district's Voronoi cell, so the fix reverse
geocodes back to it.  Every unambiguous mention therefore agrees with
the GPS district (and state); a lower rate means the jitter cap or the
mention extractor broke.
"""

from repro.analysis.mentions import MentionCorrelationStudy, render_mention_agreement
from repro.geo.mentions import PlaceMentionExtractor
from repro.geo.reverse import ReverseGeocoder


def test_place_mention_agreement(benchmark, ctx, artefact_sink):
    gazetteer = ctx.korean_dataset.gazetteer
    study = MentionCorrelationStudy(
        PlaceMentionExtractor(gazetteer), ReverseGeocoder(gazetteer)
    )
    gps_tweets = list(ctx.korean_dataset.tweets.gps_tweets())

    result = benchmark.pedantic(study.run, args=(gps_tweets,), rounds=3, iterations=1)

    artefact_sink("E11_ext_place_mentions", render_mention_agreement(result))

    assert result.tweets_with_mentions > 100
    assert result.agreement_rate == 1.0, "a mention names the sampled district"
    assert result.same_state_rate == 1.0
    assert result.median_distance_km < 30.0
