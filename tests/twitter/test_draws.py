"""Draw-identity pins for the generators' RNG fast paths.

Generation replaced ``random.choices`` with :func:`weighted_index`,
``randrange``/``choice`` with :func:`below`, and defers each GPS fix's
trig until the fix is known to be kept.  All of it is only valid if every
draw, and every emitted coordinate, is unchanged; these tests hold them to
the reference behaviour on shared seeds.
"""

import math
import random
from itertools import accumulate

import pytest

from repro.geo.gazetteer import Gazetteer
from repro.geo.point import destination_point
from repro.twitter.draws import below, weighted_index
from repro.twitter.idgen import SnowflakeGenerator
from repro.twitter.mobility import MobilityModel
from repro.twitter.models import MobilityClass, Tweet
from repro.twitter.population import PopulationConfig, PopulationGenerator
from repro.twitter.tweetgen import (
    _CHATTER,
    _HOUR_CUM_WEIGHTS,
    _PLACE_TEMPLATES,
    CollectionWindow,
    TweetGenerator,
)

SEEDS = range(12)
DRAWS = 200


def _weight_pools(rng: random.Random, size: int) -> list[list[float]]:
    """Float, integer and zero-holed weight lists of ``size`` entries."""
    floats = [rng.uniform(0.0, 5.0) + 1e-3 for _ in range(size)]
    ints = [rng.randint(1, 9) for _ in range(size)]
    holed = [w if i % 3 else 0.0 for i, w in enumerate(floats)]
    if not any(holed):
        holed[-1] = 1.0
    return [floats, ints, holed]


class TestWeightedIndex:
    @pytest.mark.parametrize("size", range(1, 33))
    def test_equals_choices_with_weights(self, size):
        pools = _weight_pools(random.Random(size), size)
        population = [f"item{i}" for i in range(size)]
        for weights in pools:
            cum = list(accumulate(weights))
            for seed in SEEDS:
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(DRAWS):
                    assert population[weighted_index(ours, cum)] == theirs.choices(
                        population, weights=weights, k=1
                    )[0]
                assert ours.random() == theirs.random()  # same stream position

    @pytest.mark.parametrize("size", range(1, 33))
    def test_equals_choices_with_cum_weights(self, size):
        pools = _weight_pools(random.Random(1000 + size), size)
        for weights in pools:
            cum = tuple(accumulate(weights))
            for seed in SEEDS:
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(DRAWS):
                    assert weighted_index(ours, cum) == theirs.choices(
                        range(size), cum_weights=cum, k=1
                    )[0]
                assert ours.random() == theirs.random()

    def test_hour_weights(self):
        ours, theirs = random.Random(5), random.Random(5)
        for _ in range(5_000):
            assert weighted_index(ours, _HOUR_CUM_WEIGHTS) == theirs.choices(
                range(24), cum_weights=_HOUR_CUM_WEIGHTS, k=1
            )[0]


class TestBelow:
    @pytest.mark.parametrize(
        "n", [*range(1, 70), 90, 127, 128, 129, 1_000, 3_600, 2**31 - 1, 2**31, 10**12]
    )
    def test_equals_randrange(self, n):
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(DRAWS):
                assert below(ours, n) == theirs.randrange(n)
            assert ours.random() == theirs.random()

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 22, 64, 65])
    def test_indexing_equals_choice(self, size):
        population = tuple(f"item{i}" for i in range(size))
        for seed in SEEDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(DRAWS):
                assert population[below(ours, size)] == theirs.choice(population)
            assert ours.random() == theirs.random()


@pytest.fixture(scope="module")
def korean():
    return Gazetteer.korean()


class TestDeferredFix:
    @pytest.mark.parametrize("archetype", list(MobilityClass))
    def test_fix_bit_identical_to_destination_point(self, korean, archetype):
        model = MobilityModel(korean)
        for seed in SEEDS:
            rng = random.Random(seed)
            home = korean.districts[seed * 7 % len(korean.districts)]
            profile = model.build_profile(home, archetype, rng)
            for _ in range(DRAWS):
                index, bearing, distance = profile.draw(rng)
                center = profile.districts[index].center
                fix = profile.fix(index, bearing, distance)
                assert fix == destination_point(center, bearing, distance)

    def test_draw_consumes_what_the_eager_sample_did(self, korean):
        """``draw`` makes the reference draws: choices, uniform, random."""
        profile = MobilityModel(korean).build_profile(
            korean.get("Seoul", "Mapo-gu"), MobilityClass.WANDERER, random.Random(3)
        )
        ours, theirs = random.Random(11), random.Random(11)
        for _ in range(DRAWS):
            index, bearing, distance = profile.draw(ours)
            ref_index = theirs.choices(
                range(len(profile.districts)), cum_weights=profile.cum_weights, k=1
            )[0]
            assert index == ref_index
            assert bearing == theirs.uniform(0.0, 360.0)
            assert distance == profile.sample_radii_km[index] * math.sqrt(theirs.random())

    def test_tweets_for_matches_eager_reference(self, korean):
        """Full histories equal the pre-deferral generator's, field by field."""
        window = CollectionWindow(start_ms=1_314_835_200_000, days=15)
        population = PopulationGenerator(korean, PopulationConfig(size=60, seed=4)).generate()
        generator = TweetGenerator(window, seed=4)
        kept = 0
        for synthetic in population:
            expected = _eager_tweets(window, 4, synthetic, generator)
            actual = generator.tweets_for(synthetic)
            assert actual == expected
            kept += sum(t.has_gps for t in actual)
        assert kept > 0  # some fixes were really computed and compared


def _eager_tweets(window, seed, synthetic, generator):
    """The tweet generator as written before the fast paths: every tweet
    computes its fix up front, and every draw goes through the plain
    ``random.Random`` methods."""
    rng = random.Random(f"{seed}:{synthetic.user.user_id}")
    idgen = SnowflakeGenerator(worker_id=synthetic.user.user_id % 1024)
    count = generator._sample_count(synthetic.tweets_per_day * window.days, rng)

    def timestamp():
        day = rng.randrange(window.days)
        hour = rng.choices(range(24), cum_weights=_HOUR_CUM_WEIGHTS, k=1)[0]
        second = rng.randrange(3_600)
        millis = rng.randrange(1_000)
        return window.start_ms + ((day * 24 + hour) * 3_600 + second) * 1_000 + millis

    def text(place):
        if rng.random() < generator._place_mention_rate:
            return rng.choice(_PLACE_TEMPLATES).format(place=place)
        return rng.choice(_CHATTER)

    timestamps = sorted(timestamp() for _ in range(count))
    profile = synthetic.mobility_profile
    tweets = []
    for ts in timestamps:
        index = rng.choices(
            range(len(profile.districts)), cum_weights=profile.cum_weights, k=1
        )[0]
        district = profile.districts[index]
        bearing = rng.uniform(0.0, 360.0)
        distance = profile.sample_radii_km[index] * math.sqrt(rng.random())
        point = district.center.destination(bearing, distance)
        has_gps = rng.random() < synthetic.gps_attach_prob
        tweets.append(
            Tweet(
                tweet_id=idgen.next_id(ts),
                user_id=synthetic.user.user_id,
                created_at_ms=ts,
                text=text(district.name),
                coordinates=point if has_gps else None,
                true_state=district.state,
                true_county=district.name,
            )
        )
    return tweets
