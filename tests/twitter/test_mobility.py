"""Unit and property tests for the mobility models."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.twitter.mobility import MobilityModel
from repro.twitter.models import MobilityClass


@pytest.fixture(scope="module")
def model():
    return MobilityModel(Gazetteer.korean())


def _home(gazetteer, key=("Seoul", "Mapo-gu")):
    return gazetteer.get(*key)


archetypes = st.sampled_from(list(MobilityClass))
seeds = st.integers(min_value=0, max_value=10_000)
home_keys = st.sampled_from([
    ("Seoul", "Mapo-gu"), ("Seoul", "Nowon-gu"), ("Busan", "Haeundae-gu"),
    ("Gyeonggi-do", "Suwon-si"), ("Jeju-do", "Jeju-si"), ("Daegu", "Suseong-gu"),
])


class TestProfiles:
    @given(archetypes, seeds, home_keys)
    @settings(max_examples=120, deadline=None)
    def test_profile_well_formed(self, archetype, seed, home_key):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        profile = model.build_profile(
            gazetteer.get(*home_key), archetype, random.Random(seed)
        )
        assert len(profile.districts) == len(profile.weights)
        assert sum(profile.weights) == pytest.approx(1.0)
        assert all(w > 0 for w in profile.weights)
        # No duplicate districts in the support.
        keys = [d.key() for d in profile.districts]
        assert len(keys) == len(set(keys))

    @given(seeds, home_keys)
    @settings(max_examples=80, deadline=None)
    def test_home_anchored_home_dominates(self, seed, home_key):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        profile = model.build_profile(
            gazetteer.get(*home_key), MobilityClass.HOME_ANCHORED, random.Random(seed)
        )
        assert profile.home_weight >= 0.5
        assert profile.home_weight == max(profile.weights) or profile.home_weight > 0.5

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_relocated_never_home(self, seed):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        home = gazetteer.get("Seoul", "Mapo-gu")
        profile = model.build_profile(home, MobilityClass.RELOCATED, random.Random(seed))
        assert all(d.key() != home.key() for d in profile.districts)
        assert profile.home_weight == 0.0

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_fixed_elsewhere_never_home_and_small(self, seed):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        home = gazetteer.get("Seoul", "Mapo-gu")
        profile = model.build_profile(
            home, MobilityClass.FIXED_ELSEWHERE, random.Random(seed)
        )
        assert all(d.key() != home.key() for d in profile.districts)
        assert len(profile.districts) <= 2

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_commuter_home_is_secondary(self, seed):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        home = gazetteer.get("Seoul", "Mapo-gu")
        profile = model.build_profile(home, MobilityClass.COMMUTER, random.Random(seed))
        # Home present but not dominant: the workplace outweighs it.
        assert 0.0 < profile.home_weight < max(profile.weights)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_wanderer_many_districts(self, seed):
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        home = gazetteer.get("Seoul", "Mapo-gu")
        profile = model.build_profile(home, MobilityClass.WANDERER, random.Random(seed))
        assert len(profile.districts) >= 4


class TestSampling:
    def test_sample_district_in_support(self, model, korean_gazetteer):
        profile = model.build_profile(
            _home(korean_gazetteer), MobilityClass.HOME_ANCHORED, random.Random(1)
        )
        rng = random.Random(2)
        support = {d.key() for d in profile.districts}
        for _ in range(50):
            index, _, _ = profile.draw(rng)
            assert profile.districts[index].key() in support

    def test_sample_point_inside_district(self, model, korean_gazetteer):
        profile = model.build_profile(
            _home(korean_gazetteer), MobilityClass.HOME_ANCHORED, random.Random(1)
        )
        rng = random.Random(3)
        for _ in range(50):
            index, bearing, distance = profile.draw(rng)
            district, point = profile.districts[index], profile.fix(index, bearing, distance)
            assert district.center.distance_km(point) <= district.radius_km * 0.8 + 1e-6

    @given(archetypes, seeds, home_keys)
    @settings(max_examples=60, deadline=None)
    def test_sampled_points_reverse_geocode_to_their_district(
        self, archetype, seed, home_key
    ):
        """The generator's ground truth must agree with the resolver: a
        fix sampled in district D always reverse-geocodes to D.  Without
        the Voronoi-safe cap, edge-of-disc fixes in a district whose
        neighbour's centroid is closer flipped districts (a Dobong-gu fix
        resolving to Nowon-gu put a FIXED_ELSEWHERE user in Top-1)."""
        gazetteer = Gazetteer.korean()
        model = MobilityModel(gazetteer)
        profile = model.build_profile(
            gazetteer.get(*home_key), archetype, random.Random(seed)
        )
        rng = random.Random(seed + 1)
        for _ in range(25):
            index, bearing, distance = profile.draw(rng)
            point = profile.fix(index, bearing, distance)
            assert gazetteer.nearest(point).key() == profile.districts[index].key()

    def test_deterministic_given_seed(self, model, korean_gazetteer):
        home = _home(korean_gazetteer)
        a = model.build_profile(home, MobilityClass.WANDERER, random.Random(42))
        b = model.build_profile(home, MobilityClass.WANDERER, random.Random(42))
        assert [d.key() for d in a.districts] == [d.key() for d in b.districts]
        assert a.weights == b.weights

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [1.0, math.nan], [1.0, math.inf]])
    def test_weighted_sample_rejects_unusable_weights(self, korean_gazetteer, weights):
        pool = list(korean_gazetteer.districts[:2])
        with pytest.raises(ConfigurationError):
            MobilityModel._weighted_sample(pool, weights, 1, random.Random(0))
