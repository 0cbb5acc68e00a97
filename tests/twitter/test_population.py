"""Unit tests for the synthetic population generator."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.geo.forward import GeocodeStatus, TextGeocoder
from repro.twitter.models import MobilityClass, ProfileStyle
from repro.twitter.population import (
    PopulationConfig,
    PopulationGenerator,
    ProfileTextRenderer,
)


@pytest.fixture(scope="module")
def population(korean_gazetteer):
    config = PopulationConfig(size=400, seed=11)
    return PopulationGenerator(korean_gazetteer, config).generate()


class TestConfigValidation:
    def test_size_positive(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=0)

    def test_smartphone_rate_range(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=1, smartphone_rate=1.5)

    def test_gps_attach_range_order(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=1, gps_attach_range=(0.5, 0.1))

    def test_mix_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=1, mobility_mix={MobilityClass.WANDERER: 0.0})

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
    def test_mix_weights_finite_and_non_negative(self, weight):
        with pytest.raises(ConfigurationError):
            PopulationConfig(
                size=1,
                mobility_mix={MobilityClass.WANDERER: 1.0, MobilityClass.COMMUTER: weight},
            )
        with pytest.raises(ConfigurationError):
            PopulationConfig(
                size=1,
                profile_style_mix={ProfileStyle.DISTRICT: 1.0, ProfileStyle.EMPTY: weight},
            )


class TestGeneration:
    def test_size_and_unique_ids(self, population):
        assert len(population) == 400
        ids = [s.user.user_id for s in population]
        assert len(set(ids)) == 400
        assert min(ids) == 1_000  # id_offset

    def test_deterministic(self, korean_gazetteer):
        config = PopulationConfig(size=50, seed=99)
        a = PopulationGenerator(korean_gazetteer, config).generate()
        b = PopulationGenerator(korean_gazetteer, config).generate()
        assert [s.user for s in a] == [s.user for s in b]
        assert [s.gps_attach_prob for s in a] == [s.gps_attach_prob for s in b]

    def test_different_seeds_differ(self, korean_gazetteer):
        a = PopulationGenerator(korean_gazetteer, PopulationConfig(size=50, seed=1)).generate()
        b = PopulationGenerator(korean_gazetteer, PopulationConfig(size=50, seed=2)).generate()
        assert [s.user for s in a] != [s.user for s in b]

    def test_home_district_exists(self, population, korean_gazetteer):
        for synthetic in population:
            user = synthetic.user
            assert korean_gazetteer.find(user.home_state, user.home_county) is not None

    def test_mobility_profile_home_matches_user(self, population):
        for synthetic in population:
            assert synthetic.mobility_profile.home.key() == (
                synthetic.user.home_state,
                synthetic.user.home_county,
            )

    def test_gps_only_with_smartphone(self, population):
        for synthetic in population:
            if not synthetic.user.has_smartphone:
                assert synthetic.gps_attach_prob == 0.0
            else:
                assert synthetic.gps_attach_prob > 0.0

    def test_all_styles_appear(self, population):
        styles = {s.user.profile_style for s in population}
        assert ProfileStyle.DISTRICT in styles
        assert ProfileStyle.VAGUE in styles
        assert ProfileStyle.EMPTY in styles

    def test_tweets_per_day_positive_and_capped(self, population):
        for synthetic in population:
            assert 0.0 < synthetic.tweets_per_day <= 40.0


class TestProfileTextGroundTruth:
    """The critical generator/geocoder contract: the rendered profile text
    classifies the way its style intends."""

    def test_district_style_resolves_to_home(self, population, korean_gazetteer):
        geocoder = TextGeocoder(korean_gazetteer)
        district_users = [
            s for s in population if s.user.profile_style is ProfileStyle.DISTRICT
        ]
        assert district_users
        resolved_home = 0
        for synthetic in district_users:
            result = geocoder.geocode(synthetic.user.profile_location)
            if result.status is GeocodeStatus.RESOLVED and result.district.key() == (
                synthetic.user.home_state,
                synthetic.user.home_county,
            ):
                resolved_home += 1
        # Ambiguous names (Jung-gu etc. written bare) may fail; the vast
        # majority must resolve to the true home.
        assert resolved_home / len(district_users) > 0.8

    @pytest.mark.parametrize(
        "style,expected_statuses",
        [
            (ProfileStyle.VAGUE, {GeocodeStatus.VAGUE}),
            (ProfileStyle.COUNTRY_ONLY, {GeocodeStatus.COUNTRY_ONLY}),
            (ProfileStyle.CITY_ONLY, {GeocodeStatus.STATE_ONLY}),
            (ProfileStyle.EMPTY, {GeocodeStatus.EMPTY}),
        ],
    )
    def test_insufficient_styles_filtered(
        self, population, korean_gazetteer, style, expected_statuses
    ):
        geocoder = TextGeocoder(korean_gazetteer)
        members = [s for s in population if s.user.profile_style is style]
        assert members
        for synthetic in members:
            result = geocoder.geocode(synthetic.user.profile_location)
            assert result.status in expected_statuses, synthetic.user.profile_location

    def test_garbage_never_resolves(self, population, korean_gazetteer):
        geocoder = TextGeocoder(korean_gazetteer)
        for synthetic in population:
            if synthetic.user.profile_style is ProfileStyle.GARBAGE:
                result = geocoder.geocode(synthetic.user.profile_location)
                assert result.status is not GeocodeStatus.RESOLVED


class TestRenderer:
    def test_coordinates_style_parses(self, korean_gazetteer):
        renderer = ProfileTextRenderer()
        home = korean_gazetteer.get("Seoul", "Gangnam-gu")
        text = renderer.render(home, ProfileStyle.COORDINATES, random.Random(5))
        lat, lon = (float(x) for x in text.split(","))
        assert abs(lat - home.center.lat) < 0.02
        assert abs(lon - home.center.lon) < 0.02

    def test_multi_style_contains_separator(self, korean_gazetteer):
        renderer = ProfileTextRenderer()
        home = korean_gazetteer.get("Seoul", "Gangnam-gu")
        text = renderer.render(home, ProfileStyle.MULTI, random.Random(5))
        assert "/" in text
