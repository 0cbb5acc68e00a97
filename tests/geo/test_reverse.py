"""Unit and property tests for reverse geocoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeocodingError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.reverse import ReverseGeocoder


@pytest.fixture(scope="module")
def reverse():
    return ReverseGeocoder(Gazetteer.korean())


class TestResolve:
    def test_resolves_centroid_to_its_district(self, reverse, korean_gazetteer):
        district = korean_gazetteer.get("Seoul", "Yangcheon-gu")
        result = reverse.resolve(district.center)
        assert result.path.key() == ("Seoul", "Yangcheon-gu")
        assert result.path.country == "South Korea"
        assert result.distance_km == pytest.approx(0.0, abs=1e-9)

    def test_quality_87_inside_district(self, reverse, korean_gazetteer):
        district = korean_gazetteer.get("Seoul", "Gangnam-gu")
        inside = district.center.destination(90.0, district.radius_km * 0.5)
        assert reverse.resolve(inside).quality == 87

    def test_quality_decays_outside_radius(self, reverse, korean_gazetteer):
        # A point between districts still resolves, at lower quality, as
        # long as it is beyond its nearest district's nominal radius.
        district = korean_gazetteer.get("Jeju-do", "Jeju-si")
        outside = district.center.destination(180.0, district.radius_km * 1.6)
        result = reverse.resolve(outside)
        if result.distance_km > result.district.radius_km:
            assert result.quality < 87
        assert result.quality >= 10

    def test_far_ocean_point_raises(self, reverse):
        with pytest.raises(GeocodingError):
            reverse.resolve(GeoPoint(30.0, 140.0))

    def test_try_resolve_returns_none(self, reverse):
        assert reverse.try_resolve(GeoPoint(30.0, 140.0)) is None
        assert reverse.try_resolve(GeoPoint(37.5, 127.0)) is not None

    @pytest.mark.parametrize(
        "lat, lon", [(0.0, 0.0), (90.0, 0.0), (-90.0, 0.0), (-37.0, -57.0)]
    )
    def test_far_point_gives_up_within_a_few_shells(
        self, korean_gazetteer, monkeypatch, lat, lon
    ):
        """A point far from every centroid is refused after a few grid
        shells, not a walk over the 0.5-degree grid's hundreds: ``GET
        /reverse`` accepts any coordinates."""
        shells = []
        probe = korean_gazetteer._candidate_ids

        def counted(center, ring, seen):
            shells.append(ring)
            return probe(center, ring, seen)

        monkeypatch.setattr(korean_gazetteer, "_candidate_ids", counted)
        assert ReverseGeocoder(korean_gazetteer).try_resolve(GeoPoint(lat, lon)) is None
        assert len(shells) <= 3

    def test_max_distance_config(self, korean_gazetteer):
        tight = ReverseGeocoder(korean_gazetteer, max_distance_km=1.0)
        district = korean_gazetteer.get("Seoul", "Gangnam-gu")
        off_center = district.center.destination(0.0, 2.0)
        with pytest.raises(GeocodingError):
            tight.resolve(off_center)


class TestGeneratorConsistency:
    """Consistency contracts between the tweet generator's scatter and
    reverse geocoding.

    In dense metropolitan areas a fix near a district's edge may resolve
    to a *neighbouring* district (real reverse geocoders blur boundaries
    the same way), so the exact round trip is only guaranteed for
    isolated districts; everywhere else the resolved district must simply
    be at least as close as the true one.
    """

    @given(
        st.floats(min_value=0.0, max_value=359.9),
        st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=60, deadline=None)
    def test_isolated_district_roundtrip(self, bearing, radial_fraction):
        gazetteer = Gazetteer.korean()
        reverse = ReverseGeocoder(gazetteer)
        district = gazetteer.get("Jeju-do", "Jeju-si")
        point = district.center.destination(
            bearing, district.radius_km * radial_fraction
        )
        # Jeju-si's only neighbour is Seogwipo-si, ~27 km away — well
        # beyond the 0.8 * radius scatter the tweet generator uses.
        assert reverse.resolve(point).path.key() == ("Jeju-do", "Jeju-si")

    @given(
        st.sampled_from([
            ("Seoul", "Yangcheon-gu"), ("Seoul", "Nowon-gu"),
            ("Busan", "Haeundae-gu"), ("Gyeonggi-do", "Suwon-si"),
            ("Daejeon", "Yuseong-gu"),
        ]),
        st.floats(min_value=0.0, max_value=359.9),
        st.floats(min_value=0.0, max_value=0.8),
    )
    @settings(max_examples=100, deadline=None)
    def test_scatter_resolves_no_farther_than_home(self, key, bearing, radial_fraction):
        gazetteer = Gazetteer.korean()
        reverse = ReverseGeocoder(gazetteer)
        district = gazetteer.get(*key)
        point = district.center.destination(
            bearing, district.radius_km * radial_fraction
        )
        result = reverse.resolve(point)
        assert result.distance_km <= district.center.distance_km(point) + 1e-9
