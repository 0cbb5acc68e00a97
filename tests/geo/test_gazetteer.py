"""Unit and property tests for the gazetteer's indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnknownRegionError
from repro.geo.gazetteer import BUILTIN_GRID_DEG, GRID_DEG_RANGE, Gazetteer
from repro.geo.korea import korean_districts
from repro.geo.point import GeoPoint
from repro.geo.region import District, DistrictKind


def _district(name: str, state: str, lat: float, lon: float) -> District:
    return District(
        name=name,
        state=state,
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
        aliases=(name.lower(),),
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(UnknownRegionError):
            Gazetteer([])

    def test_duplicate_keys_rejected(self):
        d = _district("A-si", "X-do", 37.0, 127.0)
        with pytest.raises(UnknownRegionError):
            Gazetteer([d, d])

    def test_len_and_iteration(self, korean_gazetteer):
        assert len(korean_gazetteer) == len(list(korean_gazetteer))

    @pytest.mark.parametrize("grid_deg", [0.0, -1.0, float("nan"), float("inf"), 1e-9])
    def test_grid_deg_out_of_range_rejected(self, grid_deg):
        """A grid with no cells (or too many to scan) never gets built."""
        with pytest.raises(ConfigurationError, match="grid_deg"):
            Gazetteer(korean_districts(), grid_deg=grid_deg)

    @pytest.mark.parametrize("grid_deg", GRID_DEG_RANGE)
    def test_grid_deg_range_is_inclusive(self, grid_deg):
        gazetteer = Gazetteer(korean_districts(), grid_deg=grid_deg)
        assert gazetteer.nearest(GeoPoint(37.5665, 126.978)).state == "Seoul"


class TestLookups:
    def test_get_known(self, korean_gazetteer):
        d = korean_gazetteer.get("Seoul", "Gangnam-gu")
        assert d.state == "Seoul"
        assert d.name == "Gangnam-gu"

    def test_get_unknown_raises(self, korean_gazetteer):
        with pytest.raises(UnknownRegionError):
            korean_gazetteer.get("Seoul", "Nonexistent-gu")

    def test_find_returns_none(self, korean_gazetteer):
        assert korean_gazetteer.find("Seoul", "Nonexistent-gu") is None

    def test_alias_ambiguity(self, korean_gazetteer):
        # "Jung-gu" exists in several metropolitan cities.
        hits = korean_gazetteer.lookup_alias("jung-gu")
        states = {d.state for d in hits}
        assert {"Seoul", "Busan", "Incheon", "Daegu", "Daejeon", "Ulsan"} <= states

    def test_alias_case_insensitive(self, korean_gazetteer):
        assert korean_gazetteer.lookup_alias("GANGNAM") == korean_gazetteer.lookup_alias(
            "gangnam"
        )

    def test_alias_casefold_non_ascii(self):
        """Regression: the alias index folds with casefold(), not lower().

        'ß'.casefold() == 'ss' while 'ß'.lower() == 'ß', so under the old
        lower()-based index an alias stored as "Große Straße" could never
        match the all-caps spelling "GROSSE STRASSE" users actually type.
        """
        district = District(
            name="Altstadt",
            state="Hessen",
            country="Germany",
            kind=DistrictKind.WORLD_CITY,
            center=GeoPoint(50.11, 8.68),
            radius_km=5.0,
            aliases=("Große Straße",),
        )
        gazetteer = Gazetteer([district])
        assert gazetteer.lookup_alias("GROSSE STRASSE") == (district,)
        assert gazetteer.lookup_alias("grosse strasse") == (district,)
        assert gazetteer.lookup_alias("Große Straße") == (district,)

    def test_in_state(self, korean_gazetteer):
        seoul = korean_gazetteer.in_state("Seoul")
        assert len(seoul) == 25  # all 25 gu
        assert all(d.state == "Seoul" for d in seoul)

    def test_in_state_unknown_raises(self, korean_gazetteer):
        with pytest.raises(UnknownRegionError):
            korean_gazetteer.in_state("Atlantis")


class TestSpatial:
    def test_nearest_at_centroid(self, korean_gazetteer):
        target = korean_gazetteer.get("Seoul", "Mapo-gu")
        assert korean_gazetteer.nearest(target.center).key() == target.key()

    @given(
        st.floats(min_value=33.2, max_value=38.2),
        st.floats(min_value=126.2, max_value=129.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_nearest_matches_brute_force(self, lat, lon):
        gazetteer = Gazetteer.korean()
        point = GeoPoint(lat, lon)
        fast = gazetteer.nearest(point)
        brute = min(gazetteer.districts, key=lambda d: d.center.distance_km(point))
        assert fast.center.distance_km(point) == pytest.approx(
            brute.center.distance_km(point), abs=1e-9
        )

    @given(
        st.floats(min_value=-90.0, max_value=90.0),
        st.one_of(
            st.floats(min_value=-180.0, max_value=180.0),
            # Hug the antimeridian from both sides.
            st.floats(min_value=179.0, max_value=180.0),
            st.floats(min_value=-180.0, max_value=-179.0),
        ),
        st.sampled_from([None, 0.5, 1.0, 2.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_nearest_matches_brute_force_globally(self, lat, lon, snap_deg):
        """Property: grid-accelerated nearest == brute force over the world
        catalogue, for arbitrary points, points snapped onto grid-cell
        boundaries, and points across the antimeridian."""
        if snap_deg is not None:
            # Snap onto cell boundaries of every factory grid size so the
            # shell search is exercised exactly on cell edges and corners.
            lat = max(-90.0, min(90.0, round(lat / snap_deg) * snap_deg))
            lon = max(-180.0, min(180.0, round(lon / snap_deg) * snap_deg))
        gazetteer = Gazetteer.world()
        point = GeoPoint(lat, lon)
        fast = gazetteer.nearest(point)
        brute = min(gazetteer.districts, key=lambda d: d.center.distance_km(point))
        assert fast.center.distance_km(point) == pytest.approx(
            brute.center.distance_km(point), abs=1e-9
        )

    def test_nearest_across_antimeridian(self):
        """A point just east of the antimeridian must find a centroid just
        west of it (and vice versa) rather than ringing the long way round."""
        west = _district("West-si", "W-do", 10.0, 179.8)
        far = _district("Far-si", "F-do", 10.0, 170.0)
        gazetteer = Gazetteer([west, far], grid_deg=0.5)
        assert gazetteer.nearest(GeoPoint(10.0, -179.9)).name == "West-si"
        mirrored = Gazetteer(
            [_district("East-si", "E-do", 10.0, -179.8), far], grid_deg=0.5
        )
        assert mirrored.nearest(GeoPoint(10.0, 179.9)).name == "East-si"

    def test_within_across_antimeridian(self):
        west = _district("West-si", "W-do", 10.0, 179.8)
        far = _district("Far-si", "F-do", 10.0, 170.0)
        gazetteer = Gazetteer([west, far], grid_deg=0.5)
        hits = gazetteer.within(GeoPoint(10.0, -179.9), radius_km=50.0)
        assert [d.name for d in hits] == ["West-si"]

    def test_nearest_within_cutoff(self, korean_gazetteer):
        # Middle of the East Sea: far from everything at 10 km cutoff.
        sea = GeoPoint(37.5, 131.5)
        assert korean_gazetteer.nearest_within(sea, max_km=10.0) is None
        assert korean_gazetteer.nearest_within(sea, max_km=500.0) is not None

    @settings(max_examples=200, deadline=None)
    @given(
        lat=st.floats(-90.0, 90.0),
        lon=st.floats(-180.0, 180.0),
        max_km=st.sampled_from([1.0, 50.0, 150.0, 2_000.0]),
    )
    def test_nearest_within_is_nearest_under_the_cutoff(
        self, korean_gazetteer, lat, lon, max_km
    ):
        """The early give-up never changes an answer: the result is the
        nearest district (first strict minimum of a brute-force scan) when
        it lies within ``max_km``, else ``None``."""
        point = GeoPoint(lat, lon)
        nearest = min(
            korean_gazetteer.districts, key=lambda d: d.center.distance_km(point)
        )
        expected = nearest if nearest.center.distance_km(point) <= max_km else None
        assert korean_gazetteer.nearest_within(point, max_km) is expected

    def test_within_radius_sorted(self, korean_gazetteer):
        center = korean_gazetteer.get("Seoul", "Jongno-gu").center
        hits = korean_gazetteer.within(center, radius_km=10.0)
        distances = [d.center.distance_km(center) for d in hits]
        assert distances == sorted(distances)
        assert all(dist <= 10.0 for dist in distances)
        assert len(hits) >= 5  # central Seoul is dense

    def test_within_zero_radius(self, korean_gazetteer):
        center = korean_gazetteer.get("Seoul", "Jongno-gu").center
        hits = korean_gazetteer.within(center, radius_km=0.0)
        assert [d.key() for d in hits] == [("Seoul", "Jongno-gu")]


class TestFactories:
    @pytest.mark.parametrize("name", sorted(BUILTIN_GRID_DEG))
    def test_factories_read_the_grid_table(self, name):
        gazetteer = getattr(Gazetteer, name)()
        assert gazetteer.grid_deg == BUILTIN_GRID_DEG[name]
        assert gazetteer.districts == Gazetteer.builtin(name).districts

    def test_unknown_builtin_rejected(self):
        with pytest.raises(UnknownRegionError, match="mars"):
            Gazetteer.builtin("mars")

    def test_world_gazetteer(self, world_gazetteer):
        assert world_gazetteer.find("New York", "New York") is not None
        assert len(world_gazetteer) > 50

    def test_combined_has_both(self, combined_gazetteer):
        assert combined_gazetteer.find("Seoul", "Gangnam-gu") is not None
        assert combined_gazetteer.find("England", "London") is not None

    def test_combined_no_duplicate_seoul(self, combined_gazetteer):
        keys = [d.key() for d in combined_gazetteer.districts]
        assert len(keys) == len(set(keys))
