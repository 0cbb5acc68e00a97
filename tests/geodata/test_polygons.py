"""Point-in-polygon resolution: geometry, resolver precedence, agreement.

Covers the :class:`~repro.geo.polygon.BoundaryPolygon` primitive, the
polygon-first :class:`~repro.geo.reverse.ReverseGeocoder` path (including
the boundary-straddling fixture where nearest-centroid used to
mis-assign), and the guarantee that on both seed catalogues — which ship
no polygons — results are unchanged.
"""

import pytest

from repro.errors import GeocodingError, InvalidCoordinateError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import District, DistrictKind
from repro.geo.reverse import ReverseGeocoder
from repro.geodata.artifact import read_gazetteer_artifact, write_gazetteer_artifact


def _district(name, state, lat, lon, radius_km=5.0):
    return District(
        name=name,
        state=state,
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=radius_km,
        aliases=(),
    )


SQUARE = BoundaryPolygon([[(36.0, 126.0), (38.0, 126.0), (38.0, 128.0), (36.0, 128.0)]])


class TestBoundaryPolygon:
    def test_contains_inside_and_outside(self):
        assert SQUARE.contains(GeoPoint(37.0, 127.0))
        assert not SQUARE.contains(GeoPoint(35.0, 127.0))
        assert not SQUARE.contains(GeoPoint(37.0, 129.0))

    def test_bbox_fast_reject(self):
        assert SQUARE.bbox.south == 36.0
        assert SQUARE.bbox.east == 128.0
        assert not SQUARE.contains(GeoPoint(80.0, 127.0))

    def test_hole_punches_out(self):
        holed = BoundaryPolygon(
            [
                [(36.0, 126.0), (38.0, 126.0), (38.0, 128.0), (36.0, 128.0)],
                [(36.8, 126.8), (37.2, 126.8), (37.2, 127.2), (36.8, 127.2)],
            ]
        )
        assert holed.contains(GeoPoint(36.2, 126.2))  # in outer, not in hole
        assert not holed.contains(GeoPoint(37.0, 127.0))  # inside the hole

    def test_concave_ring(self):
        # A "C" shape: the notch on the east side is outside.
        concave = BoundaryPolygon(
            [
                [
                    (0.0, 0.0),
                    (4.0, 0.0),
                    (4.0, 4.0),
                    (0.0, 4.0),
                    (0.0, 3.0),
                    (3.0, 3.0),
                    (3.0, 1.0),
                    (0.0, 1.0),
                ]
            ]
        )
        assert concave.contains(GeoPoint(3.5, 2.0))  # in the spine
        assert not concave.contains(GeoPoint(1.5, 2.0))  # in the notch

    def test_validation(self):
        with pytest.raises(InvalidCoordinateError):
            BoundaryPolygon([])
        with pytest.raises(InvalidCoordinateError):
            BoundaryPolygon([[(0.0, 0.0), (1.0, 1.0)]])
        with pytest.raises(InvalidCoordinateError):
            BoundaryPolygon([[(95.0, 0.0), (1.0, 1.0), (2.0, 2.0)]])

    def test_equality_and_hash(self):
        twin = BoundaryPolygon(
            [[(36.0, 126.0), (38.0, 126.0), (38.0, 128.0), (36.0, 128.0)]]
        )
        assert twin == SQUARE
        assert hash(twin) == hash(SQUARE)
        assert twin != BoundaryPolygon([[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]])


class TestBoundaryStraddling:
    """The fixture the tentpole demands: a point inside district A's
    surveyed boundary but *nearer district B's centroid*.  Nearest-centroid
    mis-assigns it to B; point-in-polygon correctly returns A."""

    #: A-si: big district, centroid far west inside a wide polygon.
    A = _district("A-si", "X-do", 37.0, 126.5, radius_km=60.0)
    #: B-si: small district just east of A's boundary.
    B = _district("B-si", "X-do", 37.0, 128.1, radius_km=5.0)
    #: A's boundary spans lon 125.5..128.0.
    A_POLY = BoundaryPolygon(
        [[(36.0, 125.5), (38.0, 125.5), (38.0, 128.0), (36.0, 128.0)]]
    )
    #: Inside A's polygon, ~18 km from B's centroid but ~124 km from A's.
    PROBE = GeoPoint(37.0, 127.9)

    def _gazetteers(self, tmp_path):
        """The catalogue built directly and decoded from its artifact."""
        polygons = [(("X-do", "A-si"), self.A_POLY)]
        memory = Gazetteer([self.A, self.B], grid_deg=0.5, polygons=polygons)
        path = write_gazetteer_artifact(
            tmp_path / "straddle.rgaz",
            [self.A, self.B],
            grid_deg=0.5,
            polygons=polygons,
        )
        return memory, read_gazetteer_artifact(path)

    def test_centroid_path_misassigns(self):
        """Without polygons the probe snaps to B — the documented failure."""
        bare = Gazetteer([self.A, self.B], grid_deg=0.5)
        result = ReverseGeocoder(bare).resolve(self.PROBE)
        assert result.district.name == "B-si"
        assert not result.via_polygon

    @pytest.mark.parametrize("source", ["memory", "artifact"])
    def test_polygon_resolves_correctly(self, tmp_path, source):
        memory, decoded = self._gazetteers(tmp_path)
        gazetteer = memory if source == "memory" else decoded
        result = ReverseGeocoder(gazetteer).resolve(self.PROBE)
        assert result.district.name == "A-si"
        assert result.via_polygon
        assert result.quality == 87

    def test_polygon_hit_exempt_from_max_distance(self, tmp_path):
        memory, _ = self._gazetteers(tmp_path)
        # The probe is ~124 km from A's centroid; a 50 km cutoff would
        # reject the centroid path, but the polygon hit stands.
        result = ReverseGeocoder(memory, max_distance_km=50.0).resolve(self.PROBE)
        assert result.district.name == "A-si"
        assert result.via_polygon

    def test_outside_all_polygons_falls_back(self, tmp_path):
        memory, decoded = self._gazetteers(tmp_path)
        east = GeoPoint(37.0, 128.4)  # outside A's boundary, nearest B
        for gazetteer in (memory, decoded):
            result = ReverseGeocoder(gazetteer).resolve(east)
            assert result.district.name == "B-si"
            assert not result.via_polygon

    def test_far_outside_still_raises(self, tmp_path):
        memory, _ = self._gazetteers(tmp_path)
        with pytest.raises(GeocodingError):
            ReverseGeocoder(memory, max_distance_km=50.0).resolve(
                GeoPoint(10.0, 60.0)
            )

    def test_overlap_prefers_lowest_catalogue_index(self, tmp_path):
        """Overlapping claims break ties by catalogue order, also after an
        artifact round trip."""
        b_poly = BoundaryPolygon(
            [[(36.5, 127.5), (37.5, 127.5), (37.5, 128.5), (36.5, 128.5)]]
        )
        polygons = [(("X-do", "A-si"), self.A_POLY), (("X-do", "B-si"), b_poly)]
        memory = Gazetteer([self.A, self.B], grid_deg=0.5, polygons=polygons)
        path = write_gazetteer_artifact(
            tmp_path / "overlap.rgaz",
            [self.A, self.B],
            grid_deg=0.5,
            polygons=polygons,
        )
        decoded = read_gazetteer_artifact(path)
        for gazetteer in (memory, decoded):
            assert gazetteer.polygon_locate(self.PROBE).name == "A-si"


class TestSeedAgreement:
    """Both seed catalogues ship no polygons, so polygon-first resolution
    must agree with the pure centroid path everywhere — the byte-identity
    precondition for the study pipelines."""

    @pytest.mark.parametrize("catalogue", ["korean", "combined"])
    def test_polygon_and_centroid_paths_agree(self, catalogue, request, decoded):
        gazetteer = request.getfixturevalue(f"{catalogue}_gazetteer")
        assert gazetteer.polygons == ()
        assert decoded[catalogue].polygons == ()
        geocoder = ReverseGeocoder(gazetteer)
        decoded_geocoder = ReverseGeocoder(decoded[catalogue])
        probes = [d.center for d in gazetteer.districts[::7]]
        probes += [
            GeoPoint(d.center.lat + 0.01, d.center.lon - 0.01)
            for d in gazetteer.districts[::11]
        ]
        for point in probes:
            assert gazetteer.polygon_locate(point) is None
            result = geocoder.resolve(point)
            assert not result.via_polygon
            assert decoded_geocoder.resolve(point) == result
