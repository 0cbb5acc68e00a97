"""``nearest()`` and ``within()`` against a brute-force haversine scan.

``nearest()`` ranks candidates by squared chord key and measures
haversine only where the key cannot decide; ``within()`` scans only the
grid cells its disc can reach.  The oracle here measures
every district by haversine in catalogue order: the nearest is the first
strict minimum, and ``within`` keeps every district at or under the radius,
stably sorted by distance.  The two must agree exactly — same district
object, same order — on random points, on exact centroids, near the
antimeridian and the poles, and where centroids coincide.
"""

import random

import pytest

from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import District, DistrictKind


def brute_nearest(gazetteer: Gazetteer, point: GeoPoint) -> District:
    best, best_d = None, float("inf")
    for district in gazetteer.districts:
        d = district.center.distance_km(point)
        if d < best_d:
            best, best_d = district, d
    return best


def brute_within(gazetteer: Gazetteer, point: GeoPoint, radius_km: float):
    hits = [
        (district.center.distance_km(point), district)
        for district in gazetteer.districts
    ]
    hits = [(d, district) for d, district in hits if d <= radius_km]
    hits.sort(key=lambda pair: pair[0])
    return tuple(district for _, district in hits)


def _same(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _same_up_to_ties(a, b, point: GeoPoint) -> bool:
    """Same districts at the same distances; equidistant ones in any order.

    At a pole every district on one parallel is equidistant, and the grid
    keeps such ties in shell-scan order, not catalogue order.
    """
    return {id(x) for x in a} == {id(x) for x in b} and [
        x.center.distance_km(point) for x in a
    ] == [x.center.distance_km(point) for x in b]


def _points(gazetteer: Gazetteer, seed: int, box, random_count: int, world_count: int):
    rng = random.Random(seed)
    south, west, north, east = box
    points = [
        GeoPoint(rng.uniform(south, north), rng.uniform(west, east))
        for _ in range(random_count)
    ]
    points += [
        GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
        for _ in range(world_count)
    ]
    for district in gazetteer.districts:
        points.append(district.center)
        points.append(district.center.destination(rng.uniform(0.0, 360.0), rng.uniform(0.0, 2.0)))
    return points


#: Extreme points: both poles, the antimeridian from either side, and its
#: crossing at the equator.
EDGE_POINTS = [
    GeoPoint(lat, lon)
    for lat in (-90.0, -89.95, 0.0, 64.5, 89.95, 90.0)
    for lon in (-180.0, -179.999, 179.999, 180.0)
]

#: (catalogue, bounding box of its dense region, random points, world points)
CATALOGUES = {
    "korean": ((33.0, 124.5, 38.7, 131.0), 1500, 3),
    "world": ((-60.0, -180.0, 75.0, 180.0), 300, 0),
    "combined": ((33.0, 124.5, 38.7, 131.0), 600, 100),
}


@pytest.fixture(scope="module", params=sorted(CATALOGUES))
def catalogue(request):
    box, random_count, world_count = CATALOGUES[request.param]
    gazetteer = Gazetteer.builtin(request.param)
    return request.param, gazetteer, _points(gazetteer, 17, box, random_count, world_count)


class TestNearestOracle:
    def test_matches_brute_force(self, catalogue):
        _, gazetteer, points = catalogue
        mismatches = [
            p for p in points if gazetteer.nearest(p) is not brute_nearest(gazetteer, p)
        ]
        assert not mismatches

    def test_exact_centroids_resolve_to_themselves(self, catalogue):
        _, gazetteer, _ = catalogue
        for district in gazetteer.districts:
            assert gazetteer.nearest(district.center) is district

    def test_edges(self, catalogue):
        name, gazetteer, _ = catalogue
        if name == "korean":
            pytest.skip("every edge query walks the fine Korean grid around the globe")
        for point in EDGE_POINTS:
            assert gazetteer.nearest(point) is brute_nearest(gazetteer, point)


class TestWithinOracle:
    RADII = (0.0, 0.5, 5.0, 45.0, 200.0, 500.0)

    def test_matches_brute_force(self, catalogue):
        _, gazetteer, points = catalogue
        for point in points[::9]:
            for radius in self.RADII:
                assert _same(
                    gazetteer.within(point, radius), brute_within(gazetteer, point, radius)
                ), (point, radius)

    def test_exact_radius_is_inclusive(self, catalogue):
        _, gazetteer, _ = catalogue
        rng = random.Random(5)
        for _ in range(60):
            a, b = rng.sample(gazetteer.districts, 2)
            radius = a.center.distance_km(b.center)
            hits = gazetteer.within(a.center, radius)
            assert b in hits
            assert _same(hits, brute_within(gazetteer, a.center, radius))

    def test_edges_and_far_radii(self, catalogue):
        name, gazetteer, _ = catalogue
        if name == "korean":
            pytest.skip("every edge query walks the fine Korean grid around the globe")
        for point in EDGE_POINTS[::3]:
            for radius in (100.0, 2_500.0, 12_000.0, 25_000.0):
                assert _same_up_to_ties(
                    gazetteer.within(point, radius),
                    brute_within(gazetteer, point, radius),
                    point,
                ), (point, radius)

    def test_negative_radius_is_empty(self, catalogue):
        _, gazetteer, points = catalogue
        assert gazetteer.within(points[0], -1.0) == ()


def _twin(name: str, lat: float, lon: float) -> District:
    return District(
        name=name,
        state="Twin-do",
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
    )


class TestDuplicateCentroids:
    """Two districts on one centroid: the first catalogue index wins."""

    @pytest.mark.parametrize("lat, lon", [(37.5, 127.0), (0.0, 180.0), (-89.9, -179.9)])
    def test_first_index_wins(self, lat, lon):
        first, second = _twin("First-si", lat, lon), _twin("Second-si", lat, lon)
        gazetteer = Gazetteer([first, second], grid_deg=1.0)
        rng = random.Random(3)
        queries = [first.center] + [
            GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)) for _ in range(6)
        ]
        for point in queries:
            assert gazetteer.nearest(point) is first
            assert gazetteer.within(point, 30_000.0) == (first, second)
        assert Gazetteer([second, first], grid_deg=1.0).nearest(first.center) is second

    def test_near_twins_keep_exact_order(self):
        """Centroids a hair apart: the key cannot tell them, haversine can."""
        base = _twin("Base-si", 37.5, 127.0)
        near = _twin("Near-si", 37.5 + 1e-9, 127.0)
        gazetteer = Gazetteer([base, near], grid_deg=0.5)
        rng = random.Random(9)
        for _ in range(300):
            point = GeoPoint(37.5 + rng.uniform(-1e-6, 1e-6), 127.0 + rng.uniform(-1e-6, 1e-6))
            assert gazetteer.nearest(point) is brute_nearest(gazetteer, point)
            assert _same(gazetteer.within(point, 1.0), brute_within(gazetteer, point, 1.0))
