"""Reverse geocoding: GPS coordinates -> administrative path.

This is the library-level equivalent of the Yahoo PlaceFinder lookups the
paper performed for every GPS-tagged tweet (paper §III-B, Fig. 5).  The
:mod:`repro.yahooapi` package wraps this resolver in an XML/HTTP-shaped
client; pipelines that do not need the API simulation can call the
resolver directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeocodingError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath, District


@dataclass(frozen=True, slots=True)
class ReverseGeocodeResult:
    """Result of a reverse-geocode lookup.

    Attributes:
        path: The administrative path (country/state/county/town).
        district: The matched gazetteer district.
        distance_km: Distance from the query point to the district centroid.
        quality: 0-100 score in the PlaceFinder style; decays with distance
            relative to the district radius.
        via_polygon: True when an authoritative boundary polygon resolved
            the point; False for the nearest-centroid path.
    """

    path: AdminPath
    district: District
    distance_km: float
    quality: int
    via_polygon: bool = False


class ReverseGeocoder:
    """Maps GPS points to gazetteer districts.

    Resolution is polygon-first: where the catalogue carries boundary
    polygons, a containment hit is authoritative — Voronoi-style
    nearest-centroid mis-assignments near district borders cannot happen.
    Everywhere else (including both seed catalogues, which ship no
    polygons) the Voronoi-safe nearest-centroid path applies unchanged.

    Args:
        gazetteer: District catalogue to resolve against.
        max_distance_km: Points farther than this from every district
            centroid are considered unresolvable (ocean, wilderness).
            Polygon hits are exempt — being inside the boundary *is* the
            district, however far its centroid sits.
    """

    def __init__(self, gazetteer: Gazetteer, max_distance_km: float = 150.0):
        self._gazetteer = gazetteer
        self._max_distance_km = max_distance_km

    @property
    def gazetteer(self) -> Gazetteer:
        """The underlying district catalogue."""
        return self._gazetteer

    def resolve(self, point: GeoPoint) -> ReverseGeocodeResult:
        """Resolve ``point`` to a district, polygon-first.

        Raises:
            GeocodingError: if no polygon contains the point and no
                district centroid lies within ``max_distance_km``.
        """
        district = self._gazetteer.polygon_locate(point)
        if district is not None:
            # Inside the surveyed boundary: coordinate-level match, the
            # quality the real PlaceFinder reports for an exact fix.
            return ReverseGeocodeResult(
                path=district.admin_path(),
                district=district,
                distance_km=district.center.distance_km(point),
                quality=87,
                via_polygon=True,
            )
        district = self._gazetteer.nearest_within(point, self._max_distance_km)
        if district is None:
            raise GeocodingError(
                f"no district within {self._max_distance_km:.0f} km of {point}"
            )
        distance_km = district.center.distance_km(point)
        return ReverseGeocodeResult(
            path=district.admin_path(),
            district=district,
            distance_km=distance_km,
            quality=self._quality(distance_km, district.radius_km),
        )

    def try_resolve(self, point: GeoPoint) -> ReverseGeocodeResult | None:
        """Like :meth:`resolve` but ``None`` on failure."""
        try:
            return self.resolve(point)
        except GeocodingError:
            return None

    @staticmethod
    def _quality(distance_km: float, radius_km: float) -> int:
        """PlaceFinder-style quality score: 87 inside the district (the score
        the real API reports for coordinate-level matches), decaying once
        the point falls outside the nominal radius."""
        if distance_km <= radius_km:
            return 87
        overshoot = (distance_km - radius_km) / max(radius_km, 0.1)
        return max(10, int(87 - 20 * overshoot))
