"""Geographic substrate: points, districts, gazetteers, and geocoding.

Public surface of :mod:`repro.geo`:

* :class:`GeoPoint` plus great-circle helpers (:func:`haversine_km`, ...)
* :class:`District`, :class:`AdminPath`, :class:`BoundingBox` region model
* :class:`Gazetteer` with the builtin Korean / world / combined
  catalogues (:func:`builtin_districts`, :data:`BUILTIN_GRID_DEG`) and
  the :class:`SpatialGridCore` search algorithm it inherits
* :class:`BoundaryPolygon` authoritative district outlines
* :class:`ReverseGeocoder` (GPS -> admin path, polygon-first)
* :class:`TextGeocoder` (free text -> district) and its status codes
"""

from repro.geo.forward import (
    ForwardGeocodeResult,
    GeocodeStatus,
    TextGeocoder,
)
from repro.geo.gazetteer import (
    BUILTIN_GRID_DEG,
    Gazetteer,
    SpatialGridCore,
    builtin_districts,
)
from repro.geo.mentions import PlaceMention, PlaceMentionExtractor
from repro.geo.polygon import BoundaryPolygon
from repro.geo.point import (
    EARTH_RADIUS_KM,
    GeoPoint,
    centroid,
    destination_point,
    geographic_median,
    haversine_km,
    initial_bearing_deg,
    midpoint,
)
from repro.geo.region import (
    AdminPath,
    BoundingBox,
    District,
    DistrictKind,
    RegionLevel,
)
from repro.geo.reverse import ReverseGeocodeResult, ReverseGeocoder

__all__ = [
    "BUILTIN_GRID_DEG",
    "EARTH_RADIUS_KM",
    "AdminPath",
    "BoundaryPolygon",
    "BoundingBox",
    "District",
    "DistrictKind",
    "ForwardGeocodeResult",
    "Gazetteer",
    "GeocodeStatus",
    "GeoPoint",
    "PlaceMention",
    "PlaceMentionExtractor",
    "RegionLevel",
    "ReverseGeocodeResult",
    "ReverseGeocoder",
    "SpatialGridCore",
    "TextGeocoder",
    "builtin_districts",
    "centroid",
    "destination_point",
    "geographic_median",
    "haversine_km",
    "initial_bearing_deg",
    "midpoint",
]
