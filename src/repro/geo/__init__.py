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

from repro._lazy import lazy_exports

_EXPORTS = {
    "forward": ("ForwardGeocodeResult", "GeocodeStatus", "TextGeocoder"),
    "gazetteer": (
        "BUILTIN_GRID_DEG", "Gazetteer", "SpatialGridCore", "builtin_districts",
    ),
    "mentions": ("PlaceMention", "PlaceMentionExtractor"),
    "polygon": ("BoundaryPolygon",),
    "point": (
        "EARTH_RADIUS_KM", "GeoPoint", "centroid", "destination_point",
        "geographic_median", "haversine_km", "initial_bearing_deg", "midpoint",
    ),
    "region": ("AdminPath", "BoundingBox", "District", "DistrictKind", "RegionLevel"),
    "reverse": ("ReverseGeocodeResult", "ReverseGeocoder"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
