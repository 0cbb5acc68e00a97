"""MmapGazetteer: the catalogue read zero-copy out of an ``RGAZ1`` file.

Where the in-memory :class:`~repro.geo.gazetteer.Gazetteer` holds a
Python object graph, this backend holds :class:`memoryview` slices of
one read-only mmap.  Opening is O(header): no district, string, or
polygon is decoded until a query touches it, and everything decoded is
memoised.  N worker processes mapping the same artifact share a single
page-cache copy — the reason sharded runs ship a *path* to workers
instead of pickling the catalogue (see :meth:`MmapGazetteer.__reduce__`).

Query semantics are bit-identical to the in-memory backend: both derive
the entire spatial search from
:class:`~repro.geo.gazetteer.SpatialGridCore`, and the artifact stores
grid buckets, alias hits, and state members in catalogue order, so every
tie breaks the same way.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import Any

from repro.errors import UnknownRegionError
from repro.geo.gazetteer import SpatialGridCore
from repro.geo.point import GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import BoundingBox, District, DistrictKind
from repro.geodata.artifact import open_gazetteer_artifact

_EMPTY: tuple[int, ...] = ()


class MmapGazetteer(SpatialGridCore):
    """A :class:`~repro.geo.gazetteer.GazetteerBackend` over an artifact.

    Args:
        path: An ``RGAZ1`` artifact written by
            :func:`~repro.geodata.artifact.write_gazetteer_artifact`.

    Raises:
        StorageError: if the file is missing, corrupt, or a version this
            build does not read.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._reader, self._meta = open_gazetteer_artifact(self._path)
        reader = self._reader
        self._strings = reader.strings("strings")
        self._count: int = int(self._meta["districts"])
        self._init_spatial(float(self._meta["grid_deg"]))

        self._name_ids = reader.i64("districts.name_ids")
        self._state_ids = reader.i64("districts.state_ids")
        self._country_ids = reader.i64("districts.country_ids")
        self._kind_ids = reader.i64("districts.kind_ids")
        self._lat = reader.f64("districts.lat")
        self._lon = reader.f64("districts.lon")
        self._radius = reader.f64("districts.radius_km")
        self._weight = reader.f64("districts.weight")
        self._alias_offsets = reader.i64("districts.alias_offsets")
        self._alias_ids = reader.i64("districts.alias_ids")
        self._key_order = reader.i64("keys.order")
        self._state_name_ids = reader.i64("states.name_ids")
        self._state_offsets = reader.i64("states.offsets")
        self._state_district_ids = reader.i64("states.district_ids")
        self._alias_keys = reader.strings("alias_index.keys")
        self._alias_key_offsets = reader.i64("alias_index.offsets")
        self._alias_key_ids = reader.i64("alias_index.district_ids")
        self._grid_keys = reader.i64("grid.keys")
        self._grid_offsets = reader.i64("grid.offsets")
        self._grid_ids = reader.i64("grid.district_ids")
        self._poly_district_ids = reader.i64("polygons.district_ids")
        self._poly_bbox = reader.f64("polygons.bbox")
        self._poly_ring_offsets = reader.i64("polygons.ring_offsets")
        self._ring_point_offsets = reader.i64("rings.point_offsets")
        self._ring_lat = reader.f64("rings.lat")
        self._ring_lon = reader.f64("rings.lon")

        self._district_cache: dict[int, District] = {}
        self._polygon_cache: dict[int, BoundaryPolygon] = {}
        self._districts_tuple: tuple[District, ...] | None = None
        self._states_tuple: tuple[str, ...] | None = None
        self._state_spans: dict[str, tuple[int, int]] | None = None

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[District]:
        return (self._district_at(index) for index in range(self._count))

    @property
    def path(self) -> Path:
        """The mapped artifact file."""
        return self._path

    @property
    def meta(self) -> dict[str, Any]:
        """A copy of the artifact's meta section (format, counts, grid)."""
        return dict(self._meta)

    @property
    def grid_deg(self) -> float:
        """Cell size of the spatial index in degrees."""
        return self._grid_deg

    @property
    def districts(self) -> tuple[District, ...]:
        """All districts, in catalogue order (materialised once, memoised)."""
        if self._districts_tuple is None:
            self._districts_tuple = tuple(
                self._district_at(index) for index in range(self._count)
            )
        return self._districts_tuple

    @property
    def states(self) -> tuple[str, ...]:
        """All STATE-level names, sorted."""
        if self._states_tuple is None:
            self._states_tuple = tuple(
                self._strings.lookup(sid) for sid in self._state_name_ids
            )
        return self._states_tuple

    def in_state(self, state: str) -> tuple[District, ...]:
        """Districts belonging to ``state``.

        Raises:
            UnknownRegionError: if the state is not in the catalogue.
        """
        if self._state_spans is None:
            spans: dict[str, tuple[int, int]] = {}
            for position, name in enumerate(self.states):
                spans[name] = (
                    self._state_offsets[position],
                    self._state_offsets[position + 1],
                )
            self._state_spans = spans
        span = self._state_spans.get(state)
        if span is None:
            raise UnknownRegionError(f"unknown state: {state!r}")
        return tuple(
            self._district_at(self._state_district_ids[index])
            for index in range(span[0], span[1])
        )

    # ----------------------------------------------------------------- lookup
    def get(self, state: str, county: str) -> District:
        """Exact lookup by ``(state, county)``.

        Raises:
            UnknownRegionError: if no such district exists.
        """
        district = self.find(state, county)
        if district is None:
            raise UnknownRegionError(f"unknown district: ({state!r}, {county!r})")
        return district

    def find(self, state: str, county: str) -> District | None:
        """Exact lookup returning ``None`` instead of raising.

        Binary search over ``keys.order``; only the O(log n) probed keys
        are ever decoded (and memoised by the string table).
        """
        target = (state, county)
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            index = self._key_order[mid]
            key = (
                self._strings.lookup(self._state_ids[index]),
                self._strings.lookup(self._name_ids[index]),
            )
            if key < target:
                lo = mid + 1
            else:
                hi = mid
        if lo == self._count:
            return None
        index = self._key_order[lo]
        if (
            self._strings.lookup(self._state_ids[index]),
            self._strings.lookup(self._name_ids[index]),
        ) != target:
            return None
        return self._district_at(index)

    def lookup_alias(self, alias: str) -> tuple[District, ...]:
        """All districts matching a case-folded alias (possibly several).

        Binary search over the sorted case-folded key table; per-key hit
        lists come back in catalogue order, like the in-memory index.
        """
        query = alias.casefold().strip()
        lo, hi = 0, len(self._alias_keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._alias_keys.lookup(mid) < query:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self._alias_keys) or self._alias_keys.lookup(lo) != query:
            return ()
        return tuple(
            self._district_at(self._alias_key_ids[index])
            for index in range(
                self._alias_key_offsets[lo], self._alias_key_offsets[lo + 1]
            )
        )

    # ------------------------------------------------------- index accessors
    def _bucket(self, cell: tuple[int, int]) -> Sequence[int]:
        """District ids homed in ``cell`` — a zero-copy slice of the CSR."""
        key = cell[0] * self._lon_cells + cell[1]
        position = bisect_left(self._grid_keys, key)
        if position == len(self._grid_keys) or self._grid_keys[position] != key:
            return _EMPTY
        return self._grid_ids[
            self._grid_offsets[position] : self._grid_offsets[position + 1]
        ]

    def _district_at(self, index: int) -> District:
        """Materialise (and memoise) the district at catalogue ``index``."""
        district = self._district_cache.get(index)
        if district is None:
            lookup = self._strings.lookup
            district = District(
                name=lookup(self._name_ids[index]),
                state=lookup(self._state_ids[index]),
                country=lookup(self._country_ids[index]),
                kind=DistrictKind(lookup(self._kind_ids[index])),
                center=GeoPoint(self._lat[index], self._lon[index]),
                radius_km=self._radius[index],
                aliases=tuple(
                    lookup(self._alias_ids[position])
                    for position in range(
                        self._alias_offsets[index], self._alias_offsets[index + 1]
                    )
                ),
                population_weight=self._weight[index],
            )
            self._district_cache[index] = district
        return district

    def _center_at(self, index: int) -> GeoPoint:
        """Centroid at ``index`` — straight off the float64 columns."""
        district = self._district_cache.get(index)
        if district is not None:
            return district.center
        return GeoPoint(self._lat[index], self._lon[index])

    def _polygon_count(self) -> int:
        """Number of boundary polygons in the artifact."""
        return len(self._poly_district_ids)

    def _polygon_bbox(self, index: int) -> BoundingBox:
        """Bounding box of polygon ``index`` from the packed bbox column."""
        base = 4 * index
        return BoundingBox(
            self._poly_bbox[base],
            self._poly_bbox[base + 1],
            self._poly_bbox[base + 2],
            self._poly_bbox[base + 3],
        )

    def _polygon_district_index(self, index: int) -> int:
        """Catalogue index of the district polygon ``index`` outlines."""
        return self._poly_district_ids[index]

    def _polygon_at(self, index: int) -> BoundaryPolygon:
        """Materialise (and memoise) polygon ``index`` from the CSR rings."""
        polygon = self._polygon_cache.get(index)
        if polygon is None:
            rings = []
            for ring in range(
                self._poly_ring_offsets[index], self._poly_ring_offsets[index + 1]
            ):
                start = self._ring_point_offsets[ring]
                stop = self._ring_point_offsets[ring + 1]
                rings.append(
                    tuple(
                        (self._ring_lat[position], self._ring_lon[position])
                        for position in range(start, stop)
                    )
                )
            polygon = BoundaryPolygon(rings)
            self._polygon_cache[index] = polygon
        return polygon

    # -------------------------------------------------------------- lifecycle
    def __reduce__(self) -> tuple[Any, tuple[str]]:
        """Pickle as the artifact *path*, not the object graph.

        A sharded run's worker payload therefore carries a few dozen
        bytes; each worker re-maps the same file and the OS page cache
        holds one copy for all of them.
        """
        return (type(self), (str(self._path),))

    def close(self) -> None:
        """Release the underlying mapping (queries are invalid after)."""
        self._reader.close()

    def __repr__(self) -> str:
        return (
            f"MmapGazetteer({str(self._path)!r}, districts={self._count}, "
            f"polygons={self._polygon_count()})"
        )
