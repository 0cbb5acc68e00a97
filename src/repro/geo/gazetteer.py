"""Gazetteer: the district catalogue with name and spatial indexes.

The gazetteer is the single source of truth shared by the synthetic data
generators (which scatter GPS fixes inside districts), the reverse geocoder
(which maps a fix back to a district), and the forward geocoder (which
resolves free-text profile locations).  Keeping one catalogue guarantees
the round trip "resident of X tweets near X's centroid -> reverse geocodes
to X" that the study's matched-string logic depends on.

:class:`Gazetteer` is the one implementation: an in-memory catalogue of
:class:`~repro.geo.region.District` objects, built from a builtin
catalogue (:data:`BUILTIN_GRID_DEG` names them) or decoded from an
``RGAZ1`` artifact by :func:`repro.geodata.artifact.read_gazetteer_artifact`.
Its spatial search algorithm — cell mapping, Chebyshev shell expansion,
the squared-chord candidate key, the provable stopping bound,
tie-breaking, and point-in-polygon candidate lookup — lives in the base
class :class:`SpatialGridCore`, which reads the catalogue only through a
few index accessors.

Lookup structures:

* ``by_key`` — exact ``(state, county)`` lookup.
* ``alias index`` — case-folded alias -> candidate districts (an alias
  such as ``"jung-gu"`` is ambiguous across metropolitan cities, so the
  index maps to a list).  ``str.casefold()`` rather than ``lower()`` so
  non-ASCII aliases (German sharp-s, Turkish dotted-I) match all their
  spellings.
* ``spatial grid`` — a uniform lat/lon grid for nearest-centroid queries;
  with a few hundred districts this keeps nearest-neighbour searches to a
  handful of candidate cells instead of a full scan.  Longitude cells wrap
  modulo the cell count, so a query at lon 179.9° sees candidates indexed
  at -179.9° — the antimeridian is an ordinary cell boundary, not an edge.
* ``polygon grid`` — optional boundary polygons bucketed by bounding box
  into the same cells, for authoritative point-in-polygon resolution.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError, UnknownRegionError
from repro.geo.point import EARTH_RADIUS_KM, GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import BoundingBox, District


#: Squared-chord slack inside which two candidates may compare either way
#: under haversine.  ``_unit_vector`` keys and haversine's ``h`` compute
#: the same quantity (``key == 4 * h`` on the unit sphere) from the same
#: degrees; each is off by at most a few 1e-15, so a candidate whose key
#: exceeds another's by more than this is provably farther by haversine
#: too.  Only candidates inside the slack need the exact distance.
_KEY_SLACK = 1e-11


def _unit_vector(point: GeoPoint) -> tuple[float, float, float]:
    """``point`` on the unit sphere, as ``(x, y, z)``."""
    lat = math.radians(point.lat)
    lon = math.radians(point.lon)
    cos_lat = math.cos(lat)
    return (cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat))


class SpatialGridCore:
    """The spatial-search algorithm behind :class:`Gazetteer`.

    Subclasses call :meth:`_init_spatial` during construction and provide
    the index accessors below; everything else — cell mapping, shell
    expansion, the squared-chord candidate key, the provable stopping
    bound, first-seen-wins tie-breaking, and polygon candidate lookup —
    lives here:

    * :meth:`_bucket` — district indices homed in one grid cell, in
      catalogue order (tie-breaks depend on it).
    * :meth:`_district_at` — materialise a district by catalogue index.
    * :meth:`_polygon_count` / :meth:`_polygon_bbox` /
      :meth:`_polygon_district_index` / :meth:`_polygon_at` — the optional
      boundary-polygon layer, indexed ``0..count`` in ascending district
      order.

    :meth:`nearest` compares candidates by squared chord length between
    unit vectors — a few multiplications, monotone in great-circle
    distance — and computes haversine only for the candidates within
    :data:`_KEY_SLACK` of the best key; its result, ties included, is
    exactly that of ranking every candidate by haversine.
    """

    def _init_spatial(self, grid_deg: float, centers: Iterable[GeoPoint]) -> None:
        """Configure grid geometry and the centroids' unit vectors (in
        catalogue order); must run before any spatial query."""
        self._grid_deg = grid_deg
        # Longitude columns wrap: floor(180/g) and floor(-180/g) land in the
        # same column modulo this count, so ring expansion crosses the
        # antimeridian for free.
        self._lon_cells = max(1, round(360.0 / grid_deg))
        centers = tuple(centers)
        self._units = tuple(_unit_vector(center) for center in centers)
        # Latitude span of every centroid: bounds how close any of them
        # can be to a query outside it (:meth:`_ring_lower_bound_km`).
        self._lat_span = (
            min(center.lat for center in centers),
            max(center.lat for center in centers),
        )
        self._poly_cells: dict[tuple[int, int], tuple[int, ...]] | None = None

    # ------------------------------------------------------- index accessors
    def _bucket(self, cell: tuple[int, int]) -> Sequence[int]:
        """District indices homed in ``cell``, in catalogue order."""
        raise NotImplementedError

    def _district_at(self, index: int) -> District:
        """The district at catalogue ``index``."""
        raise NotImplementedError

    def _polygon_count(self) -> int:
        """Number of boundary polygons (0 when the layer is absent)."""
        raise NotImplementedError

    def _polygon_bbox(self, index: int) -> BoundingBox:
        """Bounding box of polygon ``index``."""
        raise NotImplementedError

    def _polygon_district_index(self, index: int) -> int:
        """Catalogue index of the district polygon ``index`` outlines."""
        raise NotImplementedError

    def _polygon_at(self, index: int) -> BoundaryPolygon:
        """Materialise polygon ``index``."""
        raise NotImplementedError

    # ---------------------------------------------------------------- spatial
    def _cell(self, point: GeoPoint) -> tuple[int, int]:
        return (
            int(math.floor(point.lat / self._grid_deg)),
            int(math.floor(point.lon / self._grid_deg)) % self._lon_cells,
        )

    def _shell(self, ci: int, cj: int, ring: int) -> Iterator[tuple[int, int]]:
        """Grid keys on the Chebyshev shell at ``ring`` around ``(ci, cj)``.

        O(ring) cells per shell.  Longitude offsets are taken modulo the
        column count, so once ``2*ring + 1`` exceeds it a shell revisits
        wrapped columns — callers dedupe across shells with a seen-set.
        """
        n = self._lon_cells
        if ring == 0:
            yield (ci, cj % n)
            return
        for dj in range(-ring, ring + 1):
            yield (ci - ring, (cj + dj) % n)
            yield (ci + ring, (cj + dj) % n)
        for di in range(-ring + 1, ring):
            yield (ci + di, (cj - ring) % n)
            yield (ci + di, (cj + ring) % n)

    def _candidate_ids(
        self, center: tuple[int, int], ring: int, seen: set[tuple[int, int]]
    ) -> list[int]:
        """Catalogue indices in unseen cells of shell ``ring`` around cell
        ``center``."""
        ci, cj = center
        found: list[int] = []
        for cell in self._shell(ci, cj, ring):
            if cell in seen:
                continue
            seen.add(cell)
            found.extend(self._bucket(cell))
        return found

    def _ring_lower_bound_km(self, point: GeoPoint, ring: int) -> float:
        """A distance every centroid beyond ``ring`` provably exceeds.

        A cell outside the scanned square is at least ``ring`` rows away in
        latitude or at least ``ring`` columns away in longitude.  The
        latitude bound is the meridian arc of ``ring`` cell heights.  The
        longitude bound is the haversine distance for a ``ring``-cell
        longitude gap, minimised over the latitudes such a cell can occupy
        (within ``ring + 1`` rows of the query); once the scanned square
        wraps the whole globe in longitude only the latitude bound applies.

        Every centroid also lies within the catalogue's latitude span, so
        the meridian arc from ``point`` to that span bounds all of them at
        any ring.  Far outside the span — a pole, or the equator for the
        Korean catalogue — that arc is what ends the search, where the
        shell bounds would need hundreds of rings.
        """
        south, north = self._lat_span
        span_gap = max(0.0, south - point.lat, point.lat - north)
        span_bound = math.radians(span_gap) * EARTH_RADIUS_KM
        if ring == 0:
            return span_bound  # both shell bounds are 0 for a zero-cell gap
        g = self._grid_deg
        lat_bound = math.radians(ring * g) * EARTH_RADIUS_KM
        if 2 * ring + 1 >= self._lon_cells:
            return max(span_bound, lat_bound)
        cos_here = max(0.0, math.cos(math.radians(point.lat)))
        reach = min(90.0, abs(point.lat) + (ring + 1) * g)
        cos_far = max(0.0, math.cos(math.radians(reach)))
        half_gap = math.radians(min(180.0, ring * g)) / 2.0
        h = min(1.0, math.sqrt(cos_here * cos_far) * math.sin(half_gap))
        lon_bound = 2.0 * EARTH_RADIUS_KM * math.asin(h)
        return max(span_bound, min(lat_bound, lon_bound))

    def nearest(self, point: GeoPoint) -> District:
        """The district whose centroid is closest to ``point``.

        Expands Chebyshev shells outwards through the grid and stops once
        the best distance so far is provably shorter than anything a
        further shell could hold (:meth:`_ring_lower_bound_km`) — exact at
        cell boundaries, near the poles, and across the antimeridian.
        Ties break to the first candidate encountered (strict ``<`` on
        haversine distance): shells inside out, cells in shell order, each
        bucket in catalogue order.
        """
        district = self.nearest_within(point, math.inf)
        if district is None:  # pragma: no cover - gazetteer is never empty
            raise UnknownRegionError("nearest() on empty gazetteer")
        return district

    def nearest_within(self, point: GeoPoint, max_km: float) -> District | None:
        """:meth:`nearest`, or ``None`` if it lies farther than ``max_km``.

        The shell walk also stops once every unseen centroid is provably
        farther than ``max_km``, so a point far from the whole catalogue
        costs a few shells, not a walk around the globe.

        Candidates are ranked by squared chord key; the ones within
        :data:`_KEY_SLACK` of the best key so far are kept, in encounter
        order, and only they are measured by haversine.
        """
        max_ring = int(math.ceil(360.0 / self._grid_deg)) + 2
        units = self._units
        qx, qy, qz = _unit_vector(point)
        center = self._cell(point)
        best_key = math.inf
        # [index, key, haversine km or None], in encounter order.
        close: list[list] = []
        best, best_d = -1, math.inf
        seen: set[tuple[int, int]] = set()
        for ring in range(max_ring):
            for index in self._candidate_ids(center, ring, seen):
                x, y, z = units[index]
                dx, dy, dz = x - qx, y - qy, z - qz
                key = dx * dx + dy * dy + dz * dz
                if key <= best_key + _KEY_SLACK:
                    if key < best_key:
                        best_key = key
                        close = [c for c in close if c[1] <= key + _KEY_SLACK]
                    close.append([index, key, None])
            bound = self._ring_lower_bound_km(point, ring)
            if close:
                best_d = math.inf
                for candidate in close:
                    if candidate[2] is None:
                        candidate[2] = self._district_at(candidate[0]).center.distance_km(point)
                    if candidate[2] < best_d:
                        best, best_d = candidate[0], candidate[2]
                if best_d <= bound:
                    break
            if bound > max_km:
                break
        if best < 0 or best_d > max_km:
            return None
        return self._district_at(best)

    def within(self, point: GeoPoint, radius_km: float) -> tuple[District, ...]:
        """All districts whose centroid is within ``radius_km`` of ``point``.

        Used by event localisation to enumerate plausible witness districts.
        Sorted by distance; equidistant districts keep encounter order
        (stable sort over the shell scan).
        """
        # Ring count that covers radius_km in latitude and — widened by the
        # bounding-box asin formula, which accounts for meridian convergence
        # — in longitude; a disk touching a pole needs every column.
        arc = radius_km / EARTH_RADIUS_KM
        lat_deg = math.degrees(arc)
        cos_lat = math.cos(math.radians(point.lat))
        if abs(point.lat) + lat_deg >= 90.0 or math.sin(arc) >= cos_lat:
            lon_deg = 180.0
        else:
            lon_deg = math.degrees(math.asin(math.sin(arc) / cos_lat))
        deg = max(lat_deg, lon_deg) + self._grid_deg
        rings = int(math.ceil(deg / self._grid_deg))
        center = self._cell(point)
        hits: list[tuple[int, float]] = []
        seen: set[tuple[int, int]] = set()
        for ring in range(rings + 1):
            for index in self._candidate_ids(center, ring, seen):
                d = self._district_at(index).center.distance_km(point)
                if d <= radius_km:
                    hits.append((index, d))
        hits.sort(key=lambda pair: pair[1])
        return tuple(self._district_at(index) for index, _ in hits)

    # --------------------------------------------------------------- polygons
    def _polygon_cells(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Lazy cell index over polygon bounding boxes.

        Each polygon is registered in every grid cell its bbox overlaps;
        per-cell lists keep ascending polygon order, which (polygons being
        stored in ascending district order) makes overlapping claims
        resolve to the lowest catalogue index.
        """
        if self._poly_cells is None:
            cells: dict[tuple[int, int], list[int]] = defaultdict(list)
            g, n = self._grid_deg, self._lon_cells
            for index in range(self._polygon_count()):
                box = self._polygon_bbox(index)
                i0 = int(math.floor(box.south / g))
                i1 = int(math.floor(box.north / g))
                j0 = int(math.floor(box.west / g))
                j1 = int(math.floor(box.east / g))
                columns = (
                    range(n) if j1 - j0 + 1 >= n
                    else sorted({cj % n for cj in range(j0, j1 + 1)})
                )
                for ci in range(i0, i1 + 1):
                    for cj in columns:
                        cells[(ci, cj)].append(index)
            self._poly_cells = {
                cell: tuple(indices) for cell, indices in cells.items()
            }
        return self._poly_cells

    def polygon_locate(self, point: GeoPoint) -> District | None:
        """The district whose boundary polygon contains ``point``, if any.

        Authoritative where boundary data exists: a hit overrides the
        nearest-centroid heuristic.  Returns ``None`` when no polygon
        claims the point (including on catalogues with no polygon layer),
        letting resolvers fall back to :meth:`nearest`.
        """
        if self._polygon_count() == 0:
            return None
        for index in self._polygon_cells().get(self._cell(point), ()):
            if self._polygon_bbox(index).contains(point) and self._polygon_at(
                index
            ).contains(point):
                return self._district_at(self._polygon_district_index(index))
        return None


#: Accepted spatial-grid cell sizes in degrees, inclusive: a finer grid
#: makes ``nearest()`` scan tens of thousands of empty shells, and a
#: non-finite or non-positive one has no cells at all.
GRID_DEG_RANGE = (0.01, 180.0)

#: Grid cell size (degrees) of each builtin catalogue, by name.
BUILTIN_GRID_DEG = {"korean": 0.5, "world": 2.0, "combined": 1.0}


class Gazetteer(SpatialGridCore):
    """An immutable in-memory catalogue of districts with fast lookups."""

    def __init__(
        self,
        districts: Iterable[District],
        grid_deg: float = 0.5,
        polygons: Iterable[tuple[tuple[str, str], BoundaryPolygon]] = (),
    ):
        """Build a gazetteer over ``districts``.

        Args:
            districts: The districts to index.  ``(state, name)`` pairs must
                be unique.
            grid_deg: Cell size of the spatial index in degrees, within
                :data:`GRID_DEG_RANGE`.
            polygons: Optional boundary layer as ``((state, county),
                polygon)`` pairs; every key must name a catalogue district.

        Raises:
            UnknownRegionError: on an empty catalogue, a duplicate key, or
                a polygon naming an unknown district.
            ConfigurationError: if ``grid_deg`` is outside
                :data:`GRID_DEG_RANGE` (NaN and infinities included).
        """
        self._districts: tuple[District, ...] = tuple(districts)
        if not self._districts:
            raise UnknownRegionError("gazetteer requires at least one district")
        low, high = GRID_DEG_RANGE
        if not low <= grid_deg <= high:  # also false for NaN
            raise ConfigurationError(
                f"grid_deg must be within [{low}, {high}] degrees, got {grid_deg!r}"
            )
        self._init_spatial(grid_deg, (d.center for d in self._districts))

        self._by_key: dict[tuple[str, str], int] = {}
        for index, district in enumerate(self._districts):
            key = district.key()
            if key in self._by_key:
                raise UnknownRegionError(f"duplicate district key {key}")
            self._by_key[key] = index

        self._by_alias: dict[str, list[District]] = defaultdict(list)
        for district in self._districts:
            for alias in district.aliases:
                self._by_alias[alias.casefold()].append(district)

        self._grid: dict[tuple[int, int], list[int]] = defaultdict(list)
        for index, district in enumerate(self._districts):
            self._grid[self._cell(district.center)].append(index)

        self._states: dict[str, list[District]] = defaultdict(list)
        for district in self._districts:
            self._states[district.state].append(district)

        entries: list[tuple[int, BoundaryPolygon]] = []
        for key, polygon in polygons:
            index = self._by_key.get(tuple(key))
            if index is None:
                raise UnknownRegionError(
                    f"polygon references unknown district {tuple(key)!r}"
                )
            entries.append((index, polygon))
        entries.sort(key=lambda entry: entry[0])
        self._polygons: tuple[tuple[int, BoundaryPolygon], ...] = tuple(entries)

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self._districts)

    def __iter__(self) -> Iterator[District]:
        return iter(self._districts)

    @property
    def districts(self) -> tuple[District, ...]:
        """All districts, in catalogue order."""
        return self._districts

    @property
    def states(self) -> tuple[str, ...]:
        """All STATE-level names, sorted."""
        return tuple(sorted(self._states))

    @property
    def grid_deg(self) -> float:
        """Cell size of the spatial index in degrees."""
        return self._grid_deg

    @property
    def polygons(self) -> tuple[tuple[int, BoundaryPolygon], ...]:
        """The boundary layer as ``(district index, polygon)`` pairs."""
        return self._polygons

    def in_state(self, state: str) -> tuple[District, ...]:
        """Districts belonging to ``state``.

        Raises:
            UnknownRegionError: if the state is not in the catalogue.
        """
        if state not in self._states:
            raise UnknownRegionError(f"unknown state: {state!r}")
        return tuple(self._states[state])

    # ----------------------------------------------------------------- lookup
    def get(self, state: str, county: str) -> District:
        """Exact lookup by ``(state, county)``.

        Raises:
            UnknownRegionError: if no such district exists.
        """
        try:
            return self._districts[self._by_key[(state, county)]]
        except KeyError:
            raise UnknownRegionError(f"unknown district: ({state!r}, {county!r})") from None

    def find(self, state: str, county: str) -> District | None:
        """Exact lookup returning ``None`` instead of raising."""
        index = self._by_key.get((state, county))
        return None if index is None else self._districts[index]

    def lookup_alias(self, alias: str) -> tuple[District, ...]:
        """All districts matching a case-folded alias (possibly several)."""
        return tuple(self._by_alias.get(alias.casefold().strip(), ()))

    # ------------------------------------------------------- index accessors
    def _bucket(self, cell: tuple[int, int]) -> Sequence[int]:
        """District indices homed in ``cell``, in catalogue order."""
        return self._grid.get(cell, ())

    def _district_at(self, index: int) -> District:
        """The district at catalogue ``index``."""
        return self._districts[index]

    def _polygon_count(self) -> int:
        """Number of boundary polygons attached to this catalogue."""
        return len(self._polygons)

    def _polygon_bbox(self, index: int) -> BoundingBox:
        """Bounding box of polygon ``index``."""
        return self._polygons[index][1].bbox

    def _polygon_district_index(self, index: int) -> int:
        """Catalogue index of the district polygon ``index`` outlines."""
        return self._polygons[index][0]

    def _polygon_at(self, index: int) -> BoundaryPolygon:
        """The polygon at ``index``."""
        return self._polygons[index][1]

    # ---------------------------------------------------------------- factory
    @classmethod
    def builtin(cls, name: str) -> "Gazetteer":
        """The builtin catalogue ``name`` (a key of :data:`BUILTIN_GRID_DEG`).

        Raises:
            UnknownRegionError: for a name that is not a builtin catalogue.
        """
        return cls(builtin_districts(name), grid_deg=BUILTIN_GRID_DEG[name])

    @classmethod
    def korean(cls) -> "Gazetteer":
        """The Korean administrative gazetteer used by the main study."""
        return cls.builtin("korean")

    @classmethod
    def world(cls) -> "Gazetteer":
        """The world-city gazetteer used by the streaming dataset."""
        return cls.builtin("world")

    @classmethod
    def combined(cls) -> "Gazetteer":
        """Korean districts plus world cities (minus the duplicate Seoul).

        The combined catalogue backs the Lady Gaga pipeline, whose stream
        contains both Korean and worldwide users.
        """
        return cls.builtin("combined")


def builtin_districts(name: str) -> list[District]:
    """The district sequence of builtin catalogue ``name``, in canonical order.

    ``combined`` is the Korean catalogue followed by every world city
    outside South Korea whose key is new (the Korean Seoul wins).

    Raises:
        UnknownRegionError: for a name that is not a builtin catalogue.
    """
    from repro.geo.korea import korean_districts
    from repro.geo.world import world_cities

    if name == "korean":
        return list(korean_districts())
    if name == "world":
        return list(world_cities())
    if name != "combined":
        raise UnknownRegionError(
            f"unknown builtin catalogue {name!r} "
            f"(expected one of {sorted(BUILTIN_GRID_DEG)})"
        )
    districts = list(korean_districts())
    seen = {d.key() for d in districts}
    for city in world_cities():
        if city.key() not in seen and city.country != "South Korea":
            districts.append(city)
    return districts
