"""The ``RGAZ1`` gazetteer artifact: a district catalogue in one file.

``repro geodata prepare`` compiles a district catalogue (plus optional
boundary polygons) into one file, and :func:`read_gazetteer_artifact`
decodes it back into an in-memory :class:`~repro.geo.gazetteer.Gazetteer`.
The file is an ``RCOLBUF1`` buffer (:mod:`repro.geodata.buffer`) — the
gazetteer payload is just a named set of sections inside that envelope:

* ``meta`` — JSON blob carrying the ``RGAZ1`` format marker, version,
  grid geometry, and entity counts; readers refuse unknown formats and
  newer versions.
* ``strings`` — one interned table for every name, state, country, kind,
  and alias; ids are dense first-encounter order.
* ``districts.*`` — per-district columns in catalogue order: string-id
  columns (name/state/country/kind), float64 centroid/radius/weight
  columns, and a CSR alias list preserving original alias spelling.
* ``polygons.* / rings.*`` — the optional boundary layer: per-polygon
  district ids (ascending) and CSR ring/vertex float64 arrays.

The decoder reads exactly these sections and rebuilds every index
(exact keys, states, aliases, grid, polygon cells) in
:class:`~repro.geo.gazetteer.Gazetteer`'s constructor.  Files written
before the indexes were dropped from the format also carry
``keys.order``, ``states.*``, ``alias_index.*``, ``grid.*`` and
``polygons.bbox`` sections; no reader ever used them, so such files
decode unchanged and the format version stays 1.

Every column is written with the host's byte order;
``BufferReader`` already rejects cross-endian files.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError, GeoError, StorageError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import District, DistrictKind
from repro.geodata.buffer import BufferReader, BufferWriter
from repro.text.interner import StringInterner

#: Format marker stored in the artifact's meta section.
GAZETTEER_FORMAT = "RGAZ1"

#: Newest artifact version this build reads and writes.
GAZETTEER_FORMAT_VERSION = 1


def _csr(groups: Iterable[Sequence[int]]) -> tuple[array, array]:
    """Flatten ``groups`` into (offsets, values) int64 CSR arrays."""
    offsets = array("q", [0])
    values = array("q")
    total = 0
    for group in groups:
        values.extend(group)
        total += len(group)
        offsets.append(total)
    return offsets, values


def write_gazetteer_artifact(
    path: str | Path,
    districts: Sequence[District],
    *,
    grid_deg: float,
    polygons: Iterable[tuple[tuple[str, str], BoundaryPolygon]] = (),
    source: str = "custom",
) -> Path:
    """Compile ``districts`` (+ optional ``polygons``) into an artifact.

    Args:
        path: Destination file.
        districts: Catalogue in canonical order; ``(state, name)`` keys
            must be unique.
        grid_deg: Spatial-grid cell size in degrees.
        polygons: ``((state, county), polygon)`` pairs; keys must name
            catalogue districts.
        source: Free-text provenance label recorded in the meta section.

    Returns:
        The written path.

    Raises:
        UnknownRegionError: on an empty catalogue, duplicate keys, or a
            polygon referencing an unknown district.
        ConfigurationError: if ``grid_deg`` is out of range.
    """
    # The constructor is the one validator of a catalogue.
    gazetteer = Gazetteer(districts, grid_deg=grid_deg, polygons=polygons)
    catalogue = gazetteer.districts
    lon_cells = max(1, round(360.0 / grid_deg))

    interner = StringInterner()
    name_ids = array("q")
    state_ids = array("q")
    country_ids = array("q")
    kind_ids = array("q")
    lats = array("d")
    lons = array("d")
    radii = array("d")
    weights = array("d")
    alias_groups: list[list[int]] = []
    for district in catalogue:
        name_ids.append(interner.intern(district.name))
        state_ids.append(interner.intern(district.state))
        country_ids.append(interner.intern(district.country))
        kind_ids.append(interner.intern(district.kind.value))
        lats.append(district.center.lat)
        lons.append(district.center.lon)
        radii.append(district.radius_km)
        weights.append(district.population_weight)
        alias_groups.append([interner.intern(alias) for alias in district.aliases])
    alias_offsets, alias_ids = _csr(alias_groups)

    poly_entries = gazetteer.polygons
    poly_district_ids = array("q", [index for index, _ in poly_entries])
    poly_ring_offsets = array("q", [0])
    ring_point_offsets = array("q", [0])
    ring_lats = array("d")
    ring_lons = array("d")
    ring_count = 0
    point_count = 0
    for _, polygon in poly_entries:
        for ring in polygon.rings:
            for lat, lon in ring:
                ring_lats.append(lat)
                ring_lons.append(lon)
            point_count += len(ring)
            ring_point_offsets.append(point_count)
        ring_count += len(polygon.rings)
        poly_ring_offsets.append(ring_count)

    meta = {
        "format": GAZETTEER_FORMAT,
        "version": GAZETTEER_FORMAT_VERSION,
        "grid_deg": grid_deg,
        "lon_cells": lon_cells,
        "districts": len(catalogue),
        # Sizes of the indexes the reader's Gazetteer rebuilds.
        "states": len(gazetteer.states),
        "aliases": len(gazetteer._by_alias),
        "grid_cells": len(gazetteer._grid),
        "polygons": len(poly_entries),
        "rings": ring_count,
        "vertices": point_count,
        "source": source,
    }

    writer = BufferWriter()
    writer.add_blob("meta", json.dumps(meta, sort_keys=True).encode("utf-8"))
    writer.add_strings("strings", interner.to_lines())
    writer.add_i64("districts.name_ids", name_ids)
    writer.add_i64("districts.state_ids", state_ids)
    writer.add_i64("districts.country_ids", country_ids)
    writer.add_i64("districts.kind_ids", kind_ids)
    writer.add_f64("districts.lat", lats)
    writer.add_f64("districts.lon", lons)
    writer.add_f64("districts.radius_km", radii)
    writer.add_f64("districts.weight", weights)
    writer.add_i64("districts.alias_offsets", alias_offsets)
    writer.add_i64("districts.alias_ids", alias_ids)
    writer.add_i64("polygons.district_ids", poly_district_ids)
    writer.add_i64("polygons.ring_offsets", poly_ring_offsets)
    writer.add_i64("rings.point_offsets", ring_point_offsets)
    writer.add_f64("rings.lat", ring_lats)
    writer.add_f64("rings.lon", ring_lons)
    return writer.write(path)


def open_gazetteer_artifact(path: str | Path) -> tuple[BufferReader, dict[str, Any]]:
    """Map an artifact and validate its meta section.

    Returns:
        ``(reader, meta)`` — the caller owns the reader.

    Raises:
        StorageError: if the file is missing, not an ``RCOLBUF1`` buffer,
            not an ``RGAZ1`` gazetteer, or a newer version than this
            build understands.
    """
    target = Path(path)
    if not target.exists():
        raise StorageError(f"gazetteer artifact not found: {target}")
    reader = BufferReader(target)
    try:
        try:
            meta = json.loads(bytes(reader.blob("meta")))
        except (StorageError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"{target} has no readable gazetteer meta section: {exc}"
            ) from exc
        if meta.get("format") != GAZETTEER_FORMAT:
            raise StorageError(
                f"{target} is not a gazetteer artifact "
                f"(format {meta.get('format')!r}, expected {GAZETTEER_FORMAT!r})"
            )
        version = meta.get("version")
        if version != GAZETTEER_FORMAT_VERSION:
            raise StorageError(
                f"{target} is gazetteer format version {version}; this build "
                f"reads version {GAZETTEER_FORMAT_VERSION}"
            )
    except StorageError:
        reader.close()
        raise
    return reader, meta


def read_gazetteer_artifact(path: str | Path) -> Gazetteer:
    """Decode an artifact into an in-memory :class:`Gazetteer`.

    Reads the district columns, their aliases and the polygon rings, and
    builds ``Gazetteer(districts, grid_deg, polygons)``; the file is
    closed on return.

    Raises:
        StorageError: on any :func:`open_gazetteer_artifact` failure, a
            missing or inconsistent section, or a catalogue
            :class:`Gazetteer` rejects.
    """
    reader, meta = open_gazetteer_artifact(path)
    try:
        lookup = reader.strings("strings").lookup
        names = reader.i64("districts.name_ids")
        states = reader.i64("districts.state_ids")
        countries = reader.i64("districts.country_ids")
        kinds = reader.i64("districts.kind_ids")
        lats = reader.f64("districts.lat")
        lons = reader.f64("districts.lon")
        radii = reader.f64("districts.radius_km")
        weights = reader.f64("districts.weight")
        alias_offsets = reader.i64("districts.alias_offsets")
        alias_ids = reader.i64("districts.alias_ids")
        districts = [
            District(
                name=lookup(names[i]),
                state=lookup(states[i]),
                country=lookup(countries[i]),
                kind=DistrictKind(lookup(kinds[i])),
                center=GeoPoint(lats[i], lons[i]),
                radius_km=radii[i],
                aliases=tuple(
                    lookup(alias_ids[j])
                    for j in range(alias_offsets[i], alias_offsets[i + 1])
                ),
                population_weight=weights[i],
            )
            for i in range(len(names))
        ]

        ring_offsets = reader.i64("polygons.ring_offsets")
        point_offsets = reader.i64("rings.point_offsets")
        ring_lats = reader.f64("rings.lat")
        ring_lons = reader.f64("rings.lon")
        polygons = []
        for p, index in enumerate(reader.i64("polygons.district_ids")):
            if not 0 <= index < len(districts):
                raise StorageError(
                    f"{path}: polygon {p} names district {index} of {len(districts)}"
                )
            rings = [
                tuple(
                    zip(
                        ring_lats[point_offsets[r] : point_offsets[r + 1]],
                        ring_lons[point_offsets[r] : point_offsets[r + 1]],
                    )
                )
                for r in range(ring_offsets[p], ring_offsets[p + 1])
            ]
            polygons.append((districts[index].key(), BoundaryPolygon(rings)))
        return Gazetteer(districts, grid_deg=meta["grid_deg"], polygons=polygons)
    except (ConfigurationError, GeoError, LookupError, TypeError, ValueError) as exc:
        raise StorageError(f"{path} holds an invalid gazetteer: {exc}") from exc
    finally:
        reader.close()


def gazetteer_artifact_info(path: str | Path) -> dict[str, Any]:
    """Meta plus the section listing, for ``repro geodata info``.

    Raises:
        StorageError: on any of the :func:`open_gazetteer_artifact` failures.
    """
    reader, meta = open_gazetteer_artifact(path)
    try:
        info = dict(meta)
        info["path"] = str(Path(path))
        info["bytes"] = Path(path).stat().st_size
        info["sections"] = list(reader.section_names)
        return info
    finally:
        reader.close()
