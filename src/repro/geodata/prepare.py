"""The offline ``repro geodata prepare`` pipeline.

Compiles a district catalogue into an ``RGAZ1`` artifact from either of
two sources:

* a **builtin catalogue** (``korean`` / ``world`` / ``combined``) — the
  district sequence and grid size :meth:`Gazetteer.builtin
  <repro.geo.gazetteer.Gazetteer.builtin>` uses, so decoding the
  artifact gives back the builtin gazetteer;
* **external files** — a districts JSONL (one object per district) plus
  an optional polygons JSON carrying boundary rings.

Before packing, every district passes through the per-country
**admin-level remap hooks** registered here — the generalisation of the
paper's rule that metropolitan cities are split into their *gu* while
provinces group at the *si* level.  Hooks normalise external data to
that convention; on the builtin catalogues (already normalised) they are
no-ops by construction.

External districts JSONL, one JSON object per line::

    {"name": "Yangcheon-gu", "state": "Seoul", "country": "South Korea",
     "kind": "gu", "lat": 37.52, "lon": 126.85, "radius_km": 4.0,
     "aliases": ["yangcheon"], "population_weight": 18.0}

External polygons JSON: a list of objects, each naming a district and
its rings (outer ring first; extra rings punch holes)::

    [{"state": "Seoul", "county": "Yangcheon-gu",
      "rings": [[[37.50, 126.83], [37.55, 126.83], [37.55, 126.88]]]}]
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, GeoError, StorageError, UnknownRegionError
from repro.geo.gazetteer import BUILTIN_GRID_DEG, builtin_districts
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import District, DistrictKind
from repro.geodata.artifact import write_gazetteer_artifact

#: A hook rewrites one district to the country's grouping convention.
AdminRemapHook = Callable[[District], District]

_ADMIN_REMAPS: dict[str, list[AdminRemapHook]] = {}


def register_admin_remap(country: str, hook: AdminRemapHook) -> None:
    """Register ``hook`` to run over every district of ``country``."""
    _ADMIN_REMAPS.setdefault(country, []).append(hook)


def admin_remaps(country: str) -> tuple[AdminRemapHook, ...]:
    """The registered hooks for ``country``, in registration order."""
    return tuple(_ADMIN_REMAPS.get(country, ()))


def apply_admin_remaps(districts: Iterable[District]) -> list[District]:
    """Run every district through its country's registered hooks."""
    normalised = []
    for district in districts:
        for hook in _ADMIN_REMAPS.get(district.country, ()):
            district = hook(district)
        normalised.append(district)
    return normalised


def korea_metro_gu_split(district: District) -> District:
    """The paper's grouping rule as a remap hook.

    Metropolitan cities are "too large and the populations are extremely
    high", so COUNTY-level units inside them group as districts (*gu*),
    not cities (*si*).  External data sometimes tags such units ``si``;
    this rewrites the kind.  The builtin catalogues already follow the
    convention, so the hook is a no-op there.
    """
    from repro.geo.korea import METROPOLITAN_STATES

    if district.state in METROPOLITAN_STATES and district.kind is DistrictKind.CITY:
        return replace(district, kind=DistrictKind.DISTRICT)
    return district


register_admin_remap("South Korea", korea_metro_gu_split)


def builtin_catalogue(name: str) -> tuple[list[District], float]:
    """The builtin district sequence and grid size for ``name``.

    Raises:
        StorageError: for a name that is not a builtin catalogue.
    """
    try:
        return builtin_districts(name), BUILTIN_GRID_DEG[name]
    except UnknownRegionError as exc:
        raise StorageError(str(exc)) from exc


def load_districts_jsonl(path: str | Path) -> list[District]:
    """Parse an external districts JSONL file.

    Raises:
        StorageError: if the file is missing or any line is malformed.
    """
    target = Path(path)
    if not target.exists():
        raise StorageError(f"districts file not found: {target}")
    districts: list[District] = []
    with target.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                districts.append(
                    District(
                        name=row["name"],
                        state=row["state"],
                        country=row["country"],
                        kind=DistrictKind(row["kind"]),
                        center=_point(row["lat"], row["lon"]),
                        radius_km=float(row["radius_km"]),
                        aliases=tuple(row.get("aliases", ())),
                        population_weight=float(row.get("population_weight", 1.0)),
                    )
                )
            except Exception as exc:
                raise StorageError(
                    f"{target}:{lineno}: bad district row: {exc}"
                ) from exc
    if not districts:
        raise StorageError(f"{target} holds no districts")
    return districts


def _point(lat: Any, lon: Any):
    """Build the centroid GeoPoint (deferred import keeps this module light)."""
    from repro.geo.point import GeoPoint

    return GeoPoint(float(lat), float(lon))


def load_polygons_json(
    path: str | Path,
) -> list[tuple[tuple[str, str], BoundaryPolygon]]:
    """Parse an external polygons JSON file into keyed boundary polygons.

    Raises:
        StorageError: if the file is missing or any entry is malformed.
    """
    target = Path(path)
    if not target.exists():
        raise StorageError(f"polygons file not found: {target}")
    try:
        entries = json.loads(target.read_text(encoding="utf-8"))
        polygons = [
            (
                (entry["state"], entry["county"]),
                BoundaryPolygon(entry["rings"]),
            )
            for entry in entries
        ]
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(f"{target}: bad polygons file: {exc}") from exc
    return polygons


def prepare_artifact(
    out: str | Path,
    *,
    catalogue: str | None = None,
    districts_path: str | Path | None = None,
    polygons_path: str | Path | None = None,
    grid_deg: float | None = None,
) -> dict[str, Any]:
    """Compile an artifact from a builtin catalogue or external files.

    Exactly one of ``catalogue`` / ``districts_path`` selects the
    district source; ``polygons_path`` optionally layers boundaries on
    either.  ``grid_deg`` defaults to the builtin catalogue's grid (or
    0.5° for external data).

    Returns:
        A summary dict (source, districts, polygons, grid_deg, path) for
        the CLI to print.

    Raises:
        StorageError: on a missing/invalid source, conflicting options, or
            a catalogue :class:`~repro.geo.gazetteer.Gazetteer` rejects
            (no districts, a duplicate key, a polygon naming an unknown
            district, ``grid_deg`` out of range).
    """
    if (catalogue is None) == (districts_path is None):
        raise StorageError(
            "exactly one district source required: --catalogue or --districts"
        )
    if catalogue is not None:
        districts, default_grid = builtin_catalogue(catalogue)
        source = f"builtin:{catalogue}"
    else:
        districts = load_districts_jsonl(districts_path)  # type: ignore[arg-type]
        default_grid = 0.5
        source = f"jsonl:{Path(districts_path).name}"  # type: ignore[arg-type]
    districts = apply_admin_remaps(districts)
    polygons: Sequence[tuple[tuple[str, str], BoundaryPolygon]] = ()
    if polygons_path is not None:
        polygons = load_polygons_json(polygons_path)
    if grid_deg is None:
        grid_deg = default_grid
    try:
        path = write_gazetteer_artifact(
            out, districts, grid_deg=grid_deg, polygons=polygons, source=source
        )
    except (ConfigurationError, GeoError) as exc:
        raise StorageError(f"invalid catalogue from {source}: {exc}") from exc
    return {
        "path": str(path),
        "source": source,
        "districts": len(districts),
        "polygons": len(polygons),
        "grid_deg": grid_deg,
        "bytes": path.stat().st_size,
    }
