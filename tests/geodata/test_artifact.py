"""RGAZ1 artifact round trips, validation failures, and f64 sections."""

import json
from pathlib import Path

import pytest

from repro.geodata.buffer import BufferReader, BufferWriter
from repro.errors import StorageError, UnknownRegionError
from repro.geo.gazetteer import BUILTIN_GRID_DEG, Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import District, DistrictKind
from repro.geodata.artifact import (
    GAZETTEER_FORMAT_VERSION,
    gazetteer_artifact_info,
    open_gazetteer_artifact,
    read_gazetteer_artifact,
    write_gazetteer_artifact,
)


def _rewrite(source, target, columns):
    """Copy an artifact section by section, replacing the named columns."""
    with BufferReader(source) as reader:
        writer = BufferWriter()
        for name in reader.section_names:
            kind = reader._sections[name]["kind"]
            if kind == "blob":
                writer.add_blob(name, bytes(reader.blob(name)))
            elif kind == "i64":
                writer.add_i64(name, columns.get(name, list(reader.i64(name))))
            else:
                writer.add_f64(name, columns.get(name, list(reader.f64(name))))
    return writer.write(target)


def _district(name, state, lat, lon, aliases=()):
    return District(
        name=name,
        state=state,
        country="South Korea",
        kind=DistrictKind.CITY,
        center=GeoPoint(lat, lon),
        radius_km=5.0,
        aliases=aliases,
    )


class TestF64Sections:
    def test_round_trip_exact(self, tmp_path):
        """Float64 survives the buffer bit-exactly, including edge values."""
        values = [0.0, -0.0, 1.5, -180.0, 90.0, 37.5665, 1e-300, 1.7e308]
        writer = BufferWriter()
        writer.add_f64("col", values)
        path = writer.write(tmp_path / "f64.buf")
        with BufferReader(path) as reader:
            column = reader.f64("col")
            assert list(column) == values

    def test_kind_mismatch_rejected(self, tmp_path):
        writer = BufferWriter()
        writer.add_f64("col", [1.0])
        path = writer.write(tmp_path / "f64.buf")
        with BufferReader(path) as reader:
            with pytest.raises(StorageError):
                reader.i64("col")

    def test_bad_typecode_rejected(self):
        from array import array

        writer = BufferWriter()
        with pytest.raises(StorageError):
            writer.add_f64("col", array("q", [1]))


class TestWriteValidation:
    def test_empty_catalogue_rejected(self, tmp_path):
        with pytest.raises(UnknownRegionError):
            write_gazetteer_artifact(tmp_path / "x.rgaz", [], grid_deg=0.5)

    def test_duplicate_keys_rejected(self, tmp_path):
        d = _district("A-si", "X-do", 37.0, 127.0)
        with pytest.raises(UnknownRegionError):
            write_gazetteer_artifact(tmp_path / "x.rgaz", [d, d], grid_deg=0.5)

    def test_polygon_unknown_district_rejected(self, tmp_path):
        d = _district("A-si", "X-do", 37.0, 127.0)
        polygon = BoundaryPolygon([[(36.9, 126.9), (37.1, 126.9), (37.1, 127.1)]])
        with pytest.raises(UnknownRegionError):
            write_gazetteer_artifact(
                tmp_path / "x.rgaz",
                [d],
                grid_deg=0.5,
                polygons=[(("X-do", "Nope-si"), polygon)],
            )


class TestOpenValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError, match="not found"):
            open_gazetteer_artifact(tmp_path / "absent.rgaz")

    def test_not_a_buffer_file(self, tmp_path):
        path = tmp_path / "junk.rgaz"
        path.write_bytes(b"definitely not a buffer file")
        with pytest.raises(StorageError):
            open_gazetteer_artifact(path)

    def test_buffer_without_gazetteer_meta(self, tmp_path):
        writer = BufferWriter()
        writer.add_i64("other", [1, 2, 3])
        path = writer.write(tmp_path / "plain.buf")
        with pytest.raises(StorageError, match="meta"):
            open_gazetteer_artifact(path)

    def test_wrong_format_marker(self, tmp_path):
        writer = BufferWriter()
        writer.add_blob("meta", json.dumps({"format": "NOTGAZ", "version": 1}).encode())
        path = writer.write(tmp_path / "other.buf")
        with pytest.raises(StorageError, match="not a gazetteer artifact"):
            open_gazetteer_artifact(path)

    def test_version_mismatch(self, tmp_path):
        writer = BufferWriter()
        writer.add_blob(
            "meta",
            json.dumps(
                {"format": "RGAZ1", "version": GAZETTEER_FORMAT_VERSION + 1}
            ).encode(),
        )
        path = writer.write(tmp_path / "future.rgaz")
        with pytest.raises(StorageError, match="version"):
            open_gazetteer_artifact(path)

    def test_truncated_artifact(self, tmp_path):
        source = write_gazetteer_artifact(
            tmp_path / "ok.rgaz",
            [_district("A-si", "X-do", 37.0, 127.0)],
            grid_deg=0.5,
        )
        clipped = tmp_path / "clipped.rgaz"
        clipped.write_bytes(source.read_bytes()[:40])
        with pytest.raises(StorageError):
            open_gazetteer_artifact(clipped)


class TestInfo:
    def test_info_counts_and_sections(self, artifact_dir):
        info = gazetteer_artifact_info(artifact_dir / "korean.rgaz")
        assert info["format"] == "RGAZ1"
        assert info["version"] == GAZETTEER_FORMAT_VERSION
        assert info["districts"] == len(Gazetteer.korean())
        assert info["polygons"] == 0
        assert info["grid_deg"] == 0.5
        assert "districts.lat" in info["sections"]
        assert "strings.bytes" in info["sections"]
        assert info["bytes"] > 0

    def test_polygon_round_trip(self, tmp_path):
        """Polygons (rings, holes, bboxes) survive the artifact exactly."""
        district = _district("A-si", "X-do", 37.0, 127.0)
        polygon = BoundaryPolygon(
            [
                [(36.8, 126.8), (37.2, 126.8), (37.2, 127.2), (36.8, 127.2)],
                [(36.95, 126.95), (37.05, 126.95), (37.05, 127.05)],
            ]
        )
        path = write_gazetteer_artifact(
            tmp_path / "poly.rgaz",
            [district],
            grid_deg=0.5,
            polygons=[(("X-do", "A-si"), polygon)],
        )
        gazetteer = read_gazetteer_artifact(path)
        assert gazetteer.polygons == ((0, polygon),)
        assert gazetteer.polygons[0][1].bbox == polygon.bbox
        assert gazetteer.polygon_locate(GeoPoint(36.9, 126.9)) == district
        assert gazetteer.polygon_locate(GeoPoint(37.03, 126.97)) is None  # hole


class TestDecoder:
    @pytest.mark.parametrize("catalogue", sorted(BUILTIN_GRID_DEG))
    def test_builtin_catalogue_round_trips(self, catalogue, decoded):
        """artifact -> Gazetteer gives back the builtin catalogue."""
        builtin = Gazetteer.builtin(catalogue)
        gazetteer = decoded[catalogue]
        assert gazetteer.districts == builtin.districts
        assert gazetteer.states == builtin.states
        assert gazetteer.polygons == builtin.polygons
        assert gazetteer.grid_deg == builtin.grid_deg

    def test_file_with_the_dropped_index_sections_decodes(self, tmp_path):
        """A file from the writer that still emitted the never-read
        ``keys.order``, ``states.*``, ``alias_index.*``, ``grid.*`` and
        ``polygons.bbox`` sections decodes to its catalogue, and today's
        writer gives the same meta without those sections."""
        legacy = Path(__file__).parent / "data" / "legacy_sections.rgaz"
        districts = [
            _district("A-si", "X-do", 37.0, 127.0, aliases=("A", "Asi")),
            _district("B-gu", "Y-si", 35.1, 129.0, aliases=("B",)),
            _district("C-gun", "X-do", 36.2, 127.9),
        ]
        polygon = BoundaryPolygon(
            [[(36.8, 126.8), (37.2, 126.8), (37.2, 127.2), (36.8, 127.2)]]
        )
        gazetteer = read_gazetteer_artifact(legacy)
        assert gazetteer.districts == tuple(districts)
        assert gazetteer.polygons == ((0, polygon),)

        fresh = write_gazetteer_artifact(
            tmp_path / "fresh.rgaz",
            districts,
            grid_deg=0.5,
            polygons=[(("X-do", "A-si"), polygon)],
            source="legacy-writer",
        )
        old_info = gazetteer_artifact_info(legacy)
        new_info = gazetteer_artifact_info(fresh)
        dropped = set(old_info["sections"]) - set(new_info["sections"])
        assert {"keys.order", "grid.keys", "polygons.bbox"} <= dropped
        assert set(new_info["sections"]) < set(old_info["sections"])
        for key in ("path", "bytes", "sections"):
            del old_info[key], new_info[key]
        assert new_info == old_info

    def test_missing_sections_raise_storage_error(self, tmp_path):
        writer = BufferWriter()
        writer.add_blob(
            "meta",
            json.dumps(
                {"format": "RGAZ1", "version": GAZETTEER_FORMAT_VERSION, "grid_deg": 0.5}
            ).encode(),
        )
        path = writer.write(tmp_path / "hollow.rgaz")
        with pytest.raises(StorageError, match="no section"):
            read_gazetteer_artifact(path)

    @pytest.mark.parametrize(
        "columns",
        [
            {"polygons.district_ids": [-1]},
            {"polygons.district_ids": [1]},
            {"districts.name_ids": [999]},
            {"districts.kind_ids": [0]},  # id 0 is the name "A-si"
            {"districts.lat": []},
            {"districts.lat": [91.0]},
            {"rings.point_offsets": [0, 2]},
        ],
        ids=["poly-district-negative", "poly-district-past-end", "string-id",
             "kind", "short-column", "latitude", "two-vertex-ring"],
    )
    def test_corrupt_columns_raise_storage_error(self, tmp_path, columns):
        polygon = BoundaryPolygon([[(36.9, 126.9), (37.1, 126.9), (37.1, 127.1)]])
        source = write_gazetteer_artifact(
            tmp_path / "ok.rgaz",
            [_district("A-si", "X-do", 37.0, 127.0)],
            grid_deg=0.5,
            polygons=[(("X-do", "A-si"), polygon)],
        )
        assert read_gazetteer_artifact(_rewrite(source, tmp_path / "copy.rgaz", {}))
        corrupt = _rewrite(source, tmp_path / "bad.rgaz", columns)
        with pytest.raises(StorageError):
            read_gazetteer_artifact(corrupt)

    @pytest.mark.parametrize("bad", [b"0.0", b"NaN", b"1e9"])
    def test_bad_grid_raises_storage_error(self, tmp_path, bad):
        path = write_gazetteer_artifact(
            tmp_path / "ok.rgaz", [_district("A-si", "X-do", 37.0, 127.0)], grid_deg=0.5
        )
        data = path.read_bytes()
        assert data.count(b'"grid_deg": 0.5') == 1
        path.write_bytes(data.replace(b'"grid_deg": 0.5', b'"grid_deg": ' + bad))
        with pytest.raises(StorageError, match="grid_deg"):
            read_gazetteer_artifact(path)
