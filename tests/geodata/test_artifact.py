"""RGAZ1 artifact round trips, validation failures, and f64 sections."""

import json

import pytest

from repro.geodata.buffer import BufferReader, BufferWriter
from repro.errors import StorageError, UnknownRegionError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.polygon import BoundaryPolygon
from repro.geo.region import District, DistrictKind
from repro.geodata.artifact import (
    GAZETTEER_FORMAT_VERSION,
    gazetteer_artifact_info,
    open_gazetteer_artifact,
    write_gazetteer_artifact,
)
from repro.geodata.mmapgaz import MmapGazetteer


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
        assert "grid.keys" in info["sections"]
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
        gazetteer = MmapGazetteer(path)
        assert gazetteer._polygon_count() == 1
        assert gazetteer._polygon_at(0) == polygon
        assert gazetteer._polygon_bbox(0) == polygon.bbox
        assert gazetteer._polygon_district_index(0) == 0
