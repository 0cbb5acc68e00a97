"""CLI contract for ``repro geodata prepare`` / ``repro geodata info``.

Unusable input or artifact state follows the ``stream --resume``
convention: exit code 3, one actionable line on stderr, no traceback.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.geodata.artifact import GAZETTEER_FORMAT_VERSION


def _err_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.strip()]


class TestParser:
    def test_geodata_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["geodata"])
        assert excinfo.value.code == 2

    def test_prepare_requires_out(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["geodata", "prepare"])
        assert excinfo.value.code == 2

    def test_prepare_defaults(self):
        args = build_parser().parse_args(
            ["geodata", "prepare", "--out", "x.rgaz", "--catalogue", "korean"]
        )
        assert args.catalogue == "korean"
        assert not args.districts
        assert not args.polygons
        assert args.grid_deg is None

    def test_unknown_catalogue_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["geodata", "prepare", "--out", "x.rgaz", "--catalogue", "mars"]
            )
        assert excinfo.value.code == 2


class TestPrepare:
    def test_builtin_catalogue_happy_path(self, capsys, tmp_path):
        out = tmp_path / "korean.rgaz"
        code = main(
            ["geodata", "prepare", "--out", str(out), "--catalogue", "korean"]
        )
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert f"wrote {out}:" in stdout
        assert "districts" in stdout
        assert "source builtin:korean" in stdout

    def test_custom_districts_jsonl(self, capsys, tmp_path):
        rows = tmp_path / "districts.jsonl"
        rows.write_text(
            json.dumps(
                {
                    "name": "A-si",
                    "state": "X-do",
                    "country": "South Korea",
                    "kind": "city",
                    "lat": 37.0,
                    "lon": 127.0,
                    "radius_km": 5.0,
                    "aliases": ["a"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "custom.rgaz"
        code = main(
            ["geodata", "prepare", "--out", str(out), "--districts", str(rows),
             "--grid-deg", "0.5"]
        )
        assert code == 0
        assert "1 districts" in capsys.readouterr().out

    def test_missing_input_exits_3_one_line(self, capsys, tmp_path):
        code = main(
            ["geodata", "prepare", "--out", str(tmp_path / "x.rgaz"),
             "--districts", str(tmp_path / "absent.jsonl")]
        )
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1
        assert "geodata prepare failed" in lines[0]

    def test_no_source_exits_3_one_line(self, capsys, tmp_path):
        code = main(["geodata", "prepare", "--out", str(tmp_path / "x.rgaz")])
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1

    @pytest.mark.parametrize("grid_deg", ["0", "-1", "nan", "inf", "1e-9"])
    def test_bad_grid_deg_exits_3_one_line(self, capsys, tmp_path, grid_deg):
        out = tmp_path / "x.rgaz"
        code = main(
            ["geodata", "prepare", "--out", str(out), "--catalogue", "korean",
             f"--grid-deg={grid_deg}"]
        )
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1
        assert "grid_deg" in lines[0]
        assert not out.exists()

    def test_duplicate_district_rows_exit_3_one_line(self, capsys, tmp_path):
        row = json.dumps(
            {"name": "A-si", "state": "X-do", "country": "South Korea",
             "kind": "city", "lat": 37.0, "lon": 127.0, "radius_km": 5.0}
        )
        rows = tmp_path / "districts.jsonl"
        rows.write_text(f"{row}\n{row}\n", encoding="utf-8")
        code = main(
            ["geodata", "prepare", "--out", str(tmp_path / "x.rgaz"),
             "--districts", str(rows)]
        )
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1
        assert "duplicate district key" in lines[0]


class TestInfo:
    def test_info_prints_version_counts_sections(self, capsys, artifact_dir):
        code = main(["geodata", "info", str(artifact_dir / "korean.rgaz")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert f"RGAZ1 v{GAZETTEER_FORMAT_VERSION}" in stdout
        assert "source builtin:korean" in stdout
        assert "districts:" in stdout
        assert "grid: 0.5deg" in stdout
        assert "polygons: 0" in stdout
        assert "sections:" in stdout
        assert "districts.lat" in stdout

    def test_missing_artifact_exits_3_one_line(self, capsys, tmp_path):
        code = main(["geodata", "info", str(tmp_path / "absent.rgaz")])
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1
        assert "cannot read gazetteer artifact" in lines[0]

    def test_corrupt_artifact_exits_3_one_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.rgaz"
        bad.write_bytes(b"garbage bytes, not an artifact")
        code = main(["geodata", "info", str(bad)])
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1

    def test_version_mismatch_exits_3_one_line(self, capsys, tmp_path):
        from repro.geodata.buffer import BufferWriter

        writer = BufferWriter()
        writer.add_blob(
            "meta",
            json.dumps(
                {"format": "RGAZ1", "version": GAZETTEER_FORMAT_VERSION + 1}
            ).encode(),
        )
        path = writer.write(tmp_path / "future.rgaz")
        code = main(["geodata", "info", str(path)])
        assert code == 3
        lines = _err_lines(capsys)
        assert len(lines) == 1
        assert "version" in lines[0]
