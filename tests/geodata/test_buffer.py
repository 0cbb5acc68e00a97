"""Unit tests for the shared buffer file: write, map, decode, fail well."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.geodata.buffer import MAGIC, BufferReader, BufferWriter


class TestRoundTrip:
    def test_i64_blob_and_strings_sections(self, tmp_path):
        writer = BufferWriter()
        writer.add_i64("numbers", array("q", [-(2**62), -1, 0, 1, 2**62]))
        writer.add_blob("meta", b'{"hello": "world"}')
        writer.add_strings("names", ["Seoul", "", "서초구", "a#b"])
        path = writer.write(tmp_path / "round.buf")
        with BufferReader(path) as reader:
            assert set(reader.section_names) >= {"numbers", "meta"}
            assert list(reader.i64("numbers")) == [-(2**62), -1, 0, 1, 2**62]
            assert bytes(reader.blob("meta")) == b'{"hello": "world"}'
            table = reader.strings("names")
            assert len(table) == 4
            assert [table.lookup(i) for i in range(len(table))] == [
                "Seoul", "", "서초구", "a#b"
            ]
            assert table.lookup(2) == "서초구"

    @given(st.lists(st.text(max_size=20), max_size=30))
    def test_any_string_table_round_trips(self, tmp_path_factory, strings):
        path = tmp_path_factory.mktemp("buf") / "strings.buf"
        writer = BufferWriter()
        writer.add_strings("table", strings)
        writer.write(path)
        with BufferReader(path) as reader:
            table = reader.strings("table")
            assert [table.lookup(i) for i in range(len(table))] == strings

    def test_duplicate_section_rejected(self):
        writer = BufferWriter()
        writer.add_i64("twice", array("q", [1]))
        with pytest.raises(StorageError):
            writer.add_i64("twice", array("q", [2]))


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            BufferReader(tmp_path / "absent.buf")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "not_a_buffer.buf"
        path.write_bytes(b"JSONJUNK" + b"\x00" * 64)
        with pytest.raises(StorageError):
            BufferReader(path)

    def test_truncated_file(self, tmp_path):
        writer = BufferWriter()
        writer.add_i64("col", array("q", range(64)))
        path = writer.write(tmp_path / "whole.buf")
        clipped = tmp_path / "clipped.buf"
        clipped.write_bytes(path.read_bytes()[: len(MAGIC) + 4])
        with pytest.raises(StorageError):
            BufferReader(clipped)

    def test_unknown_section(self, tmp_path):
        writer = BufferWriter()
        writer.add_i64("real", array("q", [1, 2]))
        path = writer.write(tmp_path / "sections.buf")
        with BufferReader(path) as reader:
            with pytest.raises(StorageError):
                reader.i64("imaginary")

    def test_string_table_rejects_out_of_range_ids(self, tmp_path):
        writer = BufferWriter()
        writer.add_strings("names", ["only"])
        path = writer.write(tmp_path / "oob.buf")
        with BufferReader(path) as reader:
            table = reader.strings("names")
            with pytest.raises(StorageError):
                table.lookup(1)
            with pytest.raises(StorageError):
                table.lookup(-1)

    def test_close_with_live_views_is_safe(self, tmp_path):
        """Closing while a decoded view is still referenced must not
        raise — the mapping is released when the last view drops."""
        writer = BufferWriter()
        writer.add_i64("col", array("q", [7, 8, 9]))
        path = writer.write(tmp_path / "live.buf")
        reader = BufferReader(path)
        view = reader.i64("col")
        reader.close()
        reader.close()
        assert list(view) == [7, 8, 9]
        del view
