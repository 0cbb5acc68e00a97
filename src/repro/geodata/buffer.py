"""The ``RCOLBUF1`` buffer file: flat named sections, mapped zero-copy.

The envelope of the ``RGAZ1`` gazetteer artifact
(:mod:`repro.geodata.artifact`).  A :class:`BufferWriter` lays the
payload out once as named sections in a single file:

* ``i64`` sections — ``array('q')`` columns written as raw bytes;
* ``f64`` sections — ``array('d')`` columns (centroid/polygon coordinates);
* ``blob`` sections — one UTF-8 byte blob (string tables, JSON headers).

Readers open the file with :class:`BufferReader`, which ``mmap``\\ s it
read-only and hands back :class:`memoryview` slices — ``.cast('q')`` for
int64 columns — so every process that opens the artifact shares one
page cache copy of it.

The layout is deliberately boring::

    magic "RCOLBUF1" | 8-byte LE header length | header JSON | padding
    | section bytes (each 8-byte aligned) ...

The header records byte order; :class:`BufferReader` refuses a file
written on a machine with a different one (these are local artifacts,
not portable archives).
"""

from __future__ import annotations

import json
import mmap
import sys
from array import array
from pathlib import Path

from repro.errors import StorageError

#: File magic for buffer files.
MAGIC = b"RCOLBUF1"

_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class BufferWriter:
    """Accumulates named sections and writes them as one buffer file."""

    def __init__(self) -> None:
        self._sections: list[tuple[str, str, bytes]] = []
        self._names: set[str] = set()

    def _add(self, name: str, kind: str, payload: bytes) -> None:
        if name in self._names:
            raise StorageError(f"duplicate buffer section {name!r}")
        self._names.add(name)
        self._sections.append((name, kind, payload))

    def add_i64(self, name: str, values) -> None:
        """Add an int64 column (any iterable of ints, or ``array('q')``)."""
        column = values if isinstance(values, array) else array("q", values)
        if column.typecode != "q":
            raise StorageError(
                f"section {name!r}: expected typecode 'q', got {column.typecode!r}"
            )
        self._add(name, "i64", column.tobytes())

    def add_f64(self, name: str, values) -> None:
        """Add a float64 column (any iterable of floats, or ``array('d')``).

        Float64 round-trips exactly through ``array('d')``, so coordinates
        written here compare bit-identical after a reload — the property
        the gazetteer artifact's byte-identity guarantee rests on.
        """
        column = values if isinstance(values, array) else array("d", values)
        if column.typecode != "d":
            raise StorageError(
                f"section {name!r}: expected typecode 'd', got {column.typecode!r}"
            )
        self._add(name, "f64", column.tobytes())

    def add_blob(self, name: str, payload: bytes) -> None:
        """Add an opaque byte blob (string tables, JSON metadata)."""
        self._add(name, "blob", bytes(payload))

    def add_strings(self, name: str, strings) -> None:
        """Add a string table as two sections: offsets + UTF-8 blob.

        Written as ``<name>.offsets`` (n+1 int64 byte offsets) and
        ``<name>.bytes``; read back with :meth:`BufferReader.strings`.
        """
        offsets = array("q", [0])
        chunks: list[bytes] = []
        total = 0
        for text in strings:
            encoded = text.encode("utf-8")
            chunks.append(encoded)
            total += len(encoded)
            offsets.append(total)
        self.add_i64(f"{name}.offsets", offsets)
        self.add_blob(f"{name}.bytes", b"".join(chunks))

    def write(self, path: str | Path) -> Path:
        """Write every section to ``path``; returns the path.

        Section offsets are stored *relative to the aligned end of the
        header*, so the header's own size never feeds back into the
        offsets it records — the reader recomputes the same base from
        the header length.
        """
        relative = 0
        entries: list[tuple[str, str, bytes, int]] = []
        for name, kind, payload in self._sections:
            relative = _aligned(relative)
            entries.append((name, kind, payload, relative))
            relative += len(payload)
        header = {
            "byteorder": sys.byteorder,
            "sections": {
                name: {"kind": kind, "offset": offset, "length": len(payload)}
                for name, kind, payload, offset in entries
            },
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        base = _aligned(len(MAGIC) + 8 + len(header_bytes))

        target = Path(path)
        with target.open("wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header_bytes).to_bytes(8, "little"))
            handle.write(header_bytes)
            position = len(MAGIC) + 8 + len(header_bytes)
            for name, kind, payload, offset in entries:
                absolute = base + offset
                handle.write(b"\0" * (absolute - position))
                handle.write(payload)
                position = absolute + len(payload)
        return target


class BufferReader:
    """A read-only, memory-mapped view over a :class:`BufferWriter` file.

    Sections come back as zero-copy :class:`memoryview` slices of one
    shared mapping; close the reader only after every view derived from
    it has been dropped.  Usable as a context manager.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        try:
            with self._path.open("rb") as handle:
                self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StorageError(f"cannot map buffer file {path}: {exc}") from exc
        self._view: memoryview | None = memoryview(self._map)
        try:
            view = self._view
            if bytes(view[: len(MAGIC)]) != MAGIC:
                raise StorageError(f"{path} is not a buffer file")
            header_len = int.from_bytes(view[len(MAGIC) : len(MAGIC) + 8], "little")
            try:
                header = json.loads(
                    bytes(view[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len])
                )
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"corrupt buffer header in {path}: {exc}"
                ) from exc
            if header.get("byteorder") != sys.byteorder:
                raise StorageError(
                    f"buffer file {path} was written on a "
                    f"{header.get('byteorder')}-endian machine; this one is "
                    f"{sys.byteorder}-endian"
                )
        except StorageError:
            self.close()
            raise
        self._base = _aligned(len(MAGIC) + 8 + header_len)
        self._sections: dict[str, dict[str, object]] = header["sections"]

    @property
    def section_names(self) -> tuple[str, ...]:
        """Every section in the file, sorted."""
        return tuple(sorted(self._sections))

    def _section(self, name: str, kind: str) -> memoryview:
        entry = self._sections.get(name)
        if entry is None:
            raise StorageError(f"buffer file {self._path} has no section {name!r}")
        if entry["kind"] != kind:
            raise StorageError(
                f"section {name!r} is {entry['kind']!r}, not {kind!r}"
            )
        offset = self._base + int(entry["offset"])  # type: ignore[arg-type]
        length = int(entry["length"])  # type: ignore[arg-type]
        return self._view[offset : offset + length]

    def i64(self, name: str) -> memoryview:
        """Zero-copy int64 view of section ``name`` (supports len/index/slice)."""
        return self._section(name, "i64").cast("q")

    def f64(self, name: str) -> memoryview:
        """Zero-copy float64 view of section ``name`` (supports len/index/slice)."""
        return self._section(name, "f64").cast("d")

    def blob(self, name: str) -> memoryview:
        """Zero-copy byte view of blob section ``name``."""
        return self._section(name, "blob")

    def strings(self, name: str) -> "StringTable":
        """Lazy string table over ``<name>.offsets`` / ``<name>.bytes``."""
        return StringTable(self.i64(f"{name}.offsets"), self.blob(f"{name}.bytes"))

    def close(self) -> None:
        """Drop the mapping (idempotent, best-effort).

        If section views are still alive the OS mapping cannot be torn
        down yet; the reader releases its own references and the mapping
        closes when the last outstanding view is garbage-collected —
        safe for a read-only map, and far friendlier than raising out of
        a ``with`` block mid-load.
        """
        view = getattr(self, "_view", None)
        if view is not None:
            view.release()
            self._view = None
        mapping = getattr(self, "_map", None)
        if mapping is not None:
            self._map = None  # type: ignore[assignment]
            try:
                mapping.close()
            except BufferError:
                pass  # exported section views keep the mapping alive

    def __enter__(self) -> "BufferReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StringTable:
    """Decode-on-demand view of an interner table inside a buffer.

    Readers touch only the strings their queries actually need — the
    rest of the table is never decoded, only mapped.
    Decoded strings are memoised per table instance.
    """

    __slots__ = ("_offsets", "_bytes", "_cache")

    def __init__(self, offsets: memoryview, blob: memoryview):
        self._offsets = offsets
        self._bytes = blob
        self._cache: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def lookup(self, string_id: int) -> str:
        """The string behind ``string_id`` (decoded lazily, memoised).

        Raises:
            StorageError: for an id outside the table.
        """
        cached = self._cache.get(string_id)
        if cached is not None:
            return cached
        if not 0 <= string_id < len(self):
            raise StorageError(
                f"string id {string_id} out of range (table holds {len(self)})"
            )
        start = self._offsets[string_id]
        stop = self._offsets[string_id + 1]
        text = bytes(self._bytes[start:stop]).decode("utf-8")
        self._cache[string_id] = text
        return text
