"""Shared append-only JSONL journal helpers.

Every durable log in the system — the tweet store, the streaming
write-ahead log, the checkpoint log, the geocode cell store — follows the
same crash contract: one JSON document per line, append-only, batches
written with a single buffered write + flush so a crash can tear at most
the *final* line.  On load a torn final line (no trailing newline, or
unparseable content on the last line) is dropped silently; corruption
anywhere else raises :class:`~repro.errors.StorageError`.

This module is the one implementation of that contract.  Readers pass a
``decode`` callable that turns one line into a record; writers pass
already-serialisable dicts.

The contract assumes a **single writer per journal file**: concurrent
appenders from different processes could interleave partial lines, which
the torn-tail rule cannot repair (it only forgives the *final* line).
Parallel producers would therefore have to write to private files and
let one owner merge them.  Every journal today has one writer: the study
runs in one process (DESIGN.md §11).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from typing import TypeVar

from repro.errors import StorageError

T = TypeVar("T")

#: Exceptions a ``decode`` callable may raise for a malformed line.  A
#: non-final line raising one of these is corruption (fatal); the final
#: line raising one is a torn tail (dropped).
DECODE_ERRORS = (json.JSONDecodeError, KeyError, ValueError, StorageError)


def read_journal(
    path: str | Path,
    decode: Callable[[str], T],
    *,
    description: str = "record",
) -> list[T]:
    """Decode every complete line of ``path``, dropping a torn final line.

    A missing file is an empty journal, not an error — every consumer of
    this contract treats "never written" and "empty" identically.

    Args:
        path: The JSONL journal file.
        decode: Turns one line into a record; may raise any of
            :data:`DECODE_ERRORS` for malformed input.
        description: Noun used in corruption error messages
            (``"record"``, ``"checkpoint"``, …).

    Raises:
        StorageError: if a non-final line is corrupt.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").split("\n")
    # A well-formed journal ends with "\n", so the final split element is "".
    torn_tail = bool(lines) and lines[-1] != ""
    records: list[T] = []
    for index, line in enumerate(lines[:-1]):
        try:
            records.append(decode(line))
        except DECODE_ERRORS as exc:
            raise StorageError(
                f"{path}:{index + 1}: corrupt {description}: {exc}"
            ) from exc
    if torn_tail:
        try:
            records.append(decode(lines[-1]))
        except DECODE_ERRORS:
            pass  # torn final record: expected crash artefact
    return records


def append_journal(path: str | Path, records: Iterable[Mapping[str, object]]) -> int:
    """Append ``records`` as JSONL with one buffered write + flush.

    The whole batch is serialised to a single string before any byte
    reaches disk, so a crash mid-append tears at most the final line —
    exactly what :func:`read_journal` recovers from.  Returns the number
    of records appended.
    """
    batch = list(records)
    payload = "".join(
        json.dumps(record, ensure_ascii=False) + "\n" for record in batch
    )
    path = Path(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
    return len(batch)
