"""String interning: every distinct string becomes a stable integer id.

A :class:`StringInterner` maps each distinct string to a small, stable
integer.  Two users remain: the study JSON document (format v2) embeds
the canonical table of :func:`~repro.analysis.interner.study_interner`
— so the table is part of
:func:`~repro.analysis.serialization.study_digest` — and the ``RGAZ1``
gazetteer artifact (:mod:`repro.geodata.artifact`) stores every name
through one.  It lives in the text substrate, below both, so that
importing it loads neither the analysis layer nor the gazetteer data
pipeline.

Id assignment is *dense first-encounter order*: the first string ever
interned gets id 0, the next new one id 1, and so on.  Re-interning a
known string returns its existing id, and ids survive a
:meth:`~StringInterner.to_lines` / :meth:`~StringInterner.from_lines`
round trip unchanged — the property the persisted study document
depends on (property-tested in ``tests/analysis/test_interner.py`` over
both datasets' real location strings, Korean district names included).

Arbitrary strings are supported — empty strings, ``#``-containing
strings, any Unicode — because the interner works on whole components,
never on the delimited record.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ConfigurationError


class StringInterner:
    """A string → dense-integer-id table (:meth:`to_lines` inverts it).

    Ids are assigned in first-encounter order starting at 0, so two
    interners fed the same strings in the same order are identical —
    the determinism the study digest builds on.
    """

    __slots__ = ("_ids", "_strings")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []

    def __len__(self) -> int:
        return len(self._strings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringInterner):
            return NotImplemented
        return self._strings == other._strings

    def intern(self, text: str) -> int:
        """The id for ``text``, assigning the next dense id if unseen."""
        table = self._ids
        found = table.get(text)
        if found is not None:
            return found
        assigned = len(self._strings)
        table[text] = assigned
        self._strings.append(text)
        return assigned

    # ----------------------------------------------------------- persistence
    def to_lines(self) -> list[str]:
        """The table as a list of strings in id order (the wire form).

        The list *is* the table: index equals id, so serialising it into
        a study document (or a buffer file's string section) and
        rebuilding with :meth:`from_lines` preserves every id exactly.
        """
        return list(self._strings)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "StringInterner":
        """Rebuild an interner from :meth:`to_lines` output.

        Raises:
            ConfigurationError: if ``lines`` holds duplicate strings —
                a table that cannot have come from an interner.
        """
        interner = cls()
        for index, text in enumerate(lines):
            assigned = interner.intern(text)
            if assigned != index:
                raise ConfigurationError(
                    f"duplicate string {text!r} at position {index} in "
                    "interner table (first seen as id "
                    f"{assigned})"
                )
        return interner
