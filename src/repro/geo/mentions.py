"""Extraction of places mentioned in tweet text — the third spatial
attribute.

The paper names three sources of spatial attributes: profile locations,
GPS coordinates, and "the places mentioned in tweet contents", then scopes
itself to the first two (§III-A).  This module implements the third as an
extension: a gazetteer-driven mention extractor, which the extension
experiment (bench ``bench_ext_place_mentions``) correlates against tweet
GPS — Fig. 4's observation that "some tweets mentioned about their current
locations and those are the same places of the GPS coordinates".

Only aliases that resolve to exactly one district are accepted; a bare
"Jung-gu" (six metropolitan cities) names no usable place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.gazetteer import Gazetteer
from repro.geo.region import District
from repro.text.normalize import normalize_text, strip_punctuation
from repro.text.tokenize import ngrams


@dataclass(frozen=True, slots=True)
class PlaceMention:
    """One place mention found in a tweet.

    Attributes:
        district: The uniquely resolved district.
        matched_alias: The alias text that matched.
        token_start: Index of the first matched token.
        token_count: Number of tokens the alias spans.
    """

    district: District
    matched_alias: str
    token_start: int
    token_count: int


class PlaceMentionExtractor:
    """Finds unambiguous gazetteer places mentioned in free text.

    Longest-match-first over token n-grams, mirroring the forward
    geocoder's candidate scan but keeping *all* non-overlapping matches
    instead of resolving a single field.
    """

    def __init__(self, gazetteer: Gazetteer, max_ngram: int = 3):
        self._gazetteer = gazetteer
        self._max_ngram = max_ngram

    def extract(self, text: str) -> list[PlaceMention]:
        """All unambiguous, non-overlapping place mentions in ``text``."""
        cleaned = strip_punctuation(normalize_text(text))
        tokens = cleaned.split()
        if not tokens:
            return []
        mentions: list[PlaceMention] = []
        consumed: set[int] = set()
        for n in range(min(self._max_ngram, len(tokens)), 0, -1):
            for start, gram in enumerate(ngrams(tokens, n)):
                span = set(range(start, start + n))
                if span & consumed:
                    continue
                alias = " ".join(gram)
                hits = self._gazetteer.lookup_alias(alias)
                if len(hits) != 1:
                    continue  # unknown or ambiguous
                mentions.append(
                    PlaceMention(
                        district=hits[0],
                        matched_alias=alias,
                        token_start=start,
                        token_count=n,
                    )
                )
                consumed |= span
        mentions.sort(key=lambda m: m.token_start)
        return mentions

    def first(self, text: str) -> PlaceMention | None:
        """The first mention in ``text``, or ``None``."""
        mentions = self.extract(text)
        return mentions[0] if mentions else None
