"""Forward geocoding: free-text profile locations -> districts.

Implements the "choose well-defined locations from the user profiles"
step (paper §III-B).  A profile field can resolve cleanly, or fall into
one of the failure classes the paper removed from its study population:

* **vague** — names no place ("my home", "Earth");
* **country-only / state-only** — a real place but too coarse to group by
  district ("Korea", bare "Seoul");
* **ambiguous** — several resolvable locations in one field (the paper's
  Fig. 3 example listing both Gold Coast and a Seoul district), or a
  district name shared by several cities with no disambiguating city;
* **unresolved** — informative-looking text the gazetteer does not know.

Coordinates embedded in the field are honoured by reverse geocoding them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.geo.gazetteer import Gazetteer
from repro.geo.korea import STATE_ALIASES
from repro.geo.point import GeoPoint
from repro.geo.region import District
from repro.text.normalize import strip_punctuation
from repro.text.profile_parser import ProfileShape, parse_profile_location
from repro.text.tokenize import ngrams
from repro.text.vague import is_country_only, is_vague


class GeocodeStatus(enum.Enum):
    """Outcome of resolving one profile-location field."""

    RESOLVED = "resolved"
    EMPTY = "empty"
    VAGUE = "vague"
    COUNTRY_ONLY = "country_only"
    STATE_ONLY = "state_only"
    AMBIGUOUS = "ambiguous"
    UNRESOLVED = "unresolved"


#: Statuses the paper treats as "well-defined" profile locations.
WELL_DEFINED = frozenset({GeocodeStatus.RESOLVED})


@dataclass(frozen=True, slots=True)
class ForwardGeocodeResult:
    """Result of forward-geocoding a profile-location field.

    Attributes:
        status: Outcome classification.
        district: Resolved district when ``status`` is RESOLVED.
        candidates: Distinct candidate districts seen while resolving
            (useful diagnostics for AMBIGUOUS fields).
        matched_text: The alias or phrase that produced the match.
    """

    status: GeocodeStatus
    district: District | None = None
    candidates: tuple[District, ...] = ()
    matched_text: str = ""

    @property
    def is_well_defined(self) -> bool:
        """True if the paper's refinement would keep this profile."""
        return self.status in WELL_DEFINED


class TextGeocoder:
    """Resolves free-text location fields against a gazetteer."""

    def __init__(self, gazetteer: Gazetteer):
        self._gazetteer = gazetteer
        # State-name lookup: canonical gazetteer states plus romanisation
        # aliases for the Korean ones.
        self._state_names: dict[str, str] = {s.lower(): s for s in gazetteer.states}
        for alias, canonical in STATE_ALIASES.items():
            if canonical in gazetteer.states:
                self._state_names[alias] = canonical

    @property
    def gazetteer(self) -> Gazetteer:
        """The underlying district catalogue."""
        return self._gazetteer

    # ------------------------------------------------------------------ api
    def geocode(self, raw: str) -> ForwardGeocodeResult:
        """Resolve one raw profile-location field."""
        parsed = parse_profile_location(raw)

        if parsed.shape is ProfileShape.EMPTY:
            return ForwardGeocodeResult(status=GeocodeStatus.EMPTY)

        if parsed.shape is ProfileShape.COORDINATES:
            assert parsed.coordinates is not None
            lat, lon = parsed.coordinates
            district = self._gazetteer.nearest_within(GeoPoint(lat, lon), max_km=150.0)
            if district is None:
                return ForwardGeocodeResult(status=GeocodeStatus.UNRESOLVED)
            return ForwardGeocodeResult(
                status=GeocodeStatus.RESOLVED,
                district=district,
                candidates=(district,),
                matched_text=f"{lat},{lon}",
            )

        if parsed.shape is ProfileShape.MULTI:
            return self._geocode_multi(parsed.phrases)

        # SINGLE or ADDRESS: one phrase to resolve.
        return self._geocode_phrase(parsed.phrases[0])

    # -------------------------------------------------------------- internals
    def _geocode_multi(self, phrases: tuple[str, ...]) -> ForwardGeocodeResult:
        """Several listed locations: resolvable in >1 place -> ambiguous."""
        resolutions = []
        for phrase in phrases:
            result = self._geocode_phrase(phrase)
            if result.status is GeocodeStatus.RESOLVED:
                resolutions.append(result)
        distinct = {r.district.key() for r in resolutions if r.district is not None}
        if len(distinct) == 1:
            return resolutions[0]
        if len(distinct) > 1:
            candidates = tuple(r.district for r in resolutions if r.district is not None)
            return ForwardGeocodeResult(
                status=GeocodeStatus.AMBIGUOUS, candidates=candidates
            )
        return ForwardGeocodeResult(status=GeocodeStatus.UNRESOLVED)

    def _geocode_phrase(self, phrase: str) -> ForwardGeocodeResult:
        """Resolve a single normalised phrase."""
        if is_vague(phrase):
            return ForwardGeocodeResult(status=GeocodeStatus.VAGUE)
        if is_country_only(phrase):
            return ForwardGeocodeResult(status=GeocodeStatus.COUNTRY_ONLY)

        cleaned = strip_punctuation(phrase)
        tokens = cleaned.split()
        if not tokens:
            return ForwardGeocodeResult(status=GeocodeStatus.VAGUE)

        # A field that is exactly a STATE-level name is insufficient, even
        # when the name doubles as a district alias elsewhere ("Gwangju"
        # is both a metropolitan city and a Gyeonggi-do city).  Exception:
        # single-city states in the world gazetteer ("Tokyo" the city IS
        # the grouping unit of "Tokyo" the state), where the bare name
        # resolves to that city.
        exact_state = self._state_names.get(cleaned)
        if exact_state is not None:
            own_city = [
                d for d in self._gazetteer.lookup_alias(cleaned) if d.state == exact_state
            ]
            if len(own_city) == 1:
                district = own_city[0]
                return ForwardGeocodeResult(
                    status=GeocodeStatus.RESOLVED,
                    district=district,
                    candidates=(district,),
                    matched_text=cleaned,
                )
            return ForwardGeocodeResult(status=GeocodeStatus.STATE_ONLY)

        mentioned_state = self._mentioned_state(tokens)
        candidates = self._candidate_districts(tokens)

        if not candidates:
            if mentioned_state is not None:
                return ForwardGeocodeResult(status=GeocodeStatus.STATE_ONLY)
            return ForwardGeocodeResult(status=GeocodeStatus.UNRESOLVED)

        if mentioned_state is not None:
            narrowed = [d for d in candidates if d.state == mentioned_state]
            if narrowed:
                candidates = narrowed

        distinct = {d.key(): d for d in candidates}
        if len(distinct) == 1:
            district = next(iter(distinct.values()))
            return ForwardGeocodeResult(
                status=GeocodeStatus.RESOLVED,
                district=district,
                candidates=(district,),
                matched_text=cleaned,
            )
        return ForwardGeocodeResult(
            status=GeocodeStatus.AMBIGUOUS,
            candidates=tuple(distinct.values()),
            matched_text=cleaned,
        )

    def _mentioned_state(self, tokens: list[str]) -> str | None:
        """The STATE-level name mentioned in the phrase, if any.

        Scans longest n-grams first so "gyeonggi-do" beats "gyeonggi".
        """
        for n in (3, 2, 1):
            for gram in ngrams(tokens, n):
                name = self._state_names.get(" ".join(gram))
                if name is not None:
                    return name
        return None

    def _candidate_districts(self, tokens: list[str]) -> list[District]:
        """Districts whose alias matches any n-gram of the phrase.

        Longer matches win: once an n-gram matches, its sub-grams are not
        considered, so "gold coast australia" does not also fire on
        "gold".
        """
        matched: list[District] = []
        consumed: set[int] = set()
        for n in (4, 3, 2, 1):
            for start, gram in enumerate(ngrams(tokens, n)):
                positions = set(range(start, start + n))
                if positions & consumed:
                    continue
                hits = self._gazetteer.lookup_alias(" ".join(gram))
                if hits:
                    matched.extend(hits)
                    consumed |= positions
        return matched
