"""Location strings — the ``#``-delimited records of paper Table I.

"We made a text string for each tweet with user id, profile location, and
tweet location" (§III-B): one record per geotagged tweet, of the form::

    user id # state in profile # county in profile # state in tweet # county in tweet

e.g. ``40932#Seoul#Yangcheon-gu#Seoul#Seodaemun-gu``.  The string form is
the paper's working representation; :class:`LocationString` is its typed
equivalent with lossless ``render``/``parse`` round-tripping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.twitter.models import GeotaggedObservation

__all__ = ["DELIMITER", "LocationString"]

#: Field delimiter of the paper's string records.
DELIMITER = "#"


@dataclass(frozen=True, slots=True)
class LocationString:
    """One per-tweet location record (paper Table I row).

    Attributes:
        user_id: Author id.
        profile_state / profile_county: Geocoded profile location.
        tweet_state / tweet_county: Reverse-geocoded tweet GPS location.
    """

    user_id: int
    profile_state: str
    profile_county: str
    tweet_state: str
    tweet_county: str

    def __post_init__(self) -> None:
        for name in ("profile_state", "profile_county", "tweet_state", "tweet_county"):
            value = getattr(self, name)
            if DELIMITER in value:
                raise AnalysisError(f"{name}={value!r} contains the {DELIMITER!r} delimiter")
            if not value:
                raise AnalysisError(f"{name} must be non-empty")

    @property
    def is_matched(self) -> bool:
        """True when profile and tweet districts coincide (a matched string)."""
        return (
            self.profile_state == self.tweet_state
            and self.profile_county == self.tweet_county
        )

    def tweet_key(self) -> tuple[str, str]:
        """The tweet-side (state, county) — a distinct posting district."""
        return (self.tweet_state, self.tweet_county)

    def profile_key(self) -> tuple[str, str]:
        """The profile-side (state, county)."""
        return (self.profile_state, self.profile_county)

    def render(self) -> str:
        """The paper's ``#``-delimited string form."""
        return DELIMITER.join(
            (
                str(self.user_id),
                self.profile_state,
                self.profile_county,
                self.tweet_state,
                self.tweet_county,
            )
        )

    @classmethod
    def parse(cls, text: str) -> "LocationString":
        """Parse a ``#``-delimited record.

        Raises:
            AnalysisError: if the record does not have exactly five fields
                or the user id is not numeric.
        """
        parts = text.split(DELIMITER)
        if len(parts) != 5:
            raise AnalysisError(f"expected 5 fields, got {len(parts)}: {text!r}")
        try:
            user_id = int(parts[0])
        except ValueError:
            raise AnalysisError(f"non-numeric user id in {text!r}") from None
        return cls(
            user_id=user_id,
            profile_state=parts[1],
            profile_county=parts[2],
            tweet_state=parts[3],
            tweet_county=parts[4],
        )

    @classmethod
    def from_observation(cls, observation: GeotaggedObservation) -> "LocationString":
        """Build from a structured observation row."""
        return cls(
            user_id=observation.user_id,
            profile_state=observation.profile_state,
            profile_county=observation.profile_county,
            tweet_state=observation.tweet_state,
            tweet_county=observation.tweet_county,
        )
