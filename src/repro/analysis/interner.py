"""The canonical string-id table of a study.

:func:`study_interner` sweeps a study's location strings in one fixed
order into a :class:`~repro.text.interner.StringInterner`; the study
JSON document (format v2) embeds that table, so it is part of
:func:`~repro.analysis.serialization.study_digest`.
"""

from __future__ import annotations

from repro.text.interner import StringInterner

__all__ = ["StringInterner", "study_interner"]


def study_interner(observations, profile_districts=None) -> StringInterner:
    """The canonical interner for a study's content.

    One sweep in canonical order — each observation's profile state,
    profile county, tweet state, tweet county, then each kept profile
    district's state and name — so the JSON serializer, the loader's
    cross-check and the live delta builder (:mod:`repro.live.builder`)
    all derive the *same* table with the *same* ids from the same study
    content.

    Args:
        observations: Iterable of
            :class:`~repro.twitter.models.GeotaggedObservation` rows in
            study order.
        profile_districts: Optional mapping of user id to
            :class:`~repro.geo.region.District`, swept after the
            observations in iteration order.
    """
    interner = StringInterner()
    intern = interner.intern
    for observation in observations:
        intern(observation.profile_state)
        intern(observation.profile_county)
        intern(observation.tweet_state)
        intern(observation.tweet_county)
    if profile_districts is not None:
        for district in profile_districts.values():
            intern(district.state)
            intern(district.name)
    return interner
