"""A literal oracle of the paper's Table I/II method, and the groupers
checked against it.

The oracle is written the way §III-B reads: build one
``uid#state#county#state#county`` string per tweet, count the strings,
order each user's list by count (ties by the policy, each with its own
plain ``sorted`` call), and find the matched string's rank.  It shares
no code with :mod:`repro.grouping`, so it is the differential target for
both the batch :func:`~repro.grouping.topk.group_users` and the
streaming :class:`~repro.grouping.incremental.IncrementalGrouper`.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grouping import IncrementalGrouper, TieBreak, group_users
from repro.twitter.models import GeotaggedObservation


def _is_matched(text: str) -> bool:
    fields = text.split("#")
    return fields[1:3] == fields[3:5]


def _order(strings: list[str], counts: Counter, tie_break: TieBreak) -> list[str]:
    """One user's strings, count descending, ties by ``tie_break``.

    Python's sort is stable: ordering by the tie-break first and by count
    second leaves equal counts in tie-break order.
    """
    if tie_break is TieBreak.STRING_DESC:
        tied = sorted(strings, reverse=True)
    elif tie_break is TieBreak.MATCHED_FIRST:
        tied = sorted(sorted(strings), key=lambda text: not _is_matched(text))
    elif tie_break is TieBreak.MATCHED_LAST:
        tied = sorted(sorted(strings), key=_is_matched)
    else:
        tied = sorted(strings)
    return sorted(tied, key=lambda text: -counts[text])


def _group_label(rank: int | None) -> str:
    if rank is None:
        return "None"
    return f"Top-{rank}" if rank <= 5 else "Top-6+"


def oracle(observations, tie_break=TieBreak.STRING_ASC) -> dict[int, tuple]:
    """Per user, first-encounter order: ``(rows, matched rank, group)``
    where ``rows`` are Table II's ``string (count)`` lines."""
    strings = [
        f"{o.user_id}#{o.profile_state}#{o.profile_county}"
        f"#{o.tweet_state}#{o.tweet_county}"
        for o in observations
    ]
    counts = Counter(strings)
    per_user: dict[int, list[str]] = {}
    for observation, text in zip(observations, strings):
        distinct = per_user.setdefault(observation.user_id, [])
        if text not in distinct:
            distinct.append(text)
    result = {}
    for user_id, distinct in per_user.items():
        ordered = _order(distinct, counts, tie_break)
        matched = [i + 1 for i, text in enumerate(ordered) if _is_matched(text)]
        rank = matched[0] if matched else None
        rows = [f"{text} ({counts[text]})" for text in ordered]
        result[user_id] = (rows, rank, _group_label(rank))
    return result


def _as_oracle_view(groupings) -> dict[int, tuple]:
    return {
        user_id: (
            [row.render() for row in grouping.merged],
            grouping.matched_rank,
            grouping.group.value,
        )
        for user_id, grouping in groupings.items()
    }


#: County names that are prefixes of one another ("a" < "ab" < "ab-"),
#: so equal-count ties between them exercise the string tie-breaks.
_names = st.sampled_from(["a", "ab", "ab-", "b"]) | st.text(
    alphabet="ab-", min_size=1, max_size=3
)


@st.composite
def observation_lists(draw, max_users=4):
    """Observations with one fixed profile district per user."""
    states = st.sampled_from(["S", "S", "S-do"])
    profiles = {
        user_id: (draw(states), draw(_names)) for user_id in range(1, max_users + 1)
    }
    tweets = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=max_users),
                st.one_of(st.none(), st.tuples(states, _names)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    observations = []
    for user_id, place in tweets:
        profile_state, profile_county = profiles[user_id]
        tweet_state, tweet_county = place or profiles[user_id]
        observations.append(
            GeotaggedObservation(
                user_id=user_id,
                profile_state=profile_state,
                profile_county=profile_county,
                tweet_state=tweet_state,
                tweet_county=tweet_county,
                timestamp_ms=0,
            )
        )
    return observations


class TestAgainstOracle:
    def test_paper_table2_example(self):
        rows = [("Yangcheon-gu", 3), ("Jung-gu", 2), ("Seodaemun-gu", 1)]
        observations = [
            GeotaggedObservation(40932, "Seoul", "Yangcheon-gu", "Seoul", county, 0)
            for county, times in rows
            for _ in range(times)
        ]
        assert oracle(observations) == {
            40932: (
                [
                    "40932#Seoul#Yangcheon-gu#Seoul#Yangcheon-gu (3)",
                    "40932#Seoul#Yangcheon-gu#Seoul#Jung-gu (2)",
                    "40932#Seoul#Yangcheon-gu#Seoul#Seodaemun-gu (1)",
                ],
                1,
                "Top-1",
            )
        }

    @pytest.mark.parametrize("tie_break", list(TieBreak))
    @given(observations=observation_lists())
    def test_group_users_matches_oracle(self, tie_break, observations):
        result = group_users(observations, tie_break=tie_break)
        expected = oracle(observations, tie_break)
        assert _as_oracle_view(result) == expected
        assert list(result) == list(expected)

    @pytest.mark.parametrize("tie_break", list(TieBreak))
    @given(observations=observation_lists())
    def test_incremental_grouper_matches_oracle(self, tie_break, observations):
        grouper = IncrementalGrouper(tie_break)
        expected = oracle(observations, tie_break)
        half = len(observations) // 2
        grouper.add_many(observations[:half])
        for observation in observations[half:]:
            grouper.add(observation)
        result = grouper.classify_all()
        assert _as_oracle_view(result) == expected
        assert list(result) == list(expected)
