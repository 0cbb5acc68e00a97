"""Unit and property tests for merging/ordering (paper Table II)."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grouping.merge import (
    matched_rank,
    merge_strings,
    total_tweets,
    tweet_location_count,
)
from repro.grouping.strings import LocationString


def _record(user_id, profile_county, tweet_county, state="Seoul"):
    return LocationString(user_id, state, profile_county, state, tweet_county)


def paper_table1_records() -> list[LocationString]:
    """The paper's Table I rows (user 40932 and user 7471), reconstructed.

    User 40932 (Yangcheon-gu profile): 3 matched tweets, 2 at Jung-gu,
    1 at Seodaemun-gu.  User 7471 (Uiwang-si profile): 2 matched, 1 at
    Seongnam-si.
    """
    rows = []
    rows += [_record(40932, "Yangcheon-gu", "Yangcheon-gu")] * 3
    rows += [_record(40932, "Yangcheon-gu", "Jung-gu")] * 2
    rows += [_record(40932, "Yangcheon-gu", "Seodaemun-gu")]
    rows += [_record(7471, "Uiwang-si", "Uiwang-si", state="Gyeonggi-do")] * 2
    rows += [_record(7471, "Uiwang-si", "Seongnam-si", state="Gyeonggi-do")]
    return rows


class TestPaperExample:
    def test_table2_counts_and_order(self):
        merged = merge_strings(paper_table1_records())
        user = merged[40932]
        assert [m.count for m in user] == [3, 2, 1]
        assert user[0].record.tweet_county == "Yangcheon-gu"
        assert user[0].is_matched
        assert user[1].record.tweet_county == "Jung-gu"
        assert user[2].record.tweet_county == "Seodaemun-gu"

    def test_table2_render(self):
        merged = merge_strings(paper_table1_records())
        assert (
            merged[40932][0].render()
            == "40932#Seoul#Yangcheon-gu#Seoul#Yangcheon-gu (3)"
        )

    def test_user_7471_matched_first(self):
        merged = merge_strings(paper_table1_records())
        assert matched_rank(merged[7471]) == 1
        assert total_tweets(merged[7471]) == 3
        assert tweet_location_count(merged[7471]) == 2


class TestTieBreakPolicies:
    def _tied_rows(self):
        """Matched and unmatched strings with equal counts."""
        return [
            _record(1, "Mapo-gu", "Mapo-gu"),
            _record(1, "Mapo-gu", "Jung-gu"),
            _record(1, "Mapo-gu", "Guro-gu"),
        ]

    def test_matched_first_puts_match_on_top(self):
        from repro.grouping.merge import TieBreak

        merged = merge_strings(self._tied_rows(), tie_break=TieBreak.MATCHED_FIRST)
        assert merged[1][0].is_matched
        assert matched_rank(merged[1]) == 1

    def test_matched_last_pushes_match_down(self):
        from repro.grouping.merge import TieBreak

        merged = merge_strings(self._tied_rows(), tie_break=TieBreak.MATCHED_LAST)
        assert not merged[1][0].is_matched
        assert matched_rank(merged[1]) == 3

    def test_string_desc_reverses_ties(self):
        from repro.grouping.merge import TieBreak

        asc = merge_strings(self._tied_rows(), tie_break=TieBreak.STRING_ASC)
        desc = merge_strings(self._tied_rows(), tie_break=TieBreak.STRING_DESC)
        assert [m.record for m in desc[1]] == list(reversed([m.record for m in asc[1]]))

    def test_string_desc_reverses_ties_between_prefixes(self):
        """County "Jung" renders to a prefix of county "Jung-gu" in the
        same state; descending order must still put the longer first."""
        from repro.grouping.merge import TieBreak

        rows = [
            _record(1, "Mapo-gu", "Jung"),
            _record(1, "Mapo-gu", "Jung-gu"),
            _record(1, "Mapo-gu", "Jung-gu-dong"),
        ]
        asc = merge_strings(rows, tie_break=TieBreak.STRING_ASC)
        desc = merge_strings(rows, tie_break=TieBreak.STRING_DESC)
        assert [m.record.tweet_county for m in asc[1]] == [
            "Jung",
            "Jung-gu",
            "Jung-gu-dong",
        ]
        assert [m.record for m in desc[1]] == list(reversed([m.record for m in asc[1]]))

    def test_count_order_unaffected_by_policy(self):
        from repro.grouping.merge import TieBreak

        rows = [_record(1, "Mapo-gu", "Jung-gu")] * 5 + self._tied_rows()
        for policy in TieBreak:
            merged = merge_strings(rows, tie_break=policy)
            counts = [m.count for m in merged[1]]
            assert counts == sorted(counts, reverse=True)


class TestOrdering:
    def test_tie_break_is_deterministic(self):
        rows = [
            _record(1, "Mapo-gu", "Jung-gu"),
            _record(1, "Mapo-gu", "Gangnam-gu"),
        ]
        merged = merge_strings(rows)
        # Equal counts: rendered-string ascending puts Gangnam-gu first.
        assert merged[1][0].record.tweet_county == "Gangnam-gu"

    def test_matched_rank_none_when_absent(self):
        rows = [_record(1, "Mapo-gu", "Jung-gu"), _record(1, "Mapo-gu", "Guro-gu")]
        assert matched_rank(merge_strings(rows)[1]) is None

    def test_matched_rank_positions(self):
        rows = (
            [_record(1, "Mapo-gu", "Jung-gu")] * 5
            + [_record(1, "Mapo-gu", "Guro-gu")] * 3
            + [_record(1, "Mapo-gu", "Mapo-gu")] * 2
        )
        assert matched_rank(merge_strings(rows)[1]) == 3


@st.composite
def _observation_triples(draw, max_users=5, max_size=60):
    """(user, profile, tweet) triples with one fixed profile per user —
    the real-world constraint the grouping method assumes."""
    profiles = draw(
        st.fixed_dictionaries(
            {u: st.sampled_from(["A", "B", "C"]) for u in range(1, max_users + 1)}
        )
    )
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=max_users),
                st.sampled_from(["A", "B", "C", "D"]),
            ),
            min_size=1,
            max_size=max_size,
        )
    )
    return [(u, profiles[u], t) for u, t in pairs]


observation_lists = _observation_triples()


class TestProperties:
    @given(observation_lists)
    @settings(max_examples=100)
    def test_counts_preserved(self, triples):
        records = [_record(u, p, t) for u, p, t in triples]
        merged = merge_strings(records)
        assert sum(total_tweets(rows) for rows in merged.values()) == len(records)
        # Per-user totals match too.
        per_user = Counter(r.user_id for r in records)
        for user_id, rows in merged.items():
            assert total_tweets(rows) == per_user[user_id]

    @given(observation_lists)
    @settings(max_examples=100)
    def test_counts_descending(self, triples):
        records = [_record(u, p, t) for u, p, t in triples]
        for rows in merge_strings(records).values():
            counts = [m.count for m in rows]
            assert counts == sorted(counts, reverse=True)

    @given(observation_lists)
    @settings(max_examples=100)
    def test_at_most_one_matched_string_per_user(self, triples):
        records = [_record(u, p, t) for u, p, t in triples]
        for rows in merge_strings(records).values():
            assert sum(1 for m in rows if m.is_matched) <= 1

    @given(observation_lists, st.randoms())
    @settings(max_examples=60)
    def test_order_invariant_under_shuffle(self, triples, rng):
        records = [_record(u, p, t) for u, p, t in triples]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert merge_strings(records) == merge_strings(shuffled)
