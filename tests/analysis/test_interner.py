"""Unit and property tests for the string interner.

The load-bearing claims: ids are dense first-encounter order, arbitrary
strings round-trip (Korean district names, empty strings, strings
containing the ``#`` delimiter), and a :meth:`to_lines` /
:meth:`from_lines` round trip preserves every id exactly — including
over both datasets' real location strings.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.interner import StringInterner, study_interner
from repro.errors import ConfigurationError


class TestBasics:
    def test_dense_first_encounter_ids(self):
        interner = StringInterner()
        assert interner.intern("Seoul") == 0
        assert interner.intern("Gangnam-gu") == 1
        assert interner.intern("Seoul") == 0
        assert len(interner) == 2
        assert interner.to_lines() == ["Seoul", "Gangnam-gu"]

    def test_lookup_inverts_intern(self):
        """The wire form is the reverse map: index == id."""
        interner = StringInterner()
        for text in ("California", "서울특별시", "", "a#b"):
            assigned = interner.intern(text)
            assert interner.to_lines()[assigned] == text

    def test_from_lines_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            StringInterner.from_lines(["x", "y", "x"])


class TestEdgeCaseStrings:
    """The interner works on whole components, never delimited records,
    so strings the grouping layer would reject must still round-trip."""

    @pytest.mark.parametrize(
        "text",
        ["", "#", "uid#state#county", "강남구", "  spaced  ", "\t", "a" * 1000],
    )
    def test_round_trips(self, text):
        interner = StringInterner()
        assigned = interner.intern(text)
        assert interner.to_lines()[assigned] == text
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        assert rebuilt.intern(text) == assigned
        assert len(rebuilt) == len(interner)


class TestProperties:
    @given(st.lists(st.text(max_size=30)))
    def test_ids_stable_across_save_load(self, texts):
        interner = StringInterner()
        ids = [interner.intern(text) for text in texts]
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        assert [rebuilt.intern(text) for text in texts] == ids
        assert rebuilt.to_lines() == interner.to_lines()

    @given(st.lists(st.text(max_size=30)))
    def test_lookup_inverts_every_id(self, texts):
        interner = StringInterner()
        for text in texts:
            assigned = interner.intern(text)
            assert interner.to_lines()[assigned] == text


class TestStudyInterner:
    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    def test_round_trips_every_real_location_string(self, small_ctx, dataset):
        """Every location string of both real datasets — Korean district
        names included — survives intern -> save -> load unchanged."""
        study = getattr(small_ctx, f"{dataset}_study")
        interner = study_interner(study.observations, study.profile_districts)
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        lines = rebuilt.to_lines()
        for observation in study.observations:
            for text in (
                observation.profile_state,
                observation.profile_county,
                observation.tweet_state,
                observation.tweet_county,
            ):
                assert lines[rebuilt.intern(text)] == text
        assert len(rebuilt) == len(interner)  # nothing new was interned

    def test_canonical_sweep_is_deterministic(self, small_ctx):
        study = small_ctx.korean_study
        one = study_interner(study.observations, study.profile_districts)
        two = study_interner(study.observations, study.profile_districts)
        assert one == two
        assert one.to_lines() == two.to_lines()

    def test_district_strings_are_swept_after_observations(self, small_ctx):
        study = small_ctx.korean_study
        without = study_interner(study.observations)
        with_districts = study_interner(study.observations, study.profile_districts)
        assert with_districts.to_lines()[: len(without)] == without.to_lines()
