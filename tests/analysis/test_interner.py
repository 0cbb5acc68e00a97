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
        assert interner.strings == ("Seoul", "Gangnam-gu")

    def test_lookup_inverts_intern(self):
        interner = StringInterner()
        for text in ("California", "서울특별시", "", "a#b"):
            assert interner.lookup(interner.intern(text)) == text

    def test_id_of_known_and_unknown(self):
        interner = StringInterner()
        interner.intern("Texas")
        assert interner.id_of("Texas") == 0
        with pytest.raises(KeyError):
            interner.id_of("Atlantis")

    def test_lookup_out_of_range(self):
        interner = StringInterner()
        interner.intern("one")
        with pytest.raises(ConfigurationError):
            interner.lookup(1)
        with pytest.raises(ConfigurationError):
            interner.lookup(-1)

    def test_contains(self):
        interner = StringInterner()
        interner.intern("Busan")
        assert "Busan" in interner
        assert "Seoul" not in interner

    def test_intern_many_returns_ids_in_order(self):
        interner = StringInterner()
        assert interner.intern_many(["a", "b", "a", "c"]) == [0, 1, 0, 2]

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
        assert interner.lookup(assigned) == text
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        assert rebuilt.id_of(text) == assigned


class TestProperties:
    @given(st.lists(st.text(max_size=30)))
    def test_ids_stable_across_save_load(self, texts):
        interner = StringInterner()
        ids = interner.intern_many(texts)
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        assert rebuilt.intern_many(texts) == ids
        assert rebuilt.digest() == interner.digest()

    @given(st.lists(st.text(max_size=30)))
    def test_lookup_inverts_every_id(self, texts):
        interner = StringInterner()
        for text in texts:
            assert interner.lookup(interner.intern(text)) == text

    @given(st.lists(st.text(max_size=20), unique=True, min_size=1))
    def test_digest_is_order_sensitive(self, texts):
        forward = StringInterner()
        forward.intern_many(texts)
        backward = StringInterner()
        backward.intern_many(list(reversed(texts)))
        if len(texts) > 1:
            assert forward.digest() != backward.digest()
        else:
            assert forward.digest() == backward.digest()


class TestStudyInterner:
    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    def test_round_trips_every_real_location_string(self, small_ctx, dataset):
        """Every location string of both real datasets — Korean district
        names included — survives intern -> save -> load unchanged."""
        study = getattr(small_ctx, f"{dataset}_study")
        interner = study_interner(study.observations, study.profile_districts)
        rebuilt = StringInterner.from_lines(interner.to_lines())
        assert rebuilt == interner
        for observation in study.observations:
            for text in (
                observation.profile_state,
                observation.profile_county,
                observation.tweet_state,
                observation.tweet_county,
            ):
                assert rebuilt.lookup(rebuilt.id_of(text)) == text

    def test_canonical_sweep_is_deterministic(self, small_ctx):
        study = small_ctx.korean_study
        one = study_interner(study.observations, study.profile_districts)
        two = study_interner(study.observations, study.profile_districts)
        assert one == two
        assert one.digest() == two.digest()

    def test_district_strings_are_swept_after_observations(self, small_ctx):
        study = small_ctx.korean_study
        without = study_interner(study.observations)
        with_districts = study_interner(study.observations, study.profile_districts)
        assert with_districts.strings[: len(without)] == without.strings
