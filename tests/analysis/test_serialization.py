"""Unit tests for study-result persistence."""

import json

import pytest

from repro.analysis.serialization import load_study, save_study
from repro.errors import StorageError
from repro.geodata.buffer import BufferWriter


#: Malformed study documents, by name.
_BAD_DOCUMENTS = {
    "non-utf8": b'\xff\xfe{"format_version": 2}',
    "json-array": b"[1, 2, 3]",
    "no-sections": b'{"format_version": 2}',
    "wrong-types": b'{"format_version": 2, "observations": 7}',
}

BAD_STUDY_NAMES = (*_BAD_DOCUMENTS, "buffer-file")


def write_bad_studies(directory) -> dict[str, object]:
    """Write every file :func:`load_study` must reject with a
    ``StorageError``; returns their paths by name.

    ``buffer-file`` is an ``RCOLBUF1`` buffer, the envelope the retired
    columnar study files used.
    """
    paths = {}
    for name, payload in _BAD_DOCUMENTS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_bytes(payload)
    writer = BufferWriter()
    writer.add_i64("observations", [2**40, -1])
    writer.add_strings("interner", ["Seoul", "서초구"])
    paths["buffer-file"] = writer.write(directory / "study.buf")
    return paths


@pytest.fixture(scope="module")
def saved_path(small_ctx, tmp_path_factory):
    path = tmp_path_factory.mktemp("study") / "korean_study.json"
    save_study(small_ctx.korean_study, path)
    return path


class TestRoundtrip:
    def test_groupings_survive(self, saved_path, small_ctx):
        loaded = load_study(saved_path, small_ctx.korean_dataset.gazetteer)
        original = small_ctx.korean_study
        assert set(loaded.groupings) == set(original.groupings)
        for user_id, grouping in original.groupings.items():
            restored = loaded.groupings[user_id]
            assert restored.group is grouping.group
            assert restored.matched_rank == grouping.matched_rank
            assert restored.total_tweets == grouping.total_tweets
            assert list(restored.merged) == list(grouping.merged)

    def test_statistics_recomputed_identically(self, saved_path, small_ctx):
        loaded = load_study(saved_path, small_ctx.korean_dataset.gazetteer)
        assert loaded.statistics == small_ctx.korean_study.statistics

    def test_observations_and_profiles(self, saved_path, small_ctx):
        loaded = load_study(saved_path, small_ctx.korean_dataset.gazetteer)
        original = small_ctx.korean_study
        assert loaded.observations == original.observations
        assert {
            u: d.key() for u, d in loaded.profile_districts.items()
        } == {u: d.key() for u, d in original.profile_districts.items()}

    def test_funnel_and_api_stats(self, saved_path, small_ctx):
        loaded = load_study(saved_path, small_ctx.korean_dataset.gazetteer)
        original = small_ctx.korean_study
        assert loaded.funnel.as_dict() == original.funnel.as_dict()
        assert loaded.api_stats.requests == original.api_stats.requests
        assert loaded.api_stats.retries == original.api_stats.retries
        assert loaded.api_stats.retry_exhausted == original.api_stats.retry_exhausted

    def test_retry_counters_roundtrip(self, saved_path, tmp_path, small_ctx):
        """Non-zero retry accounting must survive save → load."""
        gazetteer = small_ctx.korean_dataset.gazetteer
        document = json.loads(saved_path.read_text(encoding="utf-8"))
        document["api_stats"]["retries"] = 7
        document["api_stats"]["retry_exhausted"] = 2
        path = tmp_path / "retried.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        loaded = load_study(path, gazetteer)
        assert loaded.api_stats.retries == 7
        assert loaded.api_stats.retry_exhausted == 2

    def test_legacy_document_without_retry_counters(
        self, saved_path, tmp_path, small_ctx
    ):
        """Documents written before retry accounting load with zeros."""
        gazetteer = small_ctx.korean_dataset.gazetteer
        document = json.loads(saved_path.read_text(encoding="utf-8"))
        document["api_stats"].pop("retries", None)
        document["api_stats"].pop("retry_exhausted", None)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        loaded = load_study(path, gazetteer)
        assert loaded.api_stats.retries == 0
        assert loaded.api_stats.retry_exhausted == 0


class TestErrors:
    def test_missing_file(self, tmp_path, korean_gazetteer):
        with pytest.raises(StorageError):
            load_study(tmp_path / "nope.json", korean_gazetteer)

    def test_bad_json(self, tmp_path, korean_gazetteer):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError):
            load_study(path, korean_gazetteer)

    @pytest.mark.parametrize("name", BAD_STUDY_NAMES)
    def test_bad_input_raises_storage_error(self, tmp_path, korean_gazetteer, name):
        path = write_bad_studies(tmp_path)[name]
        with pytest.raises(StorageError, match=str(path.name)):
            load_study(path, korean_gazetteer)

    def test_version_mismatch(self, saved_path, tmp_path, korean_gazetteer):
        document = json.loads(saved_path.read_text(encoding="utf-8"))
        document["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(StorageError):
            load_study(path, korean_gazetteer)
