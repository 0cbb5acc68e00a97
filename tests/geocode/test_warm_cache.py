"""Acceptance tests for warm persistent-tier reuse across study runs.

The issue's contract: a second study run sharing a ``cache_dir`` must
issue **zero** uncached backend lookups (every cell comes off the disk
tier) and still produce a byte-identical :class:`StudyResult`.
"""

import pytest

from repro.analysis.correlation import StudyResult, run_study
from repro.datasets.korean import KoreanDatasetConfig, build_korean_dataset
from repro.engine import EngineConfig, RunContext
from repro.twitter.tweetgen import CollectionWindow


@pytest.fixture(scope="module")
def small_dataset():
    config = KoreanDatasetConfig(
        population_size=300,
        crawl_limit=200,
        window=CollectionWindow(start_ms=1_314_835_200_000, days=8),
        seed=11,
        use_api_timelines=False,
    )
    return build_korean_dataset(config)


def _run(dataset, cache_dir):
    context = RunContext(dataset_name="korean", seed=11)
    study = run_study(
        dataset.users,
        dataset.tweets,
        dataset.gazetteer,
        dataset_name="korean",
        engine_config=EngineConfig(cache_dir=str(cache_dir)),
        context=context,
    )
    return study, context.metrics.snapshot()


def assert_results_identical(reference: StudyResult, candidate: StudyResult):
    """Field-by-field identity, including the simulated API accounting."""
    assert candidate.funnel == reference.funnel
    assert candidate.observations == reference.observations
    assert candidate.groupings == reference.groupings
    assert candidate.statistics == reference.statistics
    assert candidate.profile_districts == reference.profile_districts
    assert candidate.api_stats == reference.api_stats


class TestWarmTier:
    def test_second_run_issues_zero_backend_lookups(self, small_dataset, tmp_path):
        cache = tmp_path / "geocache"
        cold_study, cold = _run(small_dataset, cache)
        assert cold["geocode.tiers.backend.lookups"] > 0
        assert (cache / "geocells.jsonl").exists()

        warm_study, warm = _run(small_dataset, cache)
        assert warm["geocode.tiers.backend.lookups"] == 0
        assert warm["geocode.tiers.disk.hits"] > 0
        # The simulated client was never consulted: its request cache is
        # exactly as empty as a freshly constructed client's.
        assert warm["geocode.tiers.client_cache_size"] == 0
        assert_results_identical(cold_study, warm_study)

    def test_cold_runs_with_and_without_cache_match(self, small_dataset, tmp_path):
        cached_study, _ = _run(small_dataset, tmp_path / "geocache")
        context = RunContext(dataset_name="korean", seed=11)
        plain_study = run_study(
            small_dataset.users,
            small_dataset.tweets,
            small_dataset.gazetteer,
            dataset_name="korean",
            context=context,
        )
        assert_results_identical(plain_study, cached_study)
