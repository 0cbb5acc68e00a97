"""Property-based tests of the whole study pipeline.

Random (tiny) platform configurations go through dataset build +
refinement + grouping; the structural invariants must hold for every
configuration, not just the calibrated defaults.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.correlation import run_study
from repro.datasets.korean import KoreanDatasetConfig, build_korean_dataset
from repro.datasets.refine import RefinementPipeline
from repro.errors import InsufficientDataError
from repro.geo.forward import TextGeocoder
from repro.geo.reverse import ReverseGeocoder
from repro.grouping.topk import TopKGroup
from repro.twitter.models import MobilityClass, ProfileStyle
from repro.twitter.population import (
    DEFAULT_MOBILITY_MIX,
    DEFAULT_PROFILE_STYLE_MIX,
)
from repro.twitter.tweetgen import CollectionWindow
from repro.yahooapi.client import PlaceFinderClient

WINDOW_START_MS = 1_314_835_200_000


@st.composite
def tiny_configs(draw):
    """A small random platform configuration."""
    population = draw(st.integers(min_value=40, max_value=120))
    crawl = draw(st.integers(min_value=30, max_value=population))
    days = draw(st.integers(min_value=5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return KoreanDatasetConfig(
        population_size=population,
        crawl_limit=crawl,
        window=CollectionWindow(start_ms=WINDOW_START_MS, days=days),
        seed=seed,
        use_api_timelines=False,
    )


def refinement_funnel(dataset):
    """The refinement funnel of ``dataset``, computed apart from
    :func:`run_study` (no grouping, no statistics)."""
    gazetteer = dataset.gazetteer
    pipeline = RefinementPipeline(
        TextGeocoder(gazetteer), PlaceFinderClient(ReverseGeocoder(gazetteer))
    )
    return pipeline.run(dataset.users, dataset.tweets).funnel


class TestPipelineInvariants:
    @given(tiny_configs())
    # No crawled user of this platform survives refinement.
    @example(KoreanDatasetConfig(
        population_size=40,
        crawl_limit=30,
        window=CollectionWindow(start_ms=WINDOW_START_MS, days=5),
        seed=4096,
        use_api_timelines=False,
    ))
    @settings(max_examples=10, deadline=None)
    def test_structural_invariants_hold(self, config):
        dataset = build_korean_dataset(config)
        if refinement_funnel(dataset).study_users == 0:
            # The batch pipeline refuses an empty corpus by design.
            with pytest.raises(InsufficientDataError):
                run_study(dataset.users, dataset.tweets, dataset.gazetteer)
            return
        study = run_study(dataset.users, dataset.tweets, dataset.gazetteer)

        funnel = study.funnel
        # Funnel is monotone.
        assert funnel.crawled_users == config.crawl_limit
        assert funnel.well_defined_users <= funnel.crawled_users
        assert funnel.users_with_gps <= funnel.well_defined_users
        assert funnel.study_users <= funnel.users_with_gps
        assert funnel.gps_tweets <= funnel.total_tweets
        assert sum(funnel.profile_status_counts.values()) == funnel.crawled_users

        # Observations and groupings are consistent.
        assert len(study.observations) == funnel.resolved_observations
        assert set(study.groupings) == {o.user_id for o in study.observations}
        assert set(study.profile_districts) == set(study.groupings)

        assert study.groupings
        stats = study.statistics
        assert stats.total_users == funnel.study_users
        assert stats.total_tweets == len(study.observations)
        assert abs(sum(r.user_share for r in stats.rows) - 1.0) < 1e-9
        for grouping in study.groupings.values():
            assert grouping.total_tweets >= 1
            if grouping.group is TopKGroup.NONE:
                assert grouping.matched_tweets == 0
            else:
                assert grouping.matched_tweets >= 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_mobility_ground_truth_always_respected(self, seed):
        config = KoreanDatasetConfig(
            population_size=80,
            crawl_limit=70,
            window=CollectionWindow(start_ms=WINDOW_START_MS, days=10),
            seed=seed,
            use_api_timelines=False,
        )
        dataset = build_korean_dataset(config)
        study = run_study(dataset.users, dataset.tweets, dataset.gazetteer)
        for user_id, grouping in study.groupings.items():
            user = dataset.users.get(user_id)
            if user.mobility in (
                MobilityClass.RELOCATED,
                MobilityClass.FIXED_ELSEWHERE,
            ) and user.profile_style is ProfileStyle.DISTRICT:
                assert grouping.group is TopKGroup.NONE, (
                    f"seed {seed}: {user.mobility} user {user_id} "
                    f"classified {grouping.group}"
                )


def test_default_mixes_are_normalisable():
    """The documented default mixes stay valid probability weights."""
    assert abs(sum(DEFAULT_MOBILITY_MIX.values()) - 1.0) < 1e-9
    assert abs(sum(DEFAULT_PROFILE_STYLE_MIX.values()) - 1.0) < 1e-9
