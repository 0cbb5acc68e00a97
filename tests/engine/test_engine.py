"""Property tests for the staged StudyEngine.

The load-bearing guarantee of the engine refactor: the staged engine's
:class:`StudyResult` is byte-identical — field by field, including the
simulated API usage accounting — to what the pre-refactor ``run_study``
monolith produced.  The monolith below is a verbatim copy of the seed
implementation, kept here as the reference.
"""

import pytest

from repro.analysis.correlation import StudyResult, run_study
from repro.datasets.refine import RefinementFunnel
from repro.engine import EngineConfig, RunContext, StudyEngine
from repro.geo.forward import GeocodeStatus, TextGeocoder
from repro.geo.reverse import ReverseGeocoder
from repro.grouping.stats import compute_group_statistics
from repro.grouping.topk import group_users
from repro.pipelines.study import run_korean_study
from repro.datasets.korean import KoreanDatasetConfig
from repro.errors import ConfigurationError
from repro.twitter.models import GeotaggedObservation
from repro.twitter.tweetgen import CollectionWindow
from repro.yahooapi.client import FailurePlan, PlaceFinderClient


def seed_run_study(users, tweets, gazetteer, dataset_name="dataset", min_gps_tweets=1):
    """The pre-refactor monolith, copied verbatim as the reference."""
    text_geocoder = TextGeocoder(gazetteer)
    placefinder = PlaceFinderClient(ReverseGeocoder(gazetteer), daily_quota=10**9)

    funnel = RefinementFunnel()
    funnel.crawled_users = len(users)
    funnel.total_tweets = len(tweets)
    funnel.gps_tweets = tweets.gps_count()

    profile_districts = {}
    for user in users:
        result = text_geocoder.geocode(user.profile_location)
        funnel.profile_status_counts[result.status.value] += 1
        if result.status is GeocodeStatus.RESOLVED and result.district is not None:
            profile_districts[user.user_id] = result.district
    funnel.well_defined_users = len(profile_districts)

    observations, study_users, kept = [], {}, {}
    for user_id, district in profile_districts.items():
        gps_tweets = [t for t in tweets.by_user(user_id) if t.has_gps]
        if len(gps_tweets) < min_gps_tweets:
            continue
        funnel.users_with_gps += 1
        user_rows = []
        for tweet in gps_tweets:
            path = placefinder.resolve_admin_path(tweet.coordinates)
            if path is None:
                funnel.unresolvable_gps_tweets += 1
                continue
            user_rows.append(
                GeotaggedObservation(
                    user_id=user_id,
                    profile_state=district.state,
                    profile_county=district.name,
                    tweet_state=path.state,
                    tweet_county=path.county,
                    timestamp_ms=tweet.created_at_ms,
                )
            )
        if not user_rows:
            continue
        observations.extend(user_rows)
        study_users[user_id] = users.get(user_id)
        kept[user_id] = district

    funnel.resolved_observations = len(observations)
    funnel.study_users = len(study_users)
    groupings = group_users(observations)
    statistics = compute_group_statistics(groupings.values())
    return StudyResult(
        dataset_name=dataset_name,
        funnel=funnel,
        observations=observations,
        groupings=groupings,
        statistics=statistics,
        profile_districts=kept,
        api_stats=placefinder.stats,
    )


def assert_results_identical(reference: StudyResult, candidate: StudyResult):
    """Field-by-field equality, including ordering of keyed collections."""
    assert candidate.funnel == reference.funnel
    assert candidate.observations == reference.observations
    assert list(candidate.groupings) == list(reference.groupings)
    assert candidate.groupings == reference.groupings
    assert candidate.statistics == reference.statistics
    assert list(candidate.profile_districts) == list(reference.profile_districts)
    assert candidate.profile_districts == reference.profile_districts
    assert candidate.api_stats == reference.api_stats


@pytest.fixture(scope="module")
def korean_reference(small_ctx):
    ds = small_ctx.korean_dataset
    return ds, seed_run_study(ds.users, ds.tweets, ds.gazetteer, "Korean")


@pytest.fixture(scope="module")
def ladygaga_reference(small_ctx):
    ds = small_ctx.ladygaga_dataset
    return ds, seed_run_study(ds.users, ds.tweets, ds.gazetteer, "Lady Gaga")


class TestSeedEquivalence:
    """Acceptance: engine ≡ seed monolith on both corpora."""

    def test_korean(self, korean_reference):
        ds, reference = korean_reference
        result = run_study(ds.users, ds.tweets, ds.gazetteer, "Korean")
        assert_results_identical(reference, result)

    def test_ladygaga(self, ladygaga_reference):
        ds, reference = ladygaga_reference
        result = run_study(ds.users, ds.tweets, ds.gazetteer, "Lady Gaga")
        assert_results_identical(reference, result)

    def test_injected_placefinder_stays_serial_and_identical(self, korean_reference):
        """A custom client (failure plan) runs the seed's per-tweet loop."""
        ds, _ = korean_reference
        plan = FailurePlan(every_n=50)

        def monolith_with_plan():
            client = PlaceFinderClient(
                ReverseGeocoder(ds.gazetteer), daily_quota=10**9, failure_plan=plan
            )
            from repro.datasets.refine import RefinementPipeline

            pipeline = RefinementPipeline(
                text_geocoder=TextGeocoder(ds.gazetteer), placefinder=client
            )
            refined = pipeline.run(ds.users, ds.tweets)
            return refined, client.stats

        refined, stats = monolith_with_plan()
        client = PlaceFinderClient(
            ReverseGeocoder(ds.gazetteer), daily_quota=10**9, failure_plan=plan
        )
        result = run_study(
            ds.users, ds.tweets, ds.gazetteer, "Korean",
            placefinder=client,
        )
        assert result.funnel == refined.funnel
        assert result.observations == refined.observations
        assert result.api_stats == stats


class TestEngineInstrumentation:
    """Acceptance: one snapshot reports crawl, geocode, funnel, grouping,
    plus per-stage wall-time spans."""

    @pytest.fixture(scope="class")
    def output(self):
        config = KoreanDatasetConfig(
            population_size=400,
            crawl_limit=300,
            window=CollectionWindow(start_ms=1_314_835_200_000, days=10),
            seed=13,
        )
        return run_korean_study(config)

    def test_single_snapshot_covers_every_subsystem(self, output):
        snap = output.context.metrics.snapshot()
        # Crawl accounting re-registered from CrawlResult.
        assert snap["crawl.users"] == 300
        assert snap["crawl.api_calls"] > 0
        # Geocode accounting re-registered from ClientStats.
        assert snap["geocode.requests"] > 0
        assert "geocode.cache_hits" in snap
        assert "geocode.retries" in snap
        # Refinement funnel re-registered from RefinementFunnel.
        assert snap["funnel.crawled_users"] == 300
        assert snap["funnel.study_users"] == output.study.funnel.study_users
        # Grouping counters.
        assert snap["grouping.users"] == len(output.study.groupings)
        assert snap["grouping.observations"] == len(output.study.observations)
        # Per-stage wall time mirrored into the registry.
        for stage in ("refine", "profile_geocode", "reverse_geocode",
                      "grouping", "statistics"):
            assert snap[f"stage.{stage}.s"] >= 0.0

    def test_spans_cover_all_stages_in_order(self, output):
        names = [span.stage for span in output.context.spans]
        assert names == ["refine", "profile_geocode", "reverse_geocode",
                         "grouping", "statistics"]
        reverse = next(
            span for span in output.context.spans
            if span.stage == "reverse_geocode"
        )
        assert reverse.items_out == len(output.study.observations)
        assert all(span.errors == 0 for span in output.context.spans)

    def test_last_run_exposes_context(self, small_ctx):
        ds = small_ctx.korean_dataset
        engine = StudyEngine(ds.gazetteer)
        context = RunContext(dataset_name="Korean", seed=7)
        result = engine.run(ds.users, ds.tweets, "Korean", context=context)
        assert engine.last_run is not None
        assert engine.last_run.result is result
        assert engine.last_run.context is context
        assert engine.last_run.context.trace()["seed"] == 7


class TestEngineConfigValidation:
    def test_bad_min_gps(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(min_gps_tweets=0)
