"""Experiment registry: one callable per paper artefact (E1-E10).

Each experiment id from DESIGN.md maps to a function that renders the
artefact as text from a shared :class:`ExperimentContext`.  The benchmark
harness times the underlying computations and prints these renderings, so
``pytest benchmarks/`` regenerates every figure and table.

Context construction is expensive (it builds both datasets and runs both
studies), so :func:`get_context` memoises per scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.result import StudyResult
from repro.analysis.reliability import ReliabilityTable
from repro.analysis.report import (
    render_comparison,
    render_dataset_summary,
    render_fig6,
    render_fig7,
    render_funnel,
    render_merged_strings,
    render_tweet_distribution,
)
from repro.datasets.korean import KoreanDataset, KoreanDatasetConfig
from repro.datasets.ladygaga import LadyGagaDataset, LadyGagaDatasetConfig
from repro.errors import ConfigurationError
from repro.events.evaluation import (
    LocalizationExperiment,
    make_korean_scenarios,
    render_localization_table,
)
from repro.pipelines.study import run_korean_study, run_ladygaga_study
from repro.twitter.tweetgen import CollectionWindow


@dataclass
class ExperimentContext:
    """Shared inputs for all experiments at one scale."""

    scale: str
    korean_dataset: KoreanDataset
    korean_study: StudyResult
    ladygaga_dataset: LadyGagaDataset
    ladygaga_study: StudyResult


_SCALES: dict[str, tuple[KoreanDatasetConfig, LadyGagaDatasetConfig]] = {
    # Small: for the test suite — a couple of seconds end to end.
    "small": (
        KoreanDatasetConfig(
            population_size=700,
            crawl_limit=600,
            window=CollectionWindow(start_ms=1_314_835_200_000, days=30),
            use_api_timelines=False,
        ),
        LadyGagaDatasetConfig(
            population_size=700,
            window=CollectionWindow(start_ms=1_314_835_200_000, days=30),
        ),
    ),
    # Default: the benchmark scale — study populations in the hundreds of
    # users, mirroring the paper's 1.4k final users within laptop seconds.
    "default": (
        KoreanDatasetConfig(population_size=4_000, crawl_limit=3_000, use_api_timelines=False),
        LadyGagaDatasetConfig(population_size=4_000),
    ),
}

_CACHE: dict[str, ExperimentContext] = {}


def get_context(scale: str = "default") -> ExperimentContext:
    """Build (or reuse) the shared experiment context for ``scale``.

    Raises:
        ConfigurationError: for an unknown scale name.
    """
    if scale not in _SCALES:
        raise ConfigurationError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    if scale not in _CACHE:
        korean_config, ladygaga_config = _SCALES[scale]
        korean = run_korean_study(korean_config)
        ladygaga = run_ladygaga_study(ladygaga_config)
        _CACHE[scale] = ExperimentContext(
            scale=scale,
            korean_dataset=korean.dataset,
            korean_study=korean.study,
            ladygaga_dataset=ladygaga.dataset,
            ladygaga_study=ladygaga.study,
        )
    return _CACHE[scale]


# ------------------------------------------------------------------ E1-E10
def experiment_e1_fig6(ctx: ExperimentContext) -> str:
    """E1 / Fig. 6 — average tweet locations per group (Korean)."""
    return render_fig6(ctx.korean_study.statistics)


def experiment_e2_fig7(ctx: ExperimentContext) -> str:
    """E2 / Fig. 7 — users per group (Korean)."""
    return render_fig7(ctx.korean_study.statistics)


def experiment_e3_tweets(ctx: ExperimentContext) -> str:
    """E3 / slide 3 — tweets per group (Korean)."""
    return render_tweet_distribution(ctx.korean_study.statistics)


def experiment_e4_user_comparison(ctx: ExperimentContext) -> str:
    """E4 / slide 4 — users per group, Korean vs Lady Gaga."""
    return render_comparison(
        ctx.korean_study.statistics, ctx.ladygaga_study.statistics, metric="user_share"
    )


def experiment_e5_location_comparison(ctx: ExperimentContext) -> str:
    """E5 / slide 5 — avg tweet locations, Korean vs Lady Gaga."""
    return render_comparison(
        ctx.korean_study.statistics,
        ctx.ladygaga_study.statistics,
        metric="avg_tweet_locations",
    )


def experiment_e6_e7_tables(ctx: ExperimentContext) -> str:
    """E6+E7 / Tables I-II — the grouping method's working example.

    Renders the merged, ordered strings (with the matched string marked)
    of the busiest Top-1 and the busiest None user, mirroring the paper's
    user 40932 / user 7471 walk-through.
    """
    from repro.grouping.topk import TopKGroup

    groupings = ctx.korean_study.groupings
    sections = []
    for group, label in ((TopKGroup.TOP_1, "Top-1 user"), (TopKGroup.NONE, "None user")):
        members = [g for g in groupings.values() if g.group is group]
        if not members:
            continue
        busiest = max(members, key=lambda g: g.total_tweets)
        sections.append(
            render_merged_strings(
                list(busiest.merged),
                title=f"Table II example — {label} {busiest.user_id} "
                f"({busiest.total_tweets} geotagged tweets)",
            )
        )
    return "\n\n".join(sections)


def experiment_e8_dataset_summary(ctx: ExperimentContext) -> str:
    """E8 / slide 1 — dataset summary table."""
    return render_dataset_summary(
        ctx.korean_dataset.summary, ctx.ladygaga_dataset.summary
    )


def experiment_e9_funnel(ctx: ExperimentContext) -> str:
    """E9 / §III-B — the refinement funnel (Korean)."""
    return render_funnel(ctx.korean_study.funnel)


def experiment_e10_localization(ctx: ExperimentContext) -> str:
    """E10 / §V — reliability-weighted event localisation."""
    experiment = LocalizationExperiment(
        ctx.korean_study,
        ctx.korean_dataset.gazetteer,
        ctx.korean_study.profile_districts,
    )
    scenarios = make_korean_scenarios(ctx.korean_dataset.gazetteer)
    outcomes = experiment.run_localization(scenarios)
    table = ReliabilityTable.from_statistics(ctx.korean_study.statistics)
    weights = ", ".join(f"{k}={v}" for k, v in table.as_dict().items())
    return (
        render_localization_table(outcomes)
        + f"\n\nlearned weight factors: {weights}"
    )


#: The registry the benchmark harness iterates.
EXPERIMENTS = {
    "E1": experiment_e1_fig6,
    "E2": experiment_e2_fig7,
    "E3": experiment_e3_tweets,
    "E4": experiment_e4_user_comparison,
    "E5": experiment_e5_location_comparison,
    "E6+E7": experiment_e6_e7_tables,
    "E8": experiment_e8_dataset_summary,
    "E9": experiment_e9_funnel,
    "E10": experiment_e10_localization,
}


def run_experiment(experiment_id: str, scale: str = "default") -> str:
    """Render one experiment's artefact.

    Raises:
        ConfigurationError: for an unknown experiment id.
    """
    if experiment_id not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id](get_context(scale))
