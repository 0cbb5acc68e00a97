"""Plain-text rendering of the paper's figures and tables.

Every evaluation artefact has a renderer producing an aligned text table
(with an ASCII bar column where the original is a bar chart), so the
benchmark harness prints the same rows/series the paper reports.
"""

from __future__ import annotations

from repro.analysis.result import RefinementFunnel
from repro.grouping.merge import MergedString
from repro.grouping.stats import GroupStatistics
from repro.grouping.topk import TopKGroup
from repro.twitter.models import DatasetSummary

_BAR_WIDTH = 30


def _bar(fraction: float, scale: float = 1.0) -> str:
    """An ASCII bar of up to ``_BAR_WIDTH`` chars for ``fraction/scale``."""
    if scale <= 0:
        return ""
    filled = int(round(_BAR_WIDTH * max(0.0, min(1.0, fraction / scale))))
    return "#" * filled


def render_fig6(statistics: GroupStatistics, title: str = "") -> str:
    """Fig. 6 — average number of tweet locations in each group."""
    heading = title or "Fig. 6  Average number of tweet locations in each group"
    lines = [heading, "-" * len(heading)]
    max_avg = max(row.avg_tweet_locations for row in statistics.rows) or 1.0
    for row in statistics.rows:
        lines.append(
            f"{row.group.value:<8} {row.avg_tweet_locations:6.2f}  "
            f"{_bar(row.avg_tweet_locations, max_avg)}"
        )
    lines.append(
        f"overall  {statistics.overall_avg_tweet_locations:6.2f}  (user-weighted mean)"
    )
    return "\n".join(lines)


def render_fig7(statistics: GroupStatistics, title: str = "") -> str:
    """Fig. 7 — number of users in each group (count and percentage)."""
    heading = title or "Fig. 7  Number of users in each group"
    lines = [heading, "-" * len(heading)]
    max_share = max(row.user_share for row in statistics.rows) or 1.0
    for row in statistics.rows:
        lines.append(
            f"{row.group.value:<8} {row.user_count:6d}  {row.user_share:7.2%}  "
            f"{_bar(row.user_share, max_share)}"
        )
    lines.append(f"total    {statistics.total_users:6d}")
    return "\n".join(lines)


def render_tweet_distribution(statistics: GroupStatistics, title: str = "") -> str:
    """Slide 3 — number of tweets in each group (count and percentage)."""
    heading = title or "Number of tweets in each group"
    lines = [heading, "-" * len(heading)]
    max_share = max(row.tweet_share for row in statistics.rows) or 1.0
    for row in statistics.rows:
        lines.append(
            f"{row.group.value:<8} {row.tweet_count:8d}  {row.tweet_share:7.2%}  "
            f"{_bar(row.tweet_share, max_share)}"
        )
    lines.append(f"total    {statistics.total_tweets:8d}")
    return "\n".join(lines)


def render_comparison(
    korean: GroupStatistics,
    ladygaga: GroupStatistics,
    metric: str = "user_share",
) -> str:
    """Slides 4-5 — Korean vs Lady Gaga per-group comparison.

    Args:
        korean / ladygaga: The two datasets' statistics.
        metric: ``"user_share"`` (slide 4) or ``"avg_tweet_locations"``
            (slide 5).
    """
    if metric == "user_share":
        heading = "Number of users in each group (percentage): Korean vs Lady Gaga"
        value = lambda row: f"{row.user_share:7.2%}"  # noqa: E731
    elif metric == "avg_tweet_locations":
        heading = "Average number of tweet locations: Korean vs Lady Gaga"
        value = lambda row: f"{row.avg_tweet_locations:7.2f}"  # noqa: E731
    else:
        raise ValueError(f"unknown metric {metric!r}")
    lines = [heading, "-" * len(heading)]
    lines.append(f"{'group':<8} {'Korean':>9} {'Lady Gaga':>10}")
    for group in TopKGroup.reporting_order():
        lines.append(
            f"{group.value:<8} {value(korean.row(group)):>9} "
            f"{value(ladygaga.row(group)):>10}"
        )
    return "\n".join(lines)


def render_funnel(funnel: RefinementFunnel, title: str = "") -> str:
    """E9 — the §III-B refinement funnel."""
    heading = title or "Refinement funnel (paper Section III-B)"
    lines = [heading, "-" * len(heading)]
    lines.append(f"crawled users                 {funnel.crawled_users:10d}")
    for status, count in sorted(funnel.profile_status_counts.items()):
        lines.append(f"  profile {status:<18}  {count:10d}")
    lines.append(f"well-defined profiles         {funnel.well_defined_users:10d}")
    lines.append(f"  with >=1 GPS tweet          {funnel.users_with_gps:10d}")
    lines.append(f"total tweets collected        {funnel.total_tweets:10d}")
    lines.append(f"  GPS-tagged tweets           {funnel.gps_tweets:10d}")
    lines.append(f"  resolved observations       {funnel.resolved_observations:10d}")
    lines.append(f"  unresolvable GPS tweets     {funnel.unresolvable_gps_tweets:10d}")
    lines.append(f"final study users             {funnel.study_users:10d}")
    return "\n".join(lines)


def render_dataset_summary(*summaries: DatasetSummary) -> str:
    """Slide 1 — dataset summary table."""
    heading = "Dataset summary"
    lines = [heading, "-" * len(heading)]
    lines.append(f"{'dataset':<12} {'users':>10} {'tweets':>12} {'geotagged':>10}  api")
    for summary in summaries:
        lines.append(
            f"{summary.name:<12} {summary.user_count:>10d} "
            f"{summary.tweet_count:>12d} {summary.geotagged_tweet_count:>10d}  "
            f"{summary.collection_api}"
        )
    return "\n".join(lines)


def render_merged_strings(rows: list[MergedString], title: str = "") -> str:
    """Table II — one user's merged and ordered strings."""
    heading = title or "Merged and ordered location strings (paper Table II)"
    lines = [heading, "-" * len(heading)]
    for row in rows:
        marker = "  <- matched" if row.is_matched else ""
        lines.append(f"{row.render()}{marker}")
    return "\n".join(lines)
