"""Analysis layer: the correlation study, reliability weights, reports.

Public surface of :mod:`repro.analysis`:

* :func:`run_study` / :class:`StudyResult` — the end-to-end study
* :class:`ReliabilityTable` / :class:`WeightingScheme` — weight factors
* ``render_*`` — plain-text renderings of every paper figure/table
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "correlation": ("run_study",),
    "result": ("StudyResult",),
    "incremental": ("IncrementalStudyAccumulator",),
    "export": ("export_group_statistics", "export_groupings", "export_observations"),
    "mentions": (
        "MentionAgreement", "MentionCorrelationStudy", "render_mention_agreement",
    ),
    "reliability": ("ReliabilityTable", "WeightingScheme"),
    "regional": ("RegionalRow", "regional_breakdown", "render_regional_breakdown"),
    "serialization": ("load_study", "save_study", "study_digest", "study_to_json"),
    "stability": (
        "StabilityResult", "median_timestamp", "render_stability",
        "split_half_stability",
    ),
    "significance": (
        "ChiSquareResult", "ShareInterval", "bootstrap_share_intervals", "chi2_sf",
        "chi_square_independence", "compare_group_distributions",
    ),
    "report": (
        "render_comparison", "render_dataset_summary", "render_fig6", "render_fig7",
        "render_funnel", "render_merged_strings", "render_tweet_distribution",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
