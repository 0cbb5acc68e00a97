"""The paper's core contribution: the text-based grouping method.

Pipeline (paper §III-B): per-tweet :class:`LocationString` records ->
:func:`merge_strings` (merge identical records, order by count) ->
matched-string detection -> :class:`TopKGroup` classification ->
:func:`compute_group_statistics` (the Figs. 6-7 aggregates).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "incremental": ("IncrementalGrouper",),
    "merge": (
        "MergedString", "TieBreak", "matched_rank", "merge_strings", "total_tweets",
        "tweet_location_count",
    ),
    "stats": ("GroupRow", "GroupStatistics", "compute_group_statistics"),
    "strings": ("DELIMITER", "LocationString"),
    "topk": ("TopKGroup", "UserGrouping", "classify_rows", "group_users"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
