"""Dataset builders and the §III-B refinement funnel.

Public surface of :mod:`repro.datasets`:

* :func:`build_korean_dataset` — the crawled Korean corpus (paper slide 1)
* :func:`build_ladygaga_dataset` — the worldwide streaming corpus
* :class:`RefinementPipeline` — crawled users -> grouping-ready rows
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "korean": ("KoreanDataset", "KoreanDatasetConfig", "build_korean_dataset"),
    "ladygaga": (
        "STREAMING_MOBILITY_MIX", "STREAMING_PROFILE_MIX", "LadyGagaDataset",
        "LadyGagaDatasetConfig", "build_ladygaga_dataset",
    ),
    "refine": ("RefinementFunnel", "RefinementPipeline", "RefinementResult"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
