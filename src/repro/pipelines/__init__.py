"""End-to-end pipelines and the experiment registry.

Public surface of :mod:`repro.pipelines`:

* :func:`run_korean_study` / :func:`run_ladygaga_study` — one-call studies
* :data:`EXPERIMENTS` / :func:`run_experiment` — the E1-E10 registry
* :func:`get_context` — shared, memoised experiment inputs
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "experiments": (
        "EXPERIMENTS", "ExperimentContext", "get_context", "run_experiment",
    ),
    "study": (
        "KoreanStudyOutput", "LadyGagaStudyOutput", "run_korean_study",
        "run_ladygaga_study",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
