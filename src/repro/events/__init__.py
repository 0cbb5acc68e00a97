"""Event detection and localisation — the paper's downstream consumers.

Implements the two systems the paper positions itself as a preliminary
study for (§II), plus its proposed improvement (§V):

* Toretter path — :class:`EventTweetClassifier`, :class:`BurstDetector`,
  :class:`KalmanLocalizer`, :class:`ParticleLocalizer`
* Twitris path — :class:`TwitrisSummarizer`
* the paper's contribution applied — :func:`build_measurements` with
  :class:`~repro.analysis.reliability.ReliabilityTable` weights, and the
  :class:`LocalizationExperiment` harness (experiment E10)
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "burst": (
        "BurstAlarm", "BurstDetector", "ExponentialDecayFit", "fit_exponential_decay",
    ),
    "classifier": (
        "EventTweetClassifier", "LabeledTweet", "default_training_set",
        "extract_features",
    ),
    "evaluation": (
        "DetectionOutcome", "LocalizationExperiment", "LocalizationOutcome",
        "default_estimators", "make_korean_scenarios", "mean_error_by_scheme",
        "render_localization_table",
    ),
    "injector": ("EventTweetInjector",),
    "kalman": ("KalmanLocalizer", "Measurement"),
    "online": ("OnlineAlarm", "OnlineEventDetector", "OnlineStats"),
    "particle": ("ParticleLocalizer",),
    "scenario": ("EventScenario", "WitnessGenerator", "WitnessReport"),
    "trends": ("Trend", "TrendDetector"),
    "twitris": ("SliceKey", "SliceSummary", "TwitrisSummarizer"),
    "weighted": (
        "MIN_PROFILE_WEIGHT", "MedianLocalizer", "WeightedCentroidLocalizer",
        "build_measurements",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
