"""Storage substrate: tweet and user stores with JSONL persistence.

Public surface of :mod:`repro.storage`:

* :class:`TweetStore` — indexed tweet corpus (user/time/GPS indexes)
* :class:`UserStore` — account catalogue
* :class:`TweetQuery` / :class:`TimeRange` — conjunctive query model
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "query": ("TimeRange", "TweetQuery"),
    "tweetstore": ("TweetStore",),
    "userstore": ("UserStore",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
