"""Per-layer tracing installed from outside the package.

:class:`Tracer` replaces public functions and methods of ``repro``
modules with timing wrappers for the duration of a traced run and puts
the originals back afterwards; nothing under ``src/`` knows it is being
measured, and an untraced run installs nothing.

Each wrapper records, per layer key, the call count, the total time, and
the *self* time: total minus the time of wrapped calls made inside it
(on the same thread).  A call that re-enters its own key (``nearest``
calling ``nearest_within``) is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    """Timing wrappers plus the counters they accumulate."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[Callable[[], None]] = []

    # ---------------------------------------------------------------- wrap
    def _frames(self) -> list[list]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _wrap(self, fn: Callable, key: str, count: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = tracer._frames()
            if any(frame[0] == key for frame in frames):
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            frames.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][1] += elapsed
                with tracer._lock:
                    tracer.total_s[key] += elapsed
                    tracer.self_s[key] += elapsed - frame[1]
                    tracer.calls[key] += 1
            if count is not None:
                with tracer._lock:
                    tracer.items[key] += count(result)
            return result

        return wrapper

    def patch_method(self, owner: type, name: str, key: str,
                     count: Callable | None = None) -> None:
        """Wrap ``owner.name`` (plain, class or static method)."""
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, key, count))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, key, count))
        else:
            patched = self._wrap(raw, key, count)
        setattr(owner, name, patched)
        self._restore.append(lambda: setattr(owner, name, raw))

    def patch_function(self, module: object, name: str, key: str) -> None:
        """Wrap module function ``name`` everywhere it was imported to."""
        original = getattr(module, name)
        patched = self._wrap(original, key, None)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, patched)
                self._restore.append(
                    lambda loaded=loaded: setattr(loaded, name, original)
                )

    def uninstall(self) -> None:
        """Put every original back."""
        while self._restore:
            self._restore.pop()()

    # --------------------------------------------------------------- views
    def totals(self) -> dict[str, dict[str, float]]:
        """JSON view: per key, calls, items, total and self seconds."""
        with self._lock:
            return {
                key: {
                    "calls": self.calls[key],
                    "items": self.items[key],
                    "total_s": self.total_s[key],
                    "self_s": self.self_s[key],
                }
                for key in self.calls
            }

    def merge(self, totals: dict[str, dict[str, float]]) -> None:
        """Fold another process's :meth:`totals` in."""
        with self._lock:
            for key, row in totals.items():
                self.calls[key] += int(row["calls"])
                self.items[key] += int(row["items"])
                self.total_s[key] += float(row["total_s"])
                self.self_s[key] += float(row["self_s"])


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.analysis import serialization
    from repro.datasets import korean, ladygaga
    from repro.geo.gazetteer import SpatialGridCore
    from repro.geo.reverse import ReverseGeocoder
    from repro.geocode.backend import DirectBackend, PlaceFinderBackend
    from repro.serving import state
    from repro.storage.tweetstore import TweetStore
    from repro.storage.userstore import UserStore
    from repro.twitter.crawler import FollowerCrawler
    from repro.twitter.population import PopulationGenerator
    from repro.twitter.social_graph import FollowerGraph
    from repro.twitter.tweetgen import TweetGenerator
    from repro.yahooapi.client import PlaceFinderClient

    tracer.patch_method(PopulationGenerator, "generate", "twitter.population")
    tracer.patch_method(FollowerGraph, "generate", "twitter.graph")
    tracer.patch_method(TweetGenerator, "tweets_for", "twitter.tweetgen", count=len)
    tracer.patch_method(FollowerCrawler, "crawl", "twitter.crawl")
    # Bulk inserts, not per-tweet ``insert``: the Korean build indexes
    # through ``insert_many``, while wrapping ``insert`` would add one
    # wrapper call for every tweet a store load indexes.
    tracer.patch_method(TweetStore, "insert_many", "storage.insert", count=int)
    tracer.patch_method(TweetStore, "load", "storage.load", count=len)
    tracer.patch_method(UserStore, "load", "storage.load")
    tracer.patch_function(korean, "build_korean_dataset", "datasets.build")
    tracer.patch_function(ladygaga, "build_ladygaga_dataset", "datasets.build")
    tracer.patch_method(DirectBackend, "lookup", "geocode.backend")
    tracer.patch_method(PlaceFinderBackend, "lookup", "geocode.backend")
    for name in ("nearest", "nearest_within", "within"):
        tracer.patch_method(SpatialGridCore, name, "geo.search")
    tracer.patch_method(ReverseGeocoder, "resolve", "geo.reverse")
    tracer.patch_method(PlaceFinderClient, "reverse_geocode", "yahooapi")
    tracer.patch_function(serialization, "save_study", "analysis.save")
    tracer.patch_function(serialization, "study_digest", "analysis.digest")
    tracer.patch_method(state.ServingSnapshot, "from_study", "serving.from_study")
    tracer.patch_function(state, "load_snapshot", "serving.load")
    return tracer
