"""The tiered, order-insensitive geocode service.

Every geocoding consumer — the batch engine's reverse-geocode stage, the
streaming accumulator, the CLI — goes through one
:class:`GeocodeService`: an in-memory LRU (L1) over an optional
persistent append-only :class:`~repro.geocode.cellstore.CellStore` (the
disk tier), over a :class:`~repro.geocode.backend.GeocodeBackend`.

**Canonical-representative semantics.**  Coordinates are quantised to
0.001° cells, and a cell miss is resolved at the cell's *canonical
representative point* — its quantisation anchor ``(i·q, j·q)`` — never at
whichever tweet happened to arrive first.  The cached outcome is thus a
pure function of the cell key: independent of arrival order, batch
boundaries, and of which run (or which process) filled the cache.  That
property is what lets

* the batch engine reconstruct the canonical
  :class:`~repro.yahooapi.client.ClientStats` *arithmetically* instead of
  replaying the tweet stream serially through a shared client,
* streaming snapshots reuse fold-time resolutions instead of re-geocoding
  every retained tweet, and
* a warm disk tier be shared safely across runs and resumes —
  a cell resolved anywhere resolves identically everywhere.

Negative outcomes (``None`` — the backend answered "nowhere") are cached
like hits; transient give-ups (retry budget exhausted) are *not* cached,
so a flaky backend cannot poison the tiers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, TypeVar

from repro.errors import ConfigurationError
from repro.geo.point import GeoPoint
from repro.geo.region import AdminPath
from repro.geocode.backend import GeocodeBackend
from repro.geocode.cellstore import Cell, CellStore
from repro.geocode.policy import RetryPolicy, resolve_with_retries

_T = TypeVar("_T")


class FlightCoordinator(Protocol):
    """Deduplicates concurrent keyed calls (the single-flight pattern).

    ``do(key, fn)`` runs ``fn`` at most once per key at a time: the first
    caller for a key (the *leader*) executes it, every concurrent caller
    for the same key (a *follower*) blocks and receives the leader's
    result (or its raised exception).  The serving layer's
    :class:`~repro.serving.batcher.SingleFlight` implements this; the
    protocol lives here so :class:`GeocodeService` can accept a
    coordinator without importing the serving package.
    """

    def do(self, key: object, fn: Callable[[], _T]) -> _T:
        """Run ``fn`` once per concurrent ``key``; all callers share the result."""
        ...

#: Default L1 capacity — comfortably holds both study corpora's distinct
#: cells while still exercising eviction under adversarial tests.
DEFAULT_L1_CAPACITY = 65_536

#: The cache quantum the paper-era client used (0.001° ≈ 110 m).
DEFAULT_QUANTUM_DEG = 0.001

#: Filename of the persistent cell tier inside a cache directory.
CELL_CACHE_FILENAME = "geocells.jsonl"


def cell_cache_path(cache_dir: str | Path) -> Path:
    """The shared warm-cache file inside ``cache_dir``.

    Every consumer of a cache directory — the batch engine, the streaming
    accumulator, the CLI — derives the cell-store path through this one
    helper, so a study run and a stream resume pointed at the same
    directory always share the same warm tier.
    """
    return Path(cache_dir) / CELL_CACHE_FILENAME


def simulated_latency(requests: int, latency_s: float) -> float:
    """``requests`` accumulations of ``latency_s``, by repeated addition.

    The simulated client accumulates latency one request at a time;
    reproducing its float **bit for bit** requires the same addition
    sequence — ``requests * latency_s`` rounds differently.
    """
    total = 0.0
    for _ in range(requests):
        total += latency_s
    return total


@dataclass
class TierStats:
    """Per-tier cache accounting for one :class:`GeocodeService`.

    Attributes:
        l1_hits / l1_misses / l1_evictions: In-memory LRU traffic.
        disk_hits / disk_misses: Persistent-tier traffic (only lookups
            that missed L1 reach the disk tier).
        backend_lookups: Lookups that fell through every tier to the
            backend — the "real API calls" a warm cache avoids.
        no_result: Backend lookups that answered "nowhere".
        stored: Cell outcomes written into the tiers.
        retries / retry_exhausted: Transient-failure retry accounting
            (shared :class:`~repro.geocode.policy.RetryPolicy` semantics).
    """

    l1_hits: int = 0
    l1_misses: int = 0
    l1_evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    backend_lookups: int = 0
    no_result: int = 0
    stored: int = 0
    retries: int = 0
    retry_exhausted: int = 0

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Nested dict view (flattens to ``…l1.hits`` etc. in metrics)."""
        return {
            "l1": {
                "hits": self.l1_hits,
                "misses": self.l1_misses,
                "evictions": self.l1_evictions,
            },
            "disk": {"hits": self.disk_hits, "misses": self.disk_misses},
            "backend": {
                "lookups": self.backend_lookups,
                "no_result": self.no_result,
                "retries": self.retries,
                "retry_exhausted": self.retry_exhausted,
            },
        }


class GeocodeService:
    """Tiered cell-resolution cache over a :class:`GeocodeBackend`.

    Args:
        backend: The resolver misses fall through to.
        cache_path: Optional JSONL file for the persistent disk tier;
            ``None`` keeps the service memory-only.
        l1_capacity: Maximum cells the in-memory LRU retains.
        quantum_deg: Cell edge length in degrees (the cache key grid).
        retry_policy: Transient-failure retry budget for backend lookups.
    """

    def __init__(
        self,
        backend: GeocodeBackend,
        cache_path: str | Path | None = None,
        l1_capacity: int = DEFAULT_L1_CAPACITY,
        quantum_deg: float = DEFAULT_QUANTUM_DEG,
        retry_policy: RetryPolicy | None = None,
    ):
        if l1_capacity < 1:
            raise ConfigurationError(
                f"l1_capacity must be >= 1, got {l1_capacity}"
            )
        if quantum_deg <= 0:
            raise ConfigurationError(
                f"quantum_deg must be positive, got {quantum_deg}"
            )
        self._backend = backend
        self._quantum_deg = quantum_deg
        self._l1: OrderedDict[Cell, AdminPath | None] = OrderedDict()
        self._l1_capacity = l1_capacity
        self._disk = CellStore(cache_path) if cache_path is not None else None
        self._retry_policy = retry_policy or RetryPolicy()
        self._flight: FlightCoordinator | None = None
        self._tier_lock: threading.RLock | None = None
        self.stats = TierStats()

    # ------------------------------------------------------------------- keys
    @property
    def backend(self) -> GeocodeBackend:
        """The resolver behind the tiers."""
        return self._backend

    def cell_of(self, point: GeoPoint) -> Cell:
        """The cache cell ``point`` falls into."""
        q = self._quantum_deg
        return (round(point.lat / q), round(point.lon / q))

    def representative(self, cell: Cell) -> GeoPoint:
        """The cell's canonical representative point (its grid anchor).

        Every miss for the cell is resolved here, making the outcome a
        pure function of the cell key.
        """
        return GeoPoint(
            cell[0] * self._quantum_deg, cell[1] * self._quantum_deg
        )

    # ---------------------------------------------------------------- resolve
    def enable_single_flight(self, coordinator: FlightCoordinator) -> None:
        """Make :meth:`resolve` / :meth:`resolve_cell` safe for concurrent
        callers, coalescing duplicate misses through ``coordinator``.

        Once enabled, cache probes and stores serialise on an internal
        lock while backend lookups for *distinct* cells still run
        concurrently; concurrent misses for the *same* cell collapse into
        one backend call whose outcome every waiter shares.  The batch
        engine and streaming accumulator never call this — their serial
        resolve path is unchanged and pays no locking.
        """
        self._flight = coordinator
        self._tier_lock = threading.RLock()

    def resolve(self, point: GeoPoint) -> AdminPath | None:
        """Resolve ``point`` through the tiers (``None`` = unresolvable)."""
        return self.resolve_cell(self.cell_of(point))

    def resolve_cell(self, cell: Cell) -> AdminPath | None:
        """Resolve one cell: L1, then disk, then the backend.

        With single-flight enabled (:meth:`enable_single_flight`) this is
        the thread-safe entry point; concurrent duplicate misses cost one
        backend lookup.
        """
        if self._flight is None:
            hit, outcome = self.lookup_cached(cell)
            if hit:
                return outcome
            return self.resolve_uncached(cell)
        assert self._tier_lock is not None
        with self._tier_lock:
            hit, outcome = self.lookup_cached(cell)
        if hit:
            return outcome
        return self._flight.do(cell, lambda: self._resolve_coalesced(cell))

    def _resolve_coalesced(self, cell: Cell) -> AdminPath | None:
        """Leader body of a single-flight miss: re-probe, then backend.

        The re-probe (under the tier lock) closes the race where a
        request misses the cache, the concurrent leader for the same cell
        stores and retires its flight, and this request would otherwise
        become a fresh leader and pay a second backend call for a cell
        that is now cached.
        """
        assert self._tier_lock is not None
        with self._tier_lock:
            hit, outcome = self.lookup_cached(cell)
            if hit:
                return outcome
        point = self.representative(cell)
        scratch = TierStats()
        result = resolve_with_retries(
            lambda: self._backend.lookup(point), self._retry_policy, scratch
        )
        with self._tier_lock:
            self.stats.backend_lookups += 1
            self.stats.retries += scratch.retries
            self.stats.retry_exhausted += scratch.retry_exhausted
            if scratch.retry_exhausted:
                return None  # transient give-up: stays uncached
            if result is None:
                self.stats.no_result += 1
            self.store(cell, result)
        return result

    def is_cached(self, cell: Cell) -> bool:
        """Read-only probe: is ``cell`` resident in any cache tier?

        Unlike :meth:`lookup_cached` this touches no counters and
        promotes nothing into L1 — it exists so a transport layer can ask
        "would resolving this block on the backend?" without perturbing
        the tier statistics the benchmarks assert on.  The answer is
        advisory under concurrency: an eviction racing the probe can turn
        a ``True`` stale by dispatch time, which costs one backend call,
        never correctness.
        """
        probe = (
            lambda: cell in self._l1
            or (self._disk is not None and cell in self._disk)
        )
        if self._tier_lock is not None:
            with self._tier_lock:
                return probe()
        return probe()

    def lookup_cached(self, cell: Cell) -> tuple[bool, AdminPath | None]:
        """Probe the cache tiers only; ``(hit, outcome)``.

        A disk hit is promoted into L1.  The backend is never consulted —
        bulk consumers (the engine stage) use this to split work into
        cached cells and the misses they resolve afterwards.
        """
        if cell in self._l1:
            self.stats.l1_hits += 1
            self._l1.move_to_end(cell)
            return True, self._l1[cell]
        self.stats.l1_misses += 1
        if self._disk is not None:
            if cell in self._disk:
                self.stats.disk_hits += 1
                outcome = self._disk.get(cell)
                self._admit(cell, outcome)
                return True, outcome
            self.stats.disk_misses += 1
        return False, None

    def resolve_uncached(self, cell: Cell) -> AdminPath | None:
        """Resolve ``cell`` at its representative via the backend.

        The outcome is stored into every tier — except a transient
        give-up (retry budget exhausted), which must stay uncached so a
        later attempt can still succeed.
        """
        point = self.representative(cell)
        self.stats.backend_lookups += 1
        exhausted_before = self.stats.retry_exhausted
        outcome = resolve_with_retries(
            lambda: self._backend.lookup(point), self._retry_policy, self.stats
        )
        if self.stats.retry_exhausted > exhausted_before:
            return None
        if outcome is None:
            self.stats.no_result += 1
        self.store(cell, outcome)
        return outcome

    # ------------------------------------------------------------------ store
    def store(self, cell: Cell, outcome: AdminPath | None) -> None:
        """Record one cell outcome into L1 and (if present) the disk tier.

        The outcome must have been resolved at :meth:`representative` for
        the pure-function contract to hold.
        """
        self._admit(cell, outcome)
        if self._disk is not None:
            self._disk.put(cell, outcome)
        self.stats.stored += 1

    def _admit(self, cell: Cell, outcome: AdminPath | None) -> None:
        self._l1[cell] = outcome
        self._l1.move_to_end(cell)
        while len(self._l1) > self._l1_capacity:
            self._l1.popitem(last=False)
            self.stats.l1_evictions += 1

    # ------------------------------------------------------------------ views
    @property
    def cache_size(self) -> int:
        """Distinct cells the service currently caches (largest tier)."""
        if self._disk is not None:
            return len(self._disk)
        return len(self._l1)

    @property
    def l1_size(self) -> int:
        """Cells resident in the in-memory LRU."""
        return len(self._l1)

    @property
    def has_disk_tier(self) -> bool:
        """Whether a persistent tier backs the LRU."""
        return self._disk is not None

    def stats_source(self) -> dict[str, object]:
        """Metrics-registry source: tier counters plus cache occupancy."""
        snapshot: dict[str, object] = dict(self.stats.snapshot())
        snapshot["cache_size"] = self.cache_size
        snapshot["l1_size"] = self.l1_size
        client = getattr(self._backend, "client", None)
        if client is not None:
            snapshot["client_cache_size"] = client.cache_size
        return snapshot
