"""Token-bucket admission control for the serving layer.

The server sheds load rather than queueing it: when the bucket is empty
a data request is answered ``429 Too Many Requests`` immediately, so the
requests that *are* admitted keep their latency.  This is the classic
admission-control trade — bounded latency for admitted work, explicit
rejection for the rest.

The clock is injectable so tests can drive refill deterministically
without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``.

    ``try_acquire`` never blocks — it either takes a token or reports
    shed.  A ``rate`` of ``None`` disables limiting entirely (every
    acquire succeeds), which is the default for tests and ad-hoc serving.

    Thread-safe; refill is computed lazily from elapsed clock time on
    each acquire, so there is no background thread.
    """

    def __init__(
        self,
        rate: float | None,
        burst: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        """Configure the bucket.

        Args:
            rate: Sustained admissions per second, or ``None`` for
                unlimited.
            burst: Bucket capacity — how far admissions may overshoot the
                sustained rate momentarily.  Clamped to at least 1.
            clock: Monotonic-seconds source; injectable for tests.

        Raises:
            ValueError: if ``rate`` is given but not positive.
        """
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive or None, got {rate}")
        self._rate = rate
        self._burst = max(1, int(burst))
        self._clock = clock
        self._tokens = float(self._burst)
        self._last = clock()
        self._lock = threading.Lock()
        self._admitted = 0
        self._shed = 0

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks.

        Returns:
            ``True`` if the request is admitted, ``False`` if it must be
            shed (answered 429).
        """
        if self._rate is None:
            with self._lock:
                self._admitted += 1
            return True
        with self._lock:
            now = self._clock()
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(
                float(self._burst), self._tokens + elapsed * self._rate
            )
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self._admitted += 1
                return True
            self._shed += 1
            return False

    @property
    def admitted(self) -> int:
        """Requests admitted so far."""
        with self._lock:
            return self._admitted

    @property
    def shed(self) -> int:
        """Requests shed (rejected) so far."""
        with self._lock:
            return self._shed

    def snapshot_source(self) -> dict[str, object]:
        """Metrics-registry source: admission counters and configuration."""
        with self._lock:
            return {
                "admitted": self._admitted,
                "shed": self._shed,
                "rate": self._rate if self._rate is not None else "unlimited",
                "burst": self._burst,
            }
