"""The serving request mix and the check every reply must pass.

A :class:`Mix` is generated from the workload seed and the snapshot the
server holds; it hands out :class:`Request` items, each carrying the
answer the generator expects, so a reply is judged on arrival:

* about 80% snapshot reads — ``/lookup`` for Zipf-drawn study users
  (plus about 10% ids not in the study, whose expected answer is 404), ``/region``, ``/regions``, ``/stats`` and
  ``/``;
* about 15% ``/reverse`` at warm cells (resolved once before timing);
* about 5% ``/reverse`` at fresh cells, never requested before, which
  reach the server's geocode backend.

Expected ``/reverse`` answers come from the same gazetteer and
``DirectBackend`` the server uses, resolved in this process at
generation time.
"""

from __future__ import annotations

import itertools
import json
import random
import threading
from collections import deque
from dataclasses import dataclass
from urllib.parse import quote

#: Share of each request kind.
KIND_WEIGHTS = {
    "lookup": 45,
    "lookup_unknown": 5,
    "region": 15,
    "regions": 5,
    "stats": 5,
    "overview": 5,
    "reverse_warm": 15,
    "reverse_cold": 5,
}

#: Zipf exponent of user popularity.
ZIPF_S = 1.1

#: Warm cells per mix (each requested once before timing).
WARM_CELLS = 200


@dataclass(frozen=True)
class Request:
    """One request and the answer it must get.

    Attributes:
        kind: Mix category (``lookup``, ``reverse_cold``, ...).
        method: HTTP method.
        target: Path plus query string.
        status: Expected status code.
        expect: Body fields that must match exactly.
    """

    kind: str
    method: str
    target: str
    status: int
    expect: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class Served:
    """What the served snapshot contributes to the mix."""

    version: str
    users: frozenset[int]
    states: frozenset[str]


def served_view(study, digest: str) -> Served:
    """The mix-relevant view of a saved study."""
    from repro.serving.state import VERSION_TAG_LENGTH

    states = {district.state for district in study.profile_districts.values()
              if district is not None}
    return Served(digest[:VERSION_TAG_LENGTH], frozenset(study.groupings),
                  frozenset(states))


class Mix:
    """Thread-safe generator of checked requests.

    Args:
        seed: Workload seed; the same seed gives the same stream.
        served: The snapshot the server holds.
        gazetteer: The catalogue the server reverse-geocodes against.
        prefill: Requests to generate up front, so that generating them
            does not compete with the measured phase.
    """

    def __init__(self, seed: int, served: Served, gazetteer, prefill: int = 0):
        from repro.geo.reverse import ReverseGeocoder
        from repro.geocode.backend import DirectBackend
        from repro.geocode.service import GeocodeService

        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.version = served.version
        users = sorted(served.users)
        self._rng.shuffle(users)
        self._users = users
        self._zipf = list(itertools.accumulate(
            1.0 / (rank ** ZIPF_S) for rank in range(1, len(users) + 1)))
        top = max(served.users)
        self._unknown = [top + 1 + offset for offset in range(1000)]
        self._states = sorted(served.states)
        self._geocode = GeocodeService(DirectBackend(ReverseGeocoder(gazetteer)))
        self._centers = [d.center for d in gazetteer.districts]
        self._used_cells: set = set()
        self.warm = [self._fresh_reverse("reverse_warm") for _ in range(WARM_CELLS)]
        self._kinds = list(KIND_WEIGHTS)
        self._kind_cum = list(itertools.accumulate(KIND_WEIGHTS.values()))
        self._ready = deque(self._draw() for _ in range(prefill))

    # ------------------------------------------------------------ generation
    def _fresh_reverse(self, kind: str) -> Request:
        """A ``/reverse`` at a cell no earlier request used."""
        from repro.geo.point import GeoPoint

        while True:
            center = self._rng.choice(self._centers)
            lat = round(center.lat + self._rng.uniform(-0.02, 0.02), 5)
            lon = round(center.lon + self._rng.uniform(-0.02, 0.02), 5)
            cell = self._geocode.cell_of(GeoPoint(lat, lon))
            if cell not in self._used_cells:
                break
        self._used_cells.add(cell)
        path = self._geocode.resolve_cell(cell)
        expect = {"cell": list(cell), "resolved": path is not None}
        if path is not None:
            expect.update(state=path.state, county=path.county)
        return Request(kind, "GET", f"/reverse?lat={lat}&lon={lon}", 200,
                       tuple(sorted(expect.items())))

    def _draw(self) -> Request:
        kind = self._rng.choices(self._kinds, cum_weights=self._kind_cum)[0]
        if kind == "lookup":
            user = self._rng.choices(self._users, cum_weights=self._zipf)[0]
            return Request(kind, "GET", f"/lookup?user={user}", 200,
                           (("user_id", user),))
        if kind == "lookup_unknown":
            user = self._rng.choice(self._unknown)
            return Request(kind, "GET", f"/lookup?user={user}", 404)
        if kind == "region":
            state = self._rng.choice(self._states)
            return Request(kind, "GET", f"/region?state={quote(state)}", 200,
                           (("state", state),))
        if kind == "regions":
            return Request(kind, "GET", "/regions", 200)
        if kind == "stats":
            return Request(kind, "GET", "/stats", 200)
        if kind == "overview":
            return Request(kind, "GET", "/", 200)
        if kind == "reverse_warm":
            return self._rng.choice(self.warm)
        return self._fresh_reverse("reverse_cold")

    def next(self) -> Request:
        """The next request of the stream."""
        with self._lock:
            return self._ready.popleft() if self._ready else self._draw()

    # ----------------------------------------------------------------- check
    def check(self, item: Request, status: int, body: bytes) -> bool:
        """Whether a reply is exactly what ``item`` expected."""
        if status != item.status:
            return False
        try:
            document = json.loads(body)
        except ValueError:
            return False
        if document.get("version") != self.version:
            return False
        return all(document.get(name) == value for name, value in item.expect)
