"""Mobility models: where a synthetic user posts tweets from.

The Top-k structure the paper measures is a direct consequence of user
mobility: someone who tweets mostly from home lands in Top-1, a commuter
whose workplace dominates lands in Top-2/3, and a user who moved away from
their stated hometown never produces a matched string at all (the None
group).  Each archetype in :class:`~repro.twitter.models.MobilityClass`
gets a categorical distribution over districts built here; tweet
generation samples districts (and jittered GPS points inside them) from
that distribution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.geo.point import GeoPoint
from repro.geo.region import District
from repro.twitter.draws import weighted_index
from repro.twitter.models import MobilityClass


@dataclass(frozen=True, slots=True)
class MobilityProfile:
    """A user's ground-truth tweeting distribution over districts.

    Attributes:
        home: The district the user's profile claims (their "home").
        archetype: Mobility class the distribution was built for.
        districts: Support of the distribution.
        weights: Matching sampling weights (sum to 1).
        sample_radii_km: Per-district cap on GPS jitter, aligned with
            ``districts``.  Empty means the legacy ``0.8 * radius_km``
            cap; :class:`MobilityModel` fills it with the Voronoi-safe
            radius so a sampled fix always reverse-geocodes back to the
            district it was sampled in.
        cum_weights: Running sums of ``weights``, computed once so each
            draw skips the accumulation :func:`random.choices` would
            redo per call (same list, same single ``random()`` draw).
        caps_km: Per-district GPS-jitter cap actually applied:
            ``sample_radii_km`` when set, else ``0.8 * radius_km``.
    """

    home: District
    archetype: MobilityClass
    districts: tuple[District, ...]
    weights: tuple[float, ...]
    sample_radii_km: tuple[float, ...] = ()
    cum_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)
    caps_km: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.districts) != len(self.weights):
            raise ConfigurationError("districts and weights must align")
        if not self.districts:
            raise ConfigurationError("mobility profile needs at least one district")
        if self.sample_radii_km and len(self.sample_radii_km) != len(self.districts):
            raise ConfigurationError("sample_radii_km must align with districts")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ConfigurationError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "cum_weights", tuple(accumulate(self.weights)))
        object.__setattr__(
            self,
            "caps_km",
            self.sample_radii_km or tuple(d.radius_km * 0.8 for d in self.districts),
        )

    @property
    def home_weight(self) -> float:
        """Probability mass the user puts on their home district."""
        home_key = self.home.key()
        return sum(w for d, w in zip(self.districts, self.weights) if d.key() == home_key)

    def draw(self, rng: random.Random) -> tuple[int, float, float]:
        """Draw one tweet's location: ``(district index, bearing, distance)``.

        The district is drawn by weight; the radial draw is capped at the
        district's entry in ``caps_km``.  The model-supplied cap
        (``sample_radii_km``) never crosses the Voronoi boundary to the
        nearest other centroid, so the fix is guaranteed to
        reverse-geocode to the district it was sampled in — without it, a
        fix drawn near the edge of a district whose neighbour's centroid
        is closer than its own would flip districts and break the
        generator's ground truth (seen with Dobong-gu fixes resolving to
        the adjacent Nowon-gu).

        Only the draws are made here; :meth:`fix` turns them into a point,
        so a caller that discards the point skips the trig.
        """
        index = weighted_index(rng, self.cum_weights)
        # rng.uniform(0.0, 360.0), draw for draw: uniform(a, b) is
        # a + (b - a) * random(), and 0.0 + x == x for the x >= 0 here.
        bearing = 360.0 * rng.random()
        # sqrt for an area-uniform radial draw inside the disc.
        distance = self.caps_km[index] * math.sqrt(rng.random())
        return index, bearing, distance

    def fix(self, index: int, bearing_deg: float, distance_km: float) -> GeoPoint:
        """The GPS fix :meth:`draw`'s ``(index, bearing, distance)`` names."""
        return self.districts[index].center.destination(bearing_deg, distance_km)


class MobilityModel:
    """Builds :class:`MobilityProfile` instances per archetype.

    Args:
        gazetteer: District catalogue to roam over.
        nearby_radius_km: How far "everyday" secondary districts may be
            from home (work, shopping, friends).
        travel_radius_km: How far occasional trips reach.
    """

    def __init__(
        self,
        gazetteer: Gazetteer,
        nearby_radius_km: float = 45.0,
        travel_radius_km: float = 500.0,
    ):
        self._gazetteer = gazetteer
        self._nearby_radius_km = nearby_radius_km
        self._travel_radius_km = travel_radius_km
        self._safe_radius_cache: dict[tuple[str, str], float] = {}
        # Neighbourhood queries repeat across users sharing a home; the
        # catalogue is fixed, so each (district, radius) is searched once.
        self._within_cache: dict[tuple[tuple[str, str], float], tuple[District, ...]] = {}

    # ---------------------------------------------------------------- public
    def build_profile(
        self, home: District, archetype: MobilityClass, rng: random.Random
    ) -> MobilityProfile:
        """Build the tweeting distribution for ``home`` and ``archetype``."""
        builders = {
            MobilityClass.HOME_ANCHORED: self._home_anchored,
            MobilityClass.COMMUTER: self._commuter,
            MobilityClass.WANDERER: self._wanderer,
            MobilityClass.RELOCATED: self._relocated,
            MobilityClass.FIXED_ELSEWHERE: self._fixed_elsewhere,
        }
        districts, weights = builders[archetype](home, rng)
        total = sum(weights)
        normalized = tuple(w / total for w in weights)
        return MobilityProfile(
            home=home,
            archetype=archetype,
            districts=tuple(districts),
            weights=normalized,
            sample_radii_km=tuple(self._safe_radius_km(d) for d in districts),
        )

    def _safe_radius_km(self, district: District) -> float:
        """GPS-jitter cap that keeps fixes on ``district``'s side of the
        Voronoi boundary.

        Nearest-centroid reverse geocoding assigns a point to whichever
        centroid is closest, so any fix within half the distance to the
        nearest *other* centroid provably resolves back to ``district``.
        The cap is the smaller of that bound (with a float-safety margin)
        and the legacy ``0.8 * radius_km``; isolated districts (nothing
        within 200 km) keep the legacy cap, which cannot flip either.
        """
        key = district.key()
        cached = self._safe_radius_cache.get(key)
        if cached is not None:
            return cached
        cap = district.radius_km * 0.8
        for neighbour in self._within(district, 200.0):
            if neighbour.key() == key:
                continue
            gap = neighbour.center.distance_km(district.center)
            cap = min(cap, gap * 0.49)
            break  # within() is sorted by distance: first other is nearest
        self._safe_radius_cache[key] = cap
        return cap

    # ----------------------------------------------------------- archetypes
    def _home_anchored(
        self, home: District, rng: random.Random
    ) -> tuple[list[District], list[float]]:
        """Home takes most of the mass; a few nearby spots share the rest."""
        extra_count = rng.randint(1, 4)
        extras = self._pick_nearby(home, extra_count, rng)
        home_w = rng.uniform(0.55, 0.85)
        extra_ws = self._decaying_weights(len(extras), 1.0 - home_w, rng)
        return [home, *extras], [home_w, *extra_ws]

    def _commuter(
        self, home: District, rng: random.Random
    ) -> tuple[list[District], list[float]]:
        """Workplace dominates; home is the clear runner-up."""
        work_pool = self._pick_nearby(home, 4, rng)
        if not work_pool:
            # Isolated home (e.g. Jeju with a tiny gazetteer): degrade to
            # home-anchored rather than fabricate an impossible commute.
            return self._home_anchored(home, rng)
        work = work_pool[0]
        others = self._pick_nearby(home, rng.randint(0, 3), rng, exclude={work.key()})
        work_w = rng.uniform(0.40, 0.55)
        home_w = rng.uniform(0.22, 0.36)
        if len(work_pool) >= 2 and rng.random() < 0.35:
            # A second regular anchor (gym, partner's place) that can
            # outrank home, pushing the matched string to rank 3.
            second = work_pool[1]
            second_w = home_w * rng.uniform(0.8, 1.3)
            others = [second, *[d for d in others if d.key() != second.key()]]
            rest = self._decaying_weights(len(others) - 1, 0.08, rng)
            return [work, home, *others], [work_w, home_w, second_w, *rest]
        other_ws = self._decaying_weights(len(others), 1.0 - work_w - home_w, rng)
        return [work, home, *others], [work_w, home_w, *other_ws]

    def _wanderer(
        self, home: District, rng: random.Random
    ) -> tuple[list[District], list[float]]:
        """High mobility in a wide range; home is just one stop of many."""
        count = rng.randint(3, 8)
        spots = self._pick_anywhere(home, count, rng)
        districts = [home, *spots]
        # Zipf-ish weights over a shuffled order so home's rank is random.
        rng.shuffle(districts)
        weights = [1.0 / (rank + 1) ** rng.uniform(0.6, 1.1) for rank in range(len(districts))]
        return districts, weights

    def _relocated(
        self, home: District, rng: random.Random
    ) -> tuple[list[District], list[float]]:
        """Profile says hometown; actual life happens somewhere else."""
        residence_pool = self._pick_anywhere(home, 6, rng)
        residence = residence_pool[0] if residence_pool else home
        extra_count = rng.randint(0, 3)
        extras = self._pick_nearby(
            residence, extra_count, rng, exclude={home.key(), residence.key()}
        )
        res_w = rng.uniform(0.55, 0.9)
        extra_ws = self._decaying_weights(len(extras), 1.0 - res_w, rng)
        districts = [residence, *extras]
        weights = [res_w, *extra_ws]
        # Guarantee the None-group property: home never appears.
        keep = [(d, w) for d, w in zip(districts, weights) if d.key() != home.key()]
        if not keep:
            # Degenerate gazetteer with nowhere to relocate to; stay home.
            return [home], [1.0]
        return [d for d, _ in keep], [w for _, w in keep]

    def _fixed_elsewhere(
        self, home: District, rng: random.Random
    ) -> tuple[list[District], list[float]]:
        """Low mobility, but the one fixed spot is not the profile district."""
        pool = self._pick_nearby(home, 4, rng, exclude={home.key()})
        if not pool:
            pool = self._pick_anywhere(home, 2, rng)
        if not pool:
            return [home], [1.0]  # isolated home: nowhere else to be
        spot = pool[0]
        if rng.random() < 0.5 or len(pool) == 1:
            return [spot], [1.0]
        second = pool[1]
        w = rng.uniform(0.7, 0.95)
        return [spot, second], [w, 1.0 - w]

    # ------------------------------------------------------------- internals
    def _within(self, district: District, radius_km: float) -> tuple[District, ...]:
        """``gazetteer.within(district.center, radius_km)``, memoised."""
        key = (district.key(), radius_km)
        found = self._within_cache.get(key)
        if found is None:
            found = tuple(self._gazetteer.within(district.center, radius_km))
            self._within_cache[key] = found
        return found

    def _pick_nearby(
        self,
        anchor: District,
        count: int,
        rng: random.Random,
        exclude: set[tuple[str, str]] | None = None,
    ) -> list[District]:
        """Sample up to ``count`` distinct districts near ``anchor``."""
        excluded = {anchor.key()} | (exclude or set())
        pool = [
            d
            for d in self._within(anchor, self._nearby_radius_km)
            if d.key() not in excluded
        ]
        if not pool:
            return []
        weights = [d.population_weight for d in pool]
        return self._weighted_sample(pool, weights, min(count, len(pool)), rng)

    def _pick_anywhere(
        self, anchor: District, count: int, rng: random.Random
    ) -> list[District]:
        """Sample up to ``count`` distinct districts within travel range.

        Falls back to the whole catalogue for isolated anchors (a world
        city with no neighbour in range — its residents fly).
        """
        pool = [
            d
            for d in self._within(anchor, self._travel_radius_km)
            if d.key() != anchor.key()
        ]
        if not pool:
            pool = [d for d in self._gazetteer.districts if d.key() != anchor.key()]
        if not pool:
            return []
        weights = [d.population_weight for d in pool]
        return self._weighted_sample(pool, weights, min(count, len(pool)), rng)

    @staticmethod
    def _weighted_sample(
        pool: list[District],
        weights: list[float],
        count: int,
        rng: random.Random,
    ) -> list[District]:
        """Weighted sampling without replacement (small pools).

        Raises:
            ConfigurationError: if the weights left in the pool do not sum
                to a positive, finite value.
        """
        chosen: list[District] = []
        pool = list(pool)
        weights = list(weights)
        for _ in range(count):
            cum_weights = list(accumulate(weights))
            if not 0.0 < cum_weights[-1] < math.inf:
                raise ConfigurationError(
                    "travel pool weights must sum to a positive, finite value"
                )
            pick = weighted_index(rng, cum_weights)
            chosen.append(pool.pop(pick))
            weights.pop(pick)
        return chosen

    @staticmethod
    def _decaying_weights(count: int, mass: float, rng: random.Random) -> list[float]:
        """Split ``mass`` across ``count`` slots with geometric decay."""
        if count == 0:
            return []
        raw = [rng.uniform(0.6, 1.0) * (0.55**i) for i in range(count)]
        total = sum(raw)
        return [mass * r / total for r in raw]
