"""Synthetic user population generation.

Builds the user base the crawler later walks: every user gets a home
district (drawn by population weight), a mobility archetype, a profile
style (how — and how badly — they filled in the free-text location field,
mirroring the paper's Fig. 3 menagerie), and device/tweeting parameters.

Mixture weights are configurable; the defaults are calibrated so the
refined study population lands near the paper's headline shape (~half of
users in Top-1/Top-2, ~30 % in None) — EXPERIMENTS.md documents the
calibration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import ConfigurationError
from repro.geo.gazetteer import Gazetteer
from repro.geo.region import District, DistrictKind
from repro.twitter.draws import weighted_index
from repro.twitter.mobility import MobilityModel, MobilityProfile
from repro.twitter.models import MobilityClass, ProfileStyle, TwitterUser

#: Default mixture over mobility archetypes (Korean dataset calibration).
DEFAULT_MOBILITY_MIX: dict[MobilityClass, float] = {
    MobilityClass.HOME_ANCHORED: 0.43,
    MobilityClass.COMMUTER: 0.21,
    MobilityClass.WANDERER: 0.10,
    MobilityClass.RELOCATED: 0.15,
    MobilityClass.FIXED_ELSEWHERE: 0.11,
}

#: Default mixture over profile styles.  Only DISTRICT (and the occasional
#: resolvable COORDINATES field) survives the paper's refinement, which is
#: why "we had to remove many users from our data collection".
DEFAULT_PROFILE_STYLE_MIX: dict[ProfileStyle, float] = {
    ProfileStyle.DISTRICT: 0.34,
    ProfileStyle.CITY_ONLY: 0.22,
    ProfileStyle.COUNTRY_ONLY: 0.08,
    ProfileStyle.VAGUE: 0.12,
    ProfileStyle.COORDINATES: 0.02,
    ProfileStyle.MULTI: 0.04,
    ProfileStyle.GARBAGE: 0.08,
    ProfileStyle.EMPTY: 0.10,
}

_SCREEN_NAME_HEADS = (
    "happy", "lucky", "sunny", "coffee", "night", "blue", "star", "cloud",
    "tiger", "rabbit", "daily", "lovely", "cool", "real", "little", "big",
)
_SCREEN_NAME_TAILS = (
    "cat", "dev", "girl", "boy", "day", "story", "note", "talk", "walker",
    "dreamer", "maker", "rider", "fan", "holic", "mind", "seoulite",
)

_VAGUE_CHOICES = (
    "my home", "Earth", "somewhere", "in my bed", "the internet", "우리집",
    "지구", "everywhere", "wonderland", "darangland :)", "Heaven", "my heart",
)
_GARBAGE_CHOICES = (
    "~*~*~", "♥♥♥", "ask me", "behind you", "s2n4x", "missing...",
    "between dreams", "404 not found", "loading...", "???",
)


@dataclass(frozen=True, slots=True)
class PopulationConfig:
    """Configuration for a synthetic population.

    Attributes:
        size: Number of users to generate.
        seed: Master seed; the whole population is deterministic in it.
        smartphone_rate: Fraction of users able to attach GPS.
        gps_attach_range: (low, high) per-user probability that a
            smartphone tweet carries GPS.  The paper found GPS tweets
            scarce (~0.2 % of the Korean corpus), so the default keeps
            attach rates low.
        mobility_mix: Mixture over mobility archetypes.
        profile_style_mix: Mixture over profile styles.
        id_offset: First user id (lets two datasets avoid id collisions).
    """

    size: int
    seed: int = 7
    smartphone_rate: float = 0.55
    gps_attach_range: tuple[float, float] = (0.02, 0.30)
    mobility_mix: dict[MobilityClass, float] = field(
        default_factory=lambda: dict(DEFAULT_MOBILITY_MIX)
    )
    profile_style_mix: dict[ProfileStyle, float] = field(
        default_factory=lambda: dict(DEFAULT_PROFILE_STYLE_MIX)
    )
    id_offset: int = 1_000

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(f"population size must be positive, got {self.size}")
        if not 0.0 <= self.smartphone_rate <= 1.0:
            raise ConfigurationError("smartphone_rate must be in [0, 1]")
        low, high = self.gps_attach_range
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigurationError("gps_attach_range must satisfy 0 <= low <= high <= 1")
        for name, mix in (("mobility_mix", self.mobility_mix),
                          ("profile_style_mix", self.profile_style_mix)):
            if not all(0.0 <= w < math.inf for w in mix.values()):
                raise ConfigurationError(f"{name} weights must be finite and non-negative")
            if not 0.0 < sum(mix.values()) < math.inf:
                raise ConfigurationError(
                    f"{name} weights must sum to a positive, finite value"
                )


@dataclass(frozen=True, slots=True)
class SyntheticUser:
    """A generated user bundled with its ground-truth generator state."""

    user: TwitterUser
    mobility_profile: MobilityProfile
    gps_attach_prob: float
    tweets_per_day: float


class ProfileTextRenderer:
    """Renders the free-text profile-location field for a (district, style)."""

    def render(self, home: District, style: ProfileStyle, rng: random.Random) -> str:
        """Produce the raw field text a user with this style would type."""
        if style is ProfileStyle.EMPTY:
            return ""
        if style is ProfileStyle.VAGUE:
            return rng.choice(_VAGUE_CHOICES)
        if style is ProfileStyle.GARBAGE:
            return rng.choice(_GARBAGE_CHOICES)
        if style is ProfileStyle.COUNTRY_ONLY:
            if home.country == "South Korea":
                return rng.choice(("Korea", "South Korea", "대한민국", "Republic of Korea"))
            return home.country
        if style is ProfileStyle.CITY_ONLY:
            if home.kind is DistrictKind.WORLD_CITY:
                # For world users the city itself is the grouping unit, so the
                # insufficient variant is the bare country.
                return home.country
            return home.state
        if style is ProfileStyle.COORDINATES:
            jitter_lat = home.center.lat + rng.uniform(-0.01, 0.01)
            jitter_lon = home.center.lon + rng.uniform(-0.01, 0.01)
            return f"{jitter_lat:.4f},{jitter_lon:.4f}"
        if style is ProfileStyle.MULTI:
            other = rng.choice(("Gold Coast Australia", "NYC", "Tokyo", "Paris", "London"))
            return f"{self._district_text(home, rng)} / {other}"
        return self._district_text(home, rng)

    @staticmethod
    def _district_text(home: District, rng: random.Random) -> str:
        """A well-formed district mention, in one of the shapes of Fig. 3."""
        if home.kind is DistrictKind.WORLD_CITY:
            variants = (
                home.name,
                f"{home.name}, {home.state}",
                f"{home.name}, {home.country}",
                home.name.lower(),
            )
        else:
            variants = (
                f"{home.name}, {home.state}",
                f"{home.state} {home.name}",
                home.name,
                f"{home.name.lower()}, {home.state.lower()}",
            )
        return rng.choice(variants)


class PopulationGenerator:
    """Generates a deterministic synthetic user population.

    Args:
        gazetteer: Districts users live in and roam over.
        config: Population parameters.
    """

    #: Account-creation window: 2009-01-01 .. 2011-06-30 (unix ms).
    _CREATED_AT_RANGE_MS = (1_230_768_000_000, 1_309_392_000_000)

    def __init__(self, gazetteer: Gazetteer, config: PopulationConfig):
        self._gazetteer = gazetteer
        self._config = config
        self._mobility_model = MobilityModel(gazetteer)
        self._renderer = ProfileTextRenderer()

    def generate(self) -> list[SyntheticUser]:
        """Generate the full population (deterministic in the seed)."""
        rng = random.Random(self._config.seed)
        districts = list(self._gazetteer.districts)
        district_cum = list(accumulate(d.population_weight for d in districts))
        if not 0.0 < district_cum[-1] < math.inf:
            raise ConfigurationError(
                "district population weights must sum to a positive, finite value"
            )
        mobility_classes = list(self._config.mobility_mix)
        mobility_cum = list(accumulate(self._config.mobility_mix.values()))
        styles = list(self._config.profile_style_mix)
        style_cum = list(accumulate(self._config.profile_style_mix.values()))

        users: list[SyntheticUser] = []
        for index in range(self._config.size):
            home = districts[weighted_index(rng, district_cum)]
            archetype = mobility_classes[weighted_index(rng, mobility_cum)]
            style = styles[weighted_index(rng, style_cum)]
            profile = self._mobility_model.build_profile(home, archetype, rng)

            has_smartphone = rng.random() < self._config.smartphone_rate
            low, high = self._config.gps_attach_range
            gps_attach_prob = rng.uniform(low, high) if has_smartphone else 0.0
            # Heavy-tailed activity: most users tweet a little, a few a lot.
            tweets_per_day = min(40.0, rng.lognormvariate(0.2, 1.0))

            user = TwitterUser(
                user_id=self._config.id_offset + index,
                screen_name=self._screen_name(index, rng),
                profile_location=self._renderer.render(home, style, rng),
                created_at_ms=rng.randint(*self._CREATED_AT_RANGE_MS),
                has_smartphone=has_smartphone,
                home_state=home.state,
                home_county=home.name,
                mobility=archetype,
                profile_style=style,
            )
            users.append(
                SyntheticUser(
                    user=user,
                    mobility_profile=profile,
                    gps_attach_prob=gps_attach_prob,
                    tweets_per_day=tweets_per_day,
                )
            )
        return users

    @staticmethod
    def _screen_name(index: int, rng: random.Random) -> str:
        head = rng.choice(_SCREEN_NAME_HEADS)
        tail = rng.choice(_SCREEN_NAME_TAILS)
        return f"{head}_{tail}{index}"
