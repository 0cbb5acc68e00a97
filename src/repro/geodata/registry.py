"""The gazetteer every dataset build hands to the layers downstream.

One :class:`~repro.geo.gazetteer.Gazetteer` per builtin catalogue and
process: the catalogue is immutable, so every dataset build, study and
server in a process shares the instance built on first use.
"""

from __future__ import annotations

from functools import cache

from repro.geo.gazetteer import Gazetteer
from repro.geodata.prepare import builtin_catalogue


@cache
def dataset_gazetteer(catalogue: str) -> Gazetteer:
    """The gazetteer dataset builds use for builtin ``catalogue``.

    ``catalogue`` is a builtin name (``korean`` / ``world`` /
    ``combined``); the instance is built once per process.

    Raises:
        StorageError: for a name that is not a builtin catalogue.
    """
    districts, grid_deg = builtin_catalogue(catalogue)
    return Gazetteer(districts, grid_deg=grid_deg)
