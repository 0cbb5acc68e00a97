"""Shared geodata fixtures: prepared artifacts for the builtin catalogues."""

from __future__ import annotations

import pytest

from repro.geo.gazetteer import BUILTIN_GRID_DEG, Gazetteer
from repro.geodata.artifact import read_gazetteer_artifact
from repro.geodata.prepare import prepare_artifact


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory):
    """One artifact per builtin catalogue, compiled once per session."""
    directory = tmp_path_factory.mktemp("rgaz")
    for catalogue in BUILTIN_GRID_DEG:
        prepare_artifact(directory / f"{catalogue}.rgaz", catalogue=catalogue)
    return directory


@pytest.fixture(scope="session")
def decoded(artifact_dir) -> dict[str, Gazetteer]:
    """Each builtin catalogue decoded back out of its artifact."""
    return {
        catalogue: read_gazetteer_artifact(artifact_dir / f"{catalogue}.rgaz")
        for catalogue in BUILTIN_GRID_DEG
    }
