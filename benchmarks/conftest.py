"""Shared fixtures for the paper-artefact benchmarks.

Every benchmark here regenerates one of the paper's artefacts (figures,
tables, experiments E1-E14, ablations, related systems) and checks its
shape.  The experiment context (both datasets + both studies) is built
once per session at the default scale.  Rendered artefacts are printed
and written to ``benchmarks/output/``, where they are committed: a run
that changes any of them shows up as a diff.  Timing lives in
``perfbench/``, not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipelines.experiments import ExperimentContext, get_context

_OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """The shared default-scale experiment context."""
    return get_context("default")


@pytest.fixture(scope="session")
def artefact_sink():
    """Callable that records a rendered artefact: print + file."""
    _OUTPUT_DIR.mkdir(exist_ok=True)

    def record(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (_OUTPUT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return record
