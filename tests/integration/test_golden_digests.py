"""Golden study digests: a study is a pure function of ``(config, seed)``.

The digests below were recorded from ``repro study`` at the fast flags
(``--population 400 --users 300 --days 10 --seed 13``).  Any change to
population, tweet generation, storage order, geocoding or grouping that
moves a single byte of the study document moves its digest, so a change
meant to be output-neutral (a speed-up, a refactor) must leave these
equal.  Every path that builds a study is held to the same digests: the
staged engine, the end-of-stream accumulator snapshot, and the live delta
builder's cold build.  The CLI-default
Korean study is checked against the digests the repository benchmark
recorded in ``perfbench/digests.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis.incremental import IncrementalStudyAccumulator
from repro.analysis.serialization import study_digest
from repro.live import DeltaSnapshotBuilder
from repro.streaming import FirehoseSource

FAST_FLAGS = ["--population", "400", "--users", "300", "--days", "10", "--seed", "13"]

GOLDEN_FAST = {
    "korean": "ef818e56e3e54b56ec781dd6fd3cbf99ca6fa1135e6eba2183d99d7866a0fe2b",
    "ladygaga": "6a160c9891a1611f7ecd6fef1e38d80be440cedc2b07c105012adaa3a7631002",
}

BENCHMARK_DIGESTS = Path(__file__).resolve().parents[2] / "perfbench" / "digests.json"


def _cli_study_digest(argv: list[str]) -> tuple[int, str]:
    """Seed and study digest of ``repro study *argv``'s dataset and study."""
    args = cli.build_parser().parse_args(["study", *argv])
    _, study, _ = cli._run_engine_study(args)
    return args.seed, study_digest(study)


@pytest.fixture(scope="module", params=sorted(GOLDEN_FAST))
def fast_dataset(request):
    """``(name, dataset)`` built at the fast flags."""
    args = cli.build_parser().parse_args(
        ["study", "--dataset", request.param, *FAST_FLAGS]
    )
    return request.param, cli._build_dataset(args)


def _folded_accumulator(dataset, batch_size=97):
    """An accumulator that folded the whole stream in fixed-size batches."""
    accumulator = IncrementalStudyAccumulator(dataset.gazetteer, dataset.users)
    source = FirehoseSource(dataset.tweets, dataset.users)
    tweets = [tweet for _, tweet in source.iter_from(0)]
    for start in range(0, len(tweets), batch_size):
        accumulator.fold(tweets[start : start + batch_size])
    return accumulator


@pytest.mark.parametrize("dataset", sorted(GOLDEN_FAST))
def test_fast_flag_study_digest(dataset):
    _, digest = _cli_study_digest(["--dataset", dataset, *FAST_FLAGS])
    assert digest == GOLDEN_FAST[dataset]


def test_end_of_stream_snapshot_digest(fast_dataset):
    name, dataset = fast_dataset
    accumulator = _folded_accumulator(dataset)
    assert study_digest(accumulator.snapshot(name)) == GOLDEN_FAST[name]


def test_delta_builder_cold_build_digest(fast_dataset):
    name, dataset = fast_dataset
    builder = DeltaSnapshotBuilder(_folded_accumulator(dataset), dataset_name=name)
    assert builder.build().digest == GOLDEN_FAST[name]


def test_cli_default_korean_matches_benchmark_digest():
    recorded = json.loads(BENCHMARK_DIGESTS.read_text(encoding="utf-8"))
    seed, digest = _cli_study_digest(["--dataset", "korean"])
    assert digest == recorded[str(seed)]
