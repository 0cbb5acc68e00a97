"""Persistence of study results.

The collection phase of the original study ran for weeks; the analysis
phase should never have to repeat it.  This module serialises everything
downstream consumers need — the per-user groupings, per-group statistics,
funnel, and profile districts — to a single JSON document and restores it
without re-running refinement or geocoding.

The merged strings are stored in the paper's own ``record (count)`` text
form, so a saved study doubles as a human-readable Table II dump.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.analysis.interner import StringInterner, study_interner
from repro.analysis.result import RefinementFunnel, StudyResult
from repro.errors import ConfigurationError, ReproError, StorageError
from repro.geo.gazetteer import Gazetteer
from repro.grouping.merge import MergedString
from repro.grouping.strings import LocationString
from repro.grouping.stats import compute_group_statistics
from repro.grouping.topk import classify_rows
from repro.twitter.models import GeotaggedObservation
from repro.yahooapi.client import ClientStats

#: Current document version.  Version 2 added the ``interner`` key — the
#: canonical string-id table of :func:`~repro.analysis.interner
#: .study_interner` — so the table is versioned into the document (and
#: therefore into :func:`study_digest`).
_FORMAT_VERSION = 2

#: Versions :func:`load_study` accepts.  Version-1 documents predate the
#: interner table; the table is derivable from the observations, so they
#: load unchanged.
_SUPPORTED_VERSIONS = frozenset({1, 2})


def _merged_to_text(merged: tuple[MergedString, ...]) -> list[str]:
    return [row.render() for row in merged]


def _merged_from_text(rows: list[str]) -> list[MergedString]:
    parsed = []
    for row in rows:
        record_text, _, count_text = row.rpartition(" (")
        if not record_text or not count_text.endswith(")"):
            raise StorageError(f"malformed merged-string row: {row!r}")
        parsed.append(
            MergedString(
                record=LocationString.parse(record_text),
                count=int(count_text[:-1]),
            )
        )
    return parsed


def study_to_json(study: StudyResult) -> str:
    """The canonical JSON document for a study result.

    This is the exact text :func:`save_study` writes.  It is also the
    equivalence currency of the streaming subsystem: two studies are
    *byte-identical* iff their ``study_to_json`` strings are equal, which
    is how ``tests/streaming/test_stream_equivalence.py`` compares an
    end-of-stream snapshot against the batch pipeline.
    """
    document: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "dataset_name": study.dataset_name,
        "funnel": study.funnel.as_dict(),
        "observations": [
            {
                "user_id": o.user_id,
                "ps": o.profile_state,
                "pc": o.profile_county,
                "ts": o.tweet_state,
                "tc": o.tweet_county,
                "t": o.timestamp_ms,
            }
            for o in study.observations
        ],
        "merged": {
            str(user_id): _merged_to_text(grouping.merged)
            for user_id, grouping in study.groupings.items()
        },
        "profile_districts": {
            str(user_id): list(district.key())
            for user_id, district in study.profile_districts.items()
        },
        "api_stats": study.api_stats.snapshot(),
        "interner": study_interner(
            study.observations, study.profile_districts
        ).to_lines(),
    }
    return json.dumps(document, ensure_ascii=False, indent=1)


def study_digest(study: StudyResult) -> str:
    """Content digest of the canonical JSON document (SHA-256 hex).

    This is the serving layer's snapshot-version contract: a
    :class:`~repro.serving.state.ServingSnapshot` is versioned by the
    digest of the study it was loaded from, so two snapshots built from
    equal studies — whether loaded from the same file twice, saved by a
    batch run, or streamed to the same end state — carry the *same*
    version tag, and a hot-swap between them is observationally a no-op.
    """
    return hashlib.sha256(study_to_json(study).encode("utf-8")).hexdigest()


def save_study(study: StudyResult, path: str | Path) -> None:
    """Write a study result to ``path`` as JSON (see :func:`study_to_json`)."""
    Path(path).write_text(study_to_json(study), encoding="utf-8")


def load_study(path: str | Path, gazetteer: Gazetteer) -> StudyResult:
    """Restore a study result saved by :func:`save_study`.

    Groupings and statistics are *recomputed* from the stored merged
    strings rather than trusted from disk, so a loaded study can never
    disagree with its own observations.  A version-2 document's stored
    interner table is checked against the table the observations derive
    to, so a document whose table was edited out from under its rows is
    rejected rather than silently re-interned.

    Args:
        path: The JSON document.
        gazetteer: Catalogue to resolve stored profile-district keys
            against (must contain every stored key).

    Raises:
        StorageError: on an unreadable file, a version mismatch, or
            malformed content — never a bare parsing exception.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read study from {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise StorageError(
            f"{path} is not a study document (top level is a "
            f"{type(document).__name__}, not an object)"
        )
    version = document.get("format_version")
    if not isinstance(version, int) or version not in _SUPPORTED_VERSIONS:
        raise StorageError(f"unsupported study format version: {version!r}")
    try:
        return _study_from_document(document, gazetteer, path)
    except StorageError:
        raise
    except (ReproError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise StorageError(
            f"malformed study document {path}: {type(exc).__name__}: {exc}"
        ) from exc


def _study_from_document(
    document: dict[str, Any], gazetteer: Gazetteer, path: str | Path
) -> StudyResult:
    """Build the :class:`StudyResult` a parsed, version-checked document holds."""
    observations = [
        GeotaggedObservation(
            user_id=int(o["user_id"]),
            profile_state=o["ps"],
            profile_county=o["pc"],
            tweet_state=o["ts"],
            tweet_county=o["tc"],
            timestamp_ms=int(o.get("t", 0)),
        )
        for o in document["observations"]
    ]

    groupings = {}
    for user_text, rows in document["merged"].items():
        user_id = int(user_text)
        groupings[user_id] = classify_rows(user_id, _merged_from_text(rows))

    profile_districts = {}
    for user_text, (state, county) in document["profile_districts"].items():
        profile_districts[int(user_text)] = gazetteer.get(state, county)

    if "interner" in document:
        try:
            stored = StringInterner.from_lines(document["interner"])
        except ConfigurationError as exc:
            raise StorageError(f"malformed interner table in {path}: {exc}") from exc
        if stored != study_interner(observations, profile_districts):
            raise StorageError(
                f"interner table in {path} does not match the study content"
            )

    funnel_data = dict(document["funnel"])
    status_counts = funnel_data.pop("profile_status_counts", {})
    funnel = RefinementFunnel(**funnel_data)
    funnel.profile_status_counts.update(status_counts)

    stats_data = document.get("api_stats", {})
    api_stats = ClientStats(
        requests=int(stats_data.get("requests", 0)),
        cache_hits=int(stats_data.get("cache_hits", 0)),
        failures_injected=int(stats_data.get("failures_injected", 0)),
        no_result=int(stats_data.get("no_result", 0)),
        retries=int(stats_data.get("retries", 0)),
        retry_exhausted=int(stats_data.get("retry_exhausted", 0)),
        simulated_latency_s=float(stats_data.get("simulated_latency_s", 0.0)),
    )

    return StudyResult(
        dataset_name=document["dataset_name"],
        funnel=funnel,
        observations=observations,
        groupings=groupings,
        statistics=compute_group_statistics(groupings.values()),
        profile_districts=profile_districts,
        api_stats=api_stats,
    )
