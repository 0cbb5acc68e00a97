"""Offline gazetteer data pipeline: the ``RGAZ1`` artifact and its decoder.

``repro geodata prepare`` compiles districts (+ optional boundary
polygons, normalised by per-country admin remap hooks) into a versioned
``RGAZ1`` artifact; :func:`read_gazetteer_artifact` decodes one back into
an in-memory :class:`~repro.geo.gazetteer.Gazetteer`, and
:func:`dataset_gazetteer` builds the builtin catalogue each dataset uses.
"""

from repro.geodata.artifact import (
    GAZETTEER_FORMAT,
    GAZETTEER_FORMAT_VERSION,
    gazetteer_artifact_info,
    open_gazetteer_artifact,
    read_gazetteer_artifact,
    write_gazetteer_artifact,
)
from repro.geodata.prepare import (
    AdminRemapHook,
    admin_remaps,
    apply_admin_remaps,
    builtin_catalogue,
    korea_metro_gu_split,
    load_districts_jsonl,
    load_polygons_json,
    prepare_artifact,
    register_admin_remap,
)
from repro.geodata.registry import dataset_gazetteer

__all__ = [
    "GAZETTEER_FORMAT",
    "GAZETTEER_FORMAT_VERSION",
    "AdminRemapHook",
    "admin_remaps",
    "apply_admin_remaps",
    "builtin_catalogue",
    "dataset_gazetteer",
    "gazetteer_artifact_info",
    "korea_metro_gu_split",
    "load_districts_jsonl",
    "load_polygons_json",
    "open_gazetteer_artifact",
    "prepare_artifact",
    "read_gazetteer_artifact",
    "register_admin_remap",
    "write_gazetteer_artifact",
]
