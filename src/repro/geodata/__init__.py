"""Offline gazetteer data pipeline: the ``RGAZ1`` artifact and its decoder.

``repro geodata prepare`` compiles districts (+ optional boundary
polygons, normalised by per-country admin remap hooks) into a versioned
``RGAZ1`` artifact; :func:`read_gazetteer_artifact` decodes one back into
an in-memory :class:`~repro.geo.gazetteer.Gazetteer`, and
:func:`dataset_gazetteer` builds the builtin catalogue each dataset uses.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "artifact": (
        "GAZETTEER_FORMAT", "GAZETTEER_FORMAT_VERSION", "gazetteer_artifact_info",
        "open_gazetteer_artifact", "read_gazetteer_artifact",
        "write_gazetteer_artifact",
    ),
    "prepare": (
        "AdminRemapHook", "admin_remaps", "apply_admin_remaps", "builtin_catalogue",
        "korea_metro_gu_split", "load_districts_jsonl", "load_polygons_json",
        "prepare_artifact", "register_admin_remap",
    ),
    "registry": ("dataset_gazetteer",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
