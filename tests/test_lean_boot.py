"""Import hygiene: every module imports on its own, and the boot paths
load only what they use.

Package ``__init__``s resolve their public names lazily and each CLI
command imports its own modules (DESIGN.md, "The import rule").  These
tests run in fresh interpreters, so what they see is what a cold
``repro`` process loads — counts of modules, not timings.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules neither the ``korean_e2e`` set-up probe nor ``repro serve``
#: may load: numpy, and the study, stream, fleet and event layers.
HEAVY = (
    "numpy",
    "repro.events",
    "repro.pipelines",
    "repro.fleet",
    "repro.live",
    "repro.streaming",
    "repro.engine.engine",
    "repro.datasets.korean",
    "repro.twitter.tweetgen",
)


def _module_names() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def _run(script: str, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_CLEAN_IMPORTS = """
import importlib, json, sys, traceback
failures = {}
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps(failures))
"""


def test_every_module_imports_alone_from_a_clean_start():
    """No module depends on another having been imported first: each is
    imported with every ``repro`` module dropped from ``sys.modules``."""
    names = _module_names()
    assert "repro.cli" in names and "repro.geodata.artifact" in names
    assert _run(_CLEAN_IMPORTS, *names) == {}


_BOOT_PATHS = """
import json, sys
heavy = sys.argv[1].split(",")
def loaded():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in heavy))
steps = {}
import repro.cli
steps["import repro.cli"] = loaded()
from repro.geodata.registry import dataset_gazetteer
dataset_gazetteer("korean")
steps["open the korean gazetteer"] = loaded()
code = repro.cli.main(["serve", "--snapshot", sys.argv[2], "--port", "0"])
steps["serve a missing snapshot"] = loaded()
print(json.dumps({"code": code, "steps": steps,
                  "serving": "repro.serving.state" in sys.modules}))
"""


def test_boot_paths_load_no_heavy_module(tmp_path):
    """``import repro.cli``, the set-up probe's gazetteer open, and a
    ``repro serve`` boot each leave every :data:`HEAVY` module unloaded."""
    missing = tmp_path / "absent.json"
    outcome = _run(_BOOT_PATHS, ",".join(HEAVY), str(missing))
    assert outcome["code"] == 3  # the serve path ran as far as snapshot load
    assert outcome["serving"]
    assert outcome["steps"] == {
        "import repro.cli": [],
        "open the korean gazetteer": [],
        "serve a missing snapshot": [],
    }


#: Process-pool machinery: the study runs in one process (DESIGN.md §11).
PROCESS_POOL = ("multiprocessing", "concurrent.futures.process")

_STUDY_PATH = """
import json, sys
import repro.analysis.correlation, repro.engine.engine
print(json.dumps(sorted(m for m in sys.argv[1:] if m in sys.modules)))
"""


def test_study_path_loads_no_process_pool():
    """Importing the study entry point and the engine loads neither
    :data:`PROCESS_POOL` module."""
    assert _run(_STUDY_PATH, *PROCESS_POOL) == []


PACKAGES = sorted(
    name for name in _module_names()
    if (SRC / name.replace(".", "/") / "__init__.py").is_file()
)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_attribute_raises_and_imports_nothing(package_name):
    """``getattr(package, name, None)`` on a name a package does not
    export is ``None`` and loads no module (external tracers probe every
    loaded module this way)."""
    package = importlib.import_module(package_name)
    before = set(sys.modules)
    assert getattr(package, "no_such_export", None) is None
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export  # noqa: B018
    assert set(sys.modules) == before
