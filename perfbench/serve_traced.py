"""Run `repro serve` with the layer wrappers installed.

Usage: ``python perfbench/serve_traced.py <trace-out.json> serve ...``

Installs :func:`tracing.install` in this process, hands the remaining
arguments to ``repro.cli.main``, and when the server returns (SIGINT)
writes the wrappers' totals to ``<trace-out.json>``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    require_program()
    from repro.cli import main as repro_main

    tracer = install(Tracer())
    try:
        code = repro_main(cli_args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.totals()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
