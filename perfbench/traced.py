"""Run one ``statesel`` command in this process with the tracer installed.

Usage: ``python3 perfbench/traced.py TRACE_JSON STATESEL_ARGS...`` with the
checkout's ``src`` on ``PYTHONPATH``. Writes the per-layer metrics and the
aggregated spans to ``TRACE_JSON`` and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer


def main(argv: list[str]) -> int:
    import statesel.cli

    spans = tracer.Tracer()
    tracer.install(spans)
    code = statesel.cli.main(argv[1:])
    doc = {"exit": code, "metrics": spans.metrics(), "spans": spans.spans()}
    Path(argv[0]).write_text(json.dumps(doc, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
