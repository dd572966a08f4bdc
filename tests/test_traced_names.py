"""The names the benchmark's tracer wraps still resolve in statesel.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``TRACED`` table. A rename in ``src/`` would otherwise only surface when the
traced benchmark runs. The tracer is loaded by path and nothing under
``perfbench/`` is modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file beside the tracer
    table = load_traced_table()
    assert table
    for module, attr, span in table:
        owner = importlib.import_module(module)
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            assert inspect.isclass(cls), (module, attr)
            assert callable(vars(cls).get(meth)), f"{module}.{attr} is not defined on {cls_name}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr} does not resolve"
