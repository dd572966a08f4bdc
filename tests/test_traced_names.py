"""The names the benchmark's tracer wraps still resolve in statesel, and the
arguments it reads keep their names and positions.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``TRACED`` table, and its counters read some of their arguments by position
or by name. A rename or reorder in ``src/`` would otherwise only surface as a
failed or silently skewed traced benchmark. The tracer is loaded by path and
nothing under ``perfbench/`` is modified.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


# (module, attribute, parameter, position) of each argument the tracer's
# counters read as ``arg(position, name)``; a method's position counts ``self``
READ_ARGUMENTS = (
    ("statesel.dmdc", "rollout", "V", 2),
    ("statesel.selection", "evaluate_subsets", "subsets", 0),
    ("statesel.selection", "evaluate_subsets", "workers", 2),
    ("statesel.selection", "run_restarts", "n_restarts", 1),
    ("statesel.selection", "run_restarts", "workers", 2),
    ("statesel.selection", "SubsetEvaluator.fit", "subset", 1),
)


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


def test_read_arguments_keep_their_names_and_positions():
    read = set(re.findall(r'arg\((\d+), "(\w+)"', TRACER.read_text()))
    assert read == {(str(pos), name) for _, _, name, pos in READ_ARGUMENTS}
    for module, attr, name, pos in READ_ARGUMENTS:
        fn = importlib.import_module(module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params].index(name) == pos, (module, attr, name)
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (module, attr, name)
