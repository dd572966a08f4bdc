"""The names the benchmark's tracer wraps, and the names its selftest uses,
still resolve in statesel, and the arguments the tracer reads keep their
names and positions.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``TRACED`` table, and its counters read some of their arguments by position
or by name. ``perfbench/selftest.py`` imports and calls statesel directly.
The repository's test run collects neither file, so a rename or reorder in
``src/`` would otherwise only surface as a failed or silently skewed
benchmark. The tracer is loaded by path, the selftest is only parsed, and
nothing under ``perfbench/`` is modified.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SELFTEST = TRACER.with_name("selftest.py")
SRC = TRACER.parents[1] / "src"


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


def _module_key(node) -> str | None:
    """``name`` of a ``sys.modules["name"]`` expression, else None."""
    if (
        isinstance(node, ast.Subscript)
        and ast.unparse(node.value) == "sys.modules"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _statesel_names(tree: ast.AST) -> tuple[set[str], set[str], list[str]]:
    """(the dotted statesel names ``tree`` reads, the statesel modules it
    reads from ``sys.modules``, the statesel modules it imports). A name is
    bound by an import, by a ``sys.modules`` read or by calling a bound class,
    whose instance's attributes are read off the class."""
    bound: dict[str, str] = {}
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "statesel":
                    imported.append(a.name)
                    bound[a.asname or "statesel"] = a.name if a.asname else "statesel"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "statesel":
            imported.append(node.module)
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and not node.attr.startswith("__"):  # not the tracer's __wrapped__
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        if isinstance(node, ast.Call):  # an instance of a class
            func = dotted(node.func)
            return func if func and inspect.isclass(_resolve(func)) else None
        key = _module_key(node)
        return key if key and key.split(".")[0] == "statesel" else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            both = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            for t, v in zip(target.elts, value.elts) if both else [(target, value)]:
                if isinstance(t, ast.Name) and dotted(v):
                    bound[t.id] = dotted(v)
    names = {dotted(n) for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))} - {None}
    names |= set(imported) | set(bound.values())
    loaded = {k for n in ast.walk(tree) if (k := _module_key(n)) and k.split(".")[0] == "statesel"}
    return names, loaded, imported


def _resolve(name: str):
    """The object a dotted name names: its longest importable module prefix,
    then attributes."""
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        module = ".".join(parts[:k])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            assert hasattr(obj, attr), f"{name}: {attr} does not resolve"
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"{name} names no statesel module")


def test_every_statesel_name_the_selftest_uses_resolves():
    """Every statesel name ``perfbench/selftest.py`` imports, calls or reads,
    in its own code or in code it runs from a string, resolves; and each
    statesel module such code reads from ``sys.modules`` is loaded by that
    code's own statesel imports, in a fresh interpreter."""
    tree = ast.parse(SELFTEST.read_text())
    scripts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "statesel" in node.value:
            try:
                scripts.append(ast.parse(node.value))
            except SyntaxError:  # prose, not code
                pass
    assert scripts, "the selftest runs no statesel code from a string"
    names: set[str] = set()
    for t in [tree, *scripts]:
        found, loaded, imported = _statesel_names(t)
        names |= found | loaded
        if loaded:  # in a fresh interpreter, where only this code's imports ran
            missing = f"print(sorted(set({sorted(loaded)}) - set(sys.modules)))"
            code = f"import sys, {', '.join(imported)}\n{missing}"
            env = {**os.environ, "PYTHONPATH": str(SRC)}
            p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
            assert p.returncode == 0 and p.stdout.strip() == "[]", (imported, p.stdout, p.stderr)
    # the parse sees the names the selftest is known to use
    assert {
        "statesel.selection.SubsetEvaluator.evaluate",
        "statesel.benchgen.default_coupled_spec",
        "statesel.benchgen.simulate_synth",
        "statesel.datamodel.SplitSpec",
        "statesel.datamodel.split",
        "statesel.cli",
        "statesel.dmdc",
        "statesel.cost",
        "statesel.dmdc.rollout",
        "statesel.cost.rollout",
        "statesel.rollout",
    } <= names, sorted(names)
    for name in sorted(names):
        _resolve(name)
