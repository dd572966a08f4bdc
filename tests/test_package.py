"""The package's exports resolve on first use and behave as eager imports:
every name in ``__all__`` is the object its module defines, even where a
submodule shares the name of the function it exports (``cost``,
``prefilter``), and ``import statesel`` alone loads no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import statesel
import statesel.cost
import statesel.prefilter

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(script: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_export_is_the_object_its_module_defines():
    assert len(statesel.__all__) == len(set(statesel.__all__)) == 43
    for name in statesel.__all__:
        obj = getattr(statesel, name)
        assert obj.__module__.startswith("statesel."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    # the submodules are loaded, and the package names keep the functions
    assert statesel.cost is sys.modules["statesel.cost"].cost
    assert statesel.prefilter is sys.modules["statesel.prefilter"].prefilter


def test_dir_lists_every_export():
    assert set(statesel.__all__) <= set(dir(statesel))
    assert "__version__" in dir(statesel)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        statesel.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from statesel import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from statesel import *", namespace)
    assert {name: namespace[name] for name in statesel.__all__} == {
        name: getattr(statesel, name) for name in statesel.__all__
    }


def test_import_loads_no_submodule_and_a_name_only_its_module():
    fresh(
        "import sys\n"
        "import statesel\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('statesel.'))\n"
        "assert not loaded(), loaded()\n"
        "statesel.PrefilterConfig\n"
        "assert loaded() == ['statesel.datamodel', 'statesel.errors', 'statesel.prefilter'], loaded()\n"
        "from statesel import cost\n"
        "assert cost is sys.modules['statesel.cost'].cost\n"
    )
