"""Every JSON document a command reads, mutated: a select config, a model, a
``generate`` spec and a manifest.

A mutation drops a key, replaces a value with one of another JSON type, wraps
the document in a list, or inserts a byte that is not UTF-8. The command that
reads the document then either runs (a reader may accept a value it can
coerce) or exits 1 with a message that names the document and holds no
traceback, and leaves no output behind.
"""

import copy
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesel.cli import main
from statesel.datamodel import SplitSpec, emit, split
from statesel.dmdc import fit_model, save_model

from conftest import default_decoupled_spec, make_lti_dataset

# one value of each JSON type; a value is replaced by those of another type
VALUES = (None, True, 2, -0.5, "x", [], [1], {}, {"x": 1})


def json_type(value) -> str:
    if value is None or isinstance(value, bool):
        return "null" if value is None else "boolean"
    return {int: "number", float: "number", str: "string", list: "array", dict: "object"}[type(value)]


def value_paths(doc, prefix=()):
    """The path of every value under the root of ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc) -> bytes:
    """The bytes of ``doc`` with one mutation."""
    kind = draw(st.sampled_from(["drop", "retype", "wrap", "byte"]))
    if kind == "wrap":
        return json.dumps([doc]).encode()
    if kind == "byte":
        text = json.dumps(doc).encode()  # ASCII, so any byte above 0x7f breaks UTF-8
        where = draw(st.integers(min_value=0, max_value=len(text)))
        return text[:where] + bytes([draw(st.integers(min_value=0x80, max_value=0xFF))]) + text[where:]
    doc = copy.deepcopy(doc)
    paths = list(value_paths(doc))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(at(doc, p[:-1]), dict)]))
        del at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        old = at(doc, path)
        at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([v for v in VALUES if json_type(v) != json_type(old)]))
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A tiny recording, a model fitted on it and a select config for it;
    ``manifest_run.json`` reads the manifest at ``manifest.json``."""
    root = tmp_path_factory.mktemp("mutated")
    ds = make_lti_dataset(np.random.default_rng(3), n_junk=1, steps=64)
    emit(ds, root / "data")
    save_model(fit_model(split(ds, SplitSpec(0.8))[0], [2, 3]), root / "model.json")
    shutil.copy(root / "data" / "manifest.json", root / "manifest.json")
    config = {
        "data": str(root / "data"),
        "manifest": str(root / "data" / "manifest.json"),
        "out": str(root / "out"),
        "method": "both",
        "caps": [2],
        "seed": 1,
        "workers": 1,
        "train_fraction": 0.8,
        "prefilter": {"input_corr_threshold": 0.95, "variance_epsilon": 1e-12, "dedupe_enabled": True},
        "truncation": {"max_condition": 1e9},
        "cost": {"scale_floor": 1e-9},
        "rfe": {"block_fraction": 0.2, "cross_top_k": 2, "search_limit": 24, "weak_import_threshold": 0.2},
        "ga": {
            "population_size": 6,
            "elite_count": 1,
            "crossover_fraction": 0.8,
            "max_generations": 4,
            "stall_generations": 2,
            "stall_tolerance": 1e-6,
            "mutation_rate": 0.3,
            "restarts": 1,
        },
    }
    (root / "run.json").write_text(json.dumps(config))
    (root / "manifest_run.json").write_text(json.dumps({**config, "manifest": str(root / "manifest.json")}))
    spec = asdict(replace(default_decoupled_spec(), duration=5.0))
    (root / "spec.json").write_text(json.dumps({"spec": spec}))
    return root


# document -> (its file, the command that reads it, what the command writes)
COMMANDS = {
    "config": ("run.json", lambda r: ["select", "--config", str(r / "run.json")], "out"),
    "manifest": ("manifest.json", lambda r: ["select", "--config", str(r / "manifest_run.json")], "out"),
    "model": (
        "model.json",
        lambda r: ["predict", "--model", str(r / "model.json"), "--data", str(r / "data"),
                   "--manifest", str(r / "data" / "manifest.json"), "--horizon", "5", "--out", str(r / "t.csv")],
        "t.csv",
    ),
    "spec": ("spec.json", lambda r: ["generate", "synth", "--spec", str(r / "spec.json"), "--out", str(r / "gen")], "gen"),
}


@pytest.mark.parametrize("document", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_document_runs_or_is_named(root, document, data):
    name, argv, written = COMMANDS[document]
    path, output = root / name, root / written
    valid = path.read_bytes()
    path.write_bytes(data.draw(mutated(json.loads(valid)), label="document"))
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv(root))
        if code == 1:
            assert f"{path}" in err.getvalue() and "Traceback" not in err.getvalue(), err.getvalue()
            assert not output.exists()
        else:
            assert code == 0, err.getvalue()
    finally:
        path.write_bytes(valid)
        if output.is_dir():
            shutil.rmtree(output)
        output.unlink(missing_ok=True)
