import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from statesel.benchgen import (
    RlcParams,
    SquareWaveSpec,
    simulate_rlc,
)
from statesel import datamodel
from statesel.cli import RunConfig, main
from statesel.cost import rollout_traces
from statesel.datamodel import ChannelMeta, SplitSpec, TimeSeriesDataset, emit, ingest, load_manifest, split
from statesel.dmdc import StateSpaceModel, fit_model, load_model, rollout, save_model
from statesel.errors import DatasetError
from statesel.prefilter import prefilter

from conftest import default_decoupled_spec, random_stable_discrete, settle, simulate_discrete


SRC = Path(__file__).resolve().parents[1] / "src"


def small_synth_spec_doc():
    spec = default_decoupled_spec()
    doc = asdict(spec)
    doc["duration"] = 120.0
    return {"spec": doc}


def assert_same_files(a: Path, b: Path):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def write_small_rlc(out_dir: Path):
    """Short RLC variant so CLI runs stay fast."""
    params = RlcParams(duration=1.5)
    exc = (
        SquareWaveSpec(offset=0.0, amplitude=1.0, period=0.005),
        SquareWaveSpec(offset=2.0, amplitude=1.0, period=0.007, phase=0.003),
    )
    ds = simulate_rlc(params, exc)
    emit(ds, out_dir)
    return ds


class TestGenerate:
    def test_rlc_files_and_counts(self, tmp_path):
        out = tmp_path / "data"
        assert main(["generate", "rlc", "--out", str(out)]) == 0
        ds = ingest(out, out / "manifest.json")
        assert len(ds.candidate_indices) == 43
        assert ds.n_realizations == 5
        truth = json.loads((out / "truth.json").read_text())
        assert truth["kind"] == "rlc"

    def test_rerun_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "synth", "--out", str(a), "--seed", "3"])
        main(["generate", "synth", "--out", str(b), "--seed", "3"])
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_refuses_nonempty_without_overwrite(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["generate", "rlc", "--out", str(out)])
        assert main(["generate", "rlc", "--out", str(out)]) == 1
        assert "overwrite" in capsys.readouterr().err
        assert main(["generate", "rlc", "--out", str(out), "--overwrite"]) == 0

    def test_synth_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_synth_spec_doc()))
        out = tmp_path / "data"
        assert main(["generate", "synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        ds = ingest(out, out / "manifest.json")
        assert set(c.subsystem for c in ds.manifest) == {"A", "B"}

    def test_rlc_rejects_seed(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["generate", "rlc", "--seed", "3", "--out", str(out)]) == 1
        assert "no random part" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_errors_name_the_coupling(self, tmp_path, capsys):
        doc = small_synth_spec_doc()
        doc["spec"]["couplings"] = [{"src": "A", "dst": "Z", "K": [[0.1, 0.0], [0.0, 0.1]]}]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["generate", "synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "coupling A -> Z" in err and "unknown subsystem" in err

    @pytest.mark.parametrize(
        "kind, doc, message",
        [
            ("rlc", {"params": {"R": -1}}, "R must be positive"),
            (
                "synth",
                {"spec": {"subsystems": []}, "excitations": [[{"offset": 0.0, "amplitude": 1.0, "period": 1.0}]]},
                "one excitation wave per input",
            ),
        ],
    )
    def test_failing_spec_leaves_no_directory(self, tmp_path, capsys, kind, doc, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "data"
        assert main(["generate", kind, "--spec", str(spec_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rlc", "synth"])
    def test_truth_is_a_complete_spec(self, tmp_path, kind):
        """Feeding ``truth.json`` back as ``--spec`` rebuilds every file."""
        if kind == "rlc":
            waves = [{"offset": 0.0, "amplitude": 1.0, "period": 0.005}, {"offset": 2, "amplitude": 1, "period": 0.007}]
            doc, seed = {"params": {"duration": 0.3}, "excitations": waves}, []
        else:
            doc, seed = small_synth_spec_doc(), ["--seed", "5"]
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["generate", kind, "--spec", str(tmp_path / "spec.json"), "--out", str(first), *seed]) == 0
        assert main(["generate", kind, "--spec", str(first / "truth.json"), "--out", str(again)]) == 0
        assert_same_files(first, again)

    def test_integer_scalars_read_as_floats(self, tmp_path):
        def spec_doc(number):
            doc = asdict(default_decoupled_spec())
            doc.update(dt=number(1), duration=number(60), noise_level=number(1))
            for s in doc["subsystems"]:
                s["output_gain"] = number(2)
                for e in s["extras"]:
                    e["scale"] = number(3)
            return doc

        for number in (float, int):
            spec_path = tmp_path / f"{number.__name__}.json"
            spec_path.write_text(json.dumps(spec_doc(number)))
            out = tmp_path / number.__name__
            assert main(["generate", "synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert_same_files(tmp_path / "float", tmp_path / "int")


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Generated small synth dataset plus a select run over it."""
    root = tmp_path_factory.mktemp("cli_synth")
    data = root / "data"
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(small_synth_spec_doc()))
    main(["generate", "synth", "--spec", str(spec_path), "--out", str(data)])
    config = {
        "data": str(data),
        "manifest": str(data / "manifest.json"),
        "out": str(root / "run"),
        "method": "both",
        "caps": [3],
        "seed": 1,
        "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
    }
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["select", "--config", str(cfg_path)])
    return root, cfg_path, code


class TestSelect:
    def test_run_succeeds_with_artifacts(self, synth_run):
        root, _, code = synth_run
        assert code == 0
        out = root / "run"
        for name in (
            "config.json",
            "prefilter_report.csv",
            "cost_table.csv",
            "selection_rfe_cap3.json",
            "selection_ga_cap3.json",
            "model_rfe_cap3.json",
            "trace_rfe_cap3.csv",
            "ga_trace_cap3.csv",
        ):
            assert (out / name).exists(), name

    def test_cost_table_shape(self, synth_run):
        root, _, _ = synth_run
        with open(root / "run" / "cost_table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "cap", "selected_count", "J_train", "J_test"]
        assert {r[0] for r in rows[1:]} == {"rfe", "ga"}
        for r in rows[1:]:
            assert int(r[2]) <= 3
            float(r[3]), float(r[4])

    def test_selection_document_roundtrip(self, synth_run):
        root, _, _ = synth_run
        doc = json.loads((root / "run" / "selection_rfe_cap3.json").read_text())
        assert doc["method"] == "rfe"
        assert doc["j_train"]["J"] >= 0
        assert len(doc["indices"]) == len(doc["names"])

    def test_ga_trace_holds_plain_floats(self, synth_run):
        root, _, _ = synth_run
        with open(root / "run" / "ga_trace_cap3.csv") as fh:
            rows = list(csv.reader(fh))
        doc = json.loads((root / "run" / "selection_ga_cap3.json").read_text())
        assert rows[0] == ["generation", "best_J"]
        trace = doc["diagnostics"]["trace"]
        assert [(int(g), float(j)) for g, j in rows[1:]] == list(enumerate(trace))

    def test_worker_flag_does_not_change_numbers(self, synth_run):
        root, cfg_path, _ = synth_run
        cfg = json.loads(cfg_path.read_text())
        cfg["method"] = "both"
        out2, out4 = root / "w2", root / "w4"
        cfg["out"] = str(out2)
        p2 = root / "run_w2.json"
        p2.write_text(json.dumps(cfg))
        assert main(["select", "--config", str(p2), "--workers", "2"]) == 0
        cfg["out"] = str(out4)
        p4 = root / "run_w4.json"
        p4.write_text(json.dumps(cfg))
        assert main(["select", "--config", str(p4), "--workers", "4"]) == 0
        names = sorted(p.name for p in out2.iterdir())
        assert names == sorted(p.name for p in out4.iterdir())
        assert "selection_ga_cap3.json" in names
        for name in names:
            if name != "config.json":  # echoes the output directory and worker count
                assert (out2 / name).read_bytes() == (out4 / name).read_bytes(), name

    def test_serial_and_parallel_cap_sweeps_write_the_same_files(self, tmp_path):
        """Every cap of a sweep writes what a run of that cap alone writes,
        for 1 and 2 workers: a cap's searches read only costs fitted from
        their own pools. On RLC's exact fits the GA's best costs are round-off
        that depends on the pool a subset was fitted from."""
        data = tmp_path / "data"
        write_small_rlc(data)

        def select(name, caps, workers):
            out = tmp_path / name
            cfg = {
                "data": str(data),
                "manifest": str(data / "manifest.json"),
                "out": str(out),
                "seed": 1,
                "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            args = ["--method", "both", "--cap", caps, "--workers", str(workers)]
            assert main(["select", "--config", str(path), *args]) == 0
            return out

        alone = [select(f"cap{cap}", str(cap), 1) for cap in (3, 5, 7)]
        tables = [(run / "cost_table.csv").read_text().splitlines(True) for run in alone]
        table = tables[0][0] + "".join(row for t in tables for row in t[1:])  # one header
        shared = ("config.json", "cost_table.csv", "prefilter_report.csv")
        for workers in (1, 2):
            sweep = select(f"sweep_w{workers}", "3,5,7", workers)
            names = {p.name for run in alone for p in run.iterdir()}
            assert {p.name for p in sweep.iterdir()} == names
            assert (sweep / "cost_table.csv").read_text() == table
            prefilter = (sweep / "prefilter_report.csv").read_bytes()
            assert all((run / "prefilter_report.csv").read_bytes() == prefilter for run in alone)
            for run in alone:
                for path in run.iterdir():
                    if path.name not in shared:
                        assert (sweep / path.name).read_bytes() == path.read_bytes(), (workers, path.name)

    def test_env_var_sets_workers(self, synth_run, monkeypatch):
        root, cfg_path, _ = synth_run
        cfg = json.loads(cfg_path.read_text())
        cfg["method"] = "rfe"
        cfg["out"] = str(root / "env_run")
        p = root / "run_env.json"
        p.write_text(json.dumps(cfg))
        monkeypatch.setenv("STATESEL_WORKERS", "2")
        assert main(["select", "--config", str(p)]) == 0
        echoed = json.loads((root / "env_run" / "config.json").read_text())
        assert echoed["workers"] == 2

    def test_rerun_reproduces_artifacts(self, synth_run):
        root, cfg_path, _ = synth_run
        cfg = json.loads(cfg_path.read_text())
        cfg["method"] = "rfe"
        outs = []
        for tag in ("rep_a", "rep_b"):
            cfg["out"] = str(root / tag)
            p = root / f"run_{tag}.json"
            p.write_text(json.dumps(cfg))
            assert main(["select", "--config", str(p)]) == 0
            outs.append(root / tag)
        for name in ("cost_table.csv", "selection_rfe_cap3.json", "model_rfe_cap3.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_cap_sweep_training_cost_improves(self, synth_run):
        root, cfg_path, _ = synth_run
        cfg = json.loads(cfg_path.read_text())
        cfg["method"] = "rfe"
        cfg["caps"] = [2, 4]
        cfg["out"] = str(root / "sweep")
        p = root / "run_sweep.json"
        p.write_text(json.dumps(cfg))
        assert main(["select", "--config", str(p)]) == 0
        with open(root / "sweep" / "cost_table.csv") as fh:
            rows = {int(r["cap"]): float(r["J_train"]) for r in csv.DictReader(fh)}
        assert rows[4] <= rows[2]

    def test_pool_over_search_limit_fails_cleanly(self, synth_run, capsys):
        root, cfg_path, _ = synth_run
        cfg = json.loads(cfg_path.read_text())
        cfg["method"] = "rfe"
        cfg["rfe"] = {"search_limit": 2}
        cfg["caps"] = [6]
        cfg["out"] = str(root / "fail_run")
        p = root / "run_fail.json"
        p.write_text(json.dumps(cfg))
        assert main(["select", "--config", str(p)]) == 1
        assert "sweep" in capsys.readouterr().err


class TestWorkerCount:
    """A worker count below 1, or a variable that is not an integer, is
    refused before the run writes anything or starts a process."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.delenv("STATESEL_WORKERS", raising=False)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": str(tmp_path / "none"), "manifest": "m.json", "out": str(tmp_path / "out")}))
        return path

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_flag_below_one(self, config, capsys, value):
        assert main(["select", "--config", str(config), "--workers", value]) == 1
        assert "--workers must be a positive integer" in capsys.readouterr().err
        assert not (config.parent / "out").exists()

    def test_flag_not_an_integer(self, config, capsys):
        with pytest.raises(SystemExit):
            main(["select", "--config", str(config), "--workers", "two"])
        assert "--workers" in capsys.readouterr().err
        assert not (config.parent / "out").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_environment_variable(self, config, capsys, monkeypatch, value):
        monkeypatch.setenv("STATESEL_WORKERS", value)
        assert main(["select", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "STATESEL_WORKERS must be a positive integer" in err and value in err
        assert not (config.parent / "out").exists()

    def test_config_field(self, config, capsys):
        assert main(["select", "--config", str(config), "--workers", "2"]) == 1  # no data: fails later
        assert "workers" not in capsys.readouterr().err
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "workers": 0}))
        assert main(["select", "--config", str(config)]) == 1
        assert "config field 'workers' must be a positive integer" in capsys.readouterr().err


class TestCapList:
    """A cap list that is empty, or has a cap below 1, a repeated cap or an
    item that is not an integer, is refused before the run writes anything."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": str(tmp_path / "none"), "manifest": "m.json", "out": str(tmp_path / "out")}))
        return path

    @pytest.mark.parametrize("caps, shown", [("0", "[0]"), ("3,-1", "[3, -1]"), ("2,2", "[2, 2]")])
    def test_flag(self, config, capsys, caps, shown):
        assert main(["select", "--config", str(config), "--cap", caps]) == 1
        assert f"caps must be distinct positive integers, got {shown}" in capsys.readouterr().err
        assert not (config.parent / "out").exists()

    def test_empty_item(self, config, capsys):
        assert main(["select", "--config", str(config), "--cap", "2,,3"]) == 1
        assert "--cap must be comma-separated integers, got '2,,3'" in capsys.readouterr().err
        assert not (config.parent / "out").exists()

    @pytest.mark.parametrize("caps", [[], [3, 3], [2.5], ["3"]])
    def test_config_field(self, config, capsys, caps):
        doc = json.loads(config.read_text())
        config.write_text(json.dumps({**doc, "caps": caps}))
        assert main(["select", "--config", str(config)]) == 1
        assert "caps must be distinct positive integers" in capsys.readouterr().err
        assert not (config.parent / "out").exists()


class TestSelectChecksFirst:
    """A setting the run would reject, or an input file it cannot read,
    fails ``select`` before it makes the output directory."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("checks_first") / "data"
        write_small_rlc(data)
        return data

    def select(self, data, tmp_path, edit=None, args=()):
        cfg = {
            "data": str(data),
            "manifest": str(data / "manifest.json"),
            "out": str(tmp_path / "out"),
            "caps": [3],
            "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**cfg, **(edit or {})}))
        return main(["select", "--config", str(path), *args])

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"rfe": {"serach_limit": 30}}, "serach_limit"),
            ({"ga": {"population_size": 1}}, "population_size must be at least 2"),
            ({"cost": {"scale_floor": 0}}, "scale_floor"),
            ({"train_fraction": 1.5}, "train_fraction must be in (0,1), got 1.5"),
            ({"prefilter": {"input_corr_threshold": "0.9"}}, "input_corr_threshold must be float or int, got '0.9'"),
        ],
        ids=["rfe_key", "ga_population", "scale_floor", "train_fraction", "prefilter_text"],
    )
    def test_bad_setting(self, data, tmp_path, capsys, edit, message):
        assert self.select(data, tmp_path, edit) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed(self, data, tmp_path, capsys):
        assert self.select(data, tmp_path, args=["--seed", "-1", "--method", "both"]) == 1
        assert "seed must not be negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_truncated_manifest(self, data, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        text = (data / "manifest.json").read_text(encoding="utf-8")
        manifest.write_text(text[: len(text) // 2], encoding="utf-8")
        assert self.select(data, tmp_path, {"manifest": str(manifest)}) == 1
        assert f"{manifest}: not a JSON document" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(dt_seconds="x"), "could not convert string to float: 'x'"),
            (lambda doc: doc.update(dt_seconds=-1), "dt_seconds must be positive, got -1.0"),
            (lambda doc: doc["channels"][0].update(role=5), "must be strings"),
            (lambda doc: doc["channels"][0].update(role="state"), "unknown role 'state'"),
            (lambda doc: doc["channels"].append(doc["channels"][-1]), "is listed twice"),
        ],
        ids=["dt_text", "dt_negative", "role_number", "role_unknown", "channel_twice"],
    )
    def test_malformed_manifest_is_named(self, data, tmp_path, capsys, edit, message):
        doc = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        edit(doc)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        assert self.select(data, tmp_path, {"manifest": str(manifest)}) == 1
        err = capsys.readouterr().err
        assert f"error: malformed manifest {manifest}: " in err and message in err
        assert not (tmp_path / "out").exists()
        report = tmp_path / "report.csv"
        args = ["--data", str(data), "--manifest", str(manifest), "--out", str(report)]
        assert main(["prefilter", *args]) == 1
        assert f"error: malformed manifest {manifest}: " in capsys.readouterr().err
        assert not report.exists()

    def test_prefilter_keeping_nothing(self, data, tmp_path, capsys):
        # every range-standardized variance is at most 1/4
        assert self.select(data, tmp_path, {"prefilter": {"variance_epsilon": 5}}) == 1
        err = capsys.readouterr().err
        assert "the prefilter kept none of the" in err and "'prefilter' section" in err
        assert not (tmp_path / "out").exists()

    def test_nonempty_output_refused_before_reading(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "keep.txt").write_text("x")
        assert self.select(tmp_path / "no_data", tmp_path) == 1
        assert "is not empty; pass --overwrite" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["keep.txt"]


class TestJsonDocuments:
    """Every JSON document is read by one reader: a leading byte-order mark
    is skipped, and a file that does not parse is named."""

    def documents(self, tmp_path):
        data = tmp_path / "data"
        ds = write_small_rlc(data)
        train, _ = split(ds, SplitSpec(0.8))
        save_model(fit_model(train, [ds.index_of("capacitor.v")]), tmp_path / "model.json")
        config = {"data": str(data), "manifest": str(data / "manifest.json"), "out": str(tmp_path / "o")}
        (tmp_path / "run.json").write_text(json.dumps(config))
        (tmp_path / "spec.json").write_text(json.dumps(small_synth_spec_doc()))
        return data / "manifest.json", tmp_path / "model.json", tmp_path / "run.json", tmp_path / "spec.json"

    def test_truncated_document_is_named(self, tmp_path, capsys):
        manifest, model, config, spec = self.documents(tmp_path)
        for path, read in ((manifest, load_manifest), (model, load_model), (config, RunConfig.load)):
            text = path.read_text(encoding="utf-8")
            path.write_text(text[: len(text) // 2], encoding="utf-8")
            with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: not a JSON document"):
                read(path)
        text = spec.read_text(encoding="utf-8")
        spec.write_text(text[: len(text) // 2], encoding="utf-8")
        assert main(["generate", "synth", "--spec", str(spec), "--out", str(tmp_path / "gen")]) == 1
        assert f"{spec}: not a JSON document" in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_a_constant_that_is_not_json_is_named(self, tmp_path, constant):
        """``json`` reads NaN and Infinity, which slip past ``<`` and ``>``
        checks (a manifest's ``dt_seconds`` of Infinity loaded); every
        document reader refuses them by name."""
        manifest, model, config, _ = self.documents(tmp_path)
        edits = (
            (manifest, load_manifest, lambda doc: doc.update(dt_seconds=0.125)),
            (model, load_model, lambda doc: doc.update(dt=0.125)),
            (config, RunConfig.load, lambda doc: doc.update(train_fraction=0.125)),
        )
        for path, read, edit in edits:
            doc = json.loads(path.read_text(encoding="utf-8"))
            edit(doc)
            path.write_text(json.dumps(doc).replace("0.125", constant), encoding="utf-8")
            with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: {constant} is not a JSON value"):
                read(path)

    @pytest.mark.parametrize(
        "section",
        [
            {"cost": {"scale_floor": float("inf")}},  # every subset scored 0
            {"prefilter": {"variance_epsilon": float("nan")}},  # rule 1 kept every varying channel
            {"ga": {"stall_tolerance": float("nan")}},  # every restart stalled
            {"ga": {"stall_tolerance": float("inf")}},
            {"ga": {"stall_tolerance": -1}},  # no restart stalled: 100 x genome generations
        ],
        ids=["scale_floor_inf", "variance_epsilon_nan", "stall_nan", "stall_inf", "stall_negative"],
    )
    def test_a_setting_that_disables_a_rule_is_refused(self, tmp_path, capsys, section):
        _, _, config, _ = self.documents(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), **section}))
        assert main(["select", "--config", str(config), "--method", "ga", "--cap", "1"]) == 1
        assert f"error: {config}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: [1, 2],
            lambda doc: {**doc, "rfe": 5},
            lambda doc: {**doc, "data": 5},
            lambda doc: {**doc, "ga": {"population_size": "480"}},
            lambda doc: {**doc, "train_fraction": "0.8"},
            lambda doc: {**doc, "manifest": 5},
            lambda doc: {**doc, "out": 5},
        ],
        ids=["not_an_object", "section", "data", "ga_setting", "train_fraction", "manifest", "out"],
    )
    def test_malformed_config_is_named(self, tmp_path, capsys, edit):
        _, _, config, _ = self.documents(tmp_path)
        config.write_text(json.dumps(edit(json.loads(config.read_text()))))
        assert main(["select", "--config", str(config), "--method", "both", "--cap", "1"]) == 1
        assert f"error: {config}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit",
        [lambda doc: {**doc, "Ad": "x"}, lambda doc: {**doc, "state_names": "capacitor.v"}, lambda doc: [1]],
        ids=["matrix", "names", "not_an_object"],
    )
    def test_malformed_model_is_named(self, tmp_path, edit):
        _, model, _, _ = self.documents(tmp_path)
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        with pytest.raises(DatasetError, match=re.escape(str(model))):
            load_model(model)

    @pytest.mark.parametrize(
        "kind, doc",
        [("synth", [1]), ("rlc", {"params": {"R": "x"}}), ("synth", {"spec": {"subsystems": 5}}),
         ("synth", {"spec": {"subsystems": [5]}})],
        ids=["not_an_object", "rlc_param", "subsystems", "subsystem"],
    )
    def test_malformed_spec_is_named(self, tmp_path, capsys, kind, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["generate", kind, "--spec", str(spec), "--out", str(tmp_path / "gen")]) == 1
        assert f"error: {spec}: " in capsys.readouterr().err
        assert not (tmp_path / "gen").exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        _, _, config, _ = self.documents(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert RunConfig.load(marked) == RunConfig.load(config)


class TestPredict:
    def test_exact_model_trace(self, tmp_path):
        data = tmp_path / "data"
        ds = write_small_rlc(data)
        train, _ = split(ds, SplitSpec(0.8))
        idx = [ds.index_of("capacitor.v"), ds.index_of("capacitor.p.i")]
        model = fit_model(train, idx)
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        out = tmp_path / "trace.csv"
        code = main(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data),
                "--manifest", str(data / "manifest.json"),
                "--horizon", "40",
                "--out", str(out),
            ]
        )
        assert code == 0
        worst = 0.0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 40 * 4  # realizations x steps x (2 states + 2 outputs)
        for row in rows:
            worst = max(worst, abs(float(row["predicted"]) - float(row["truth"])))
        assert worst < 1e-8

    def test_zero_horizon_header_only(self, tmp_path):
        data = tmp_path / "data"
        ds = write_small_rlc(data)
        train, _ = split(ds, SplitSpec(0.8))
        idx = [ds.index_of("capacitor.v")]
        model_path = tmp_path / "model.json"
        save_model(fit_model(train, idx), model_path)
        out = tmp_path / "trace.csv"
        main(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data),
                "--manifest", str(data / "manifest.json"),
                "--horizon", "0",
                "--out", str(out),
            ]
        )
        assert out.read_text().splitlines() == ["realization,step,channel,predicted,truth"]

    def test_unknown_channel_fails(self, tmp_path, capsys):
        data = tmp_path / "data"
        ds = write_small_rlc(data)
        train, _ = split(ds, SplitSpec(0.8))
        model = fit_model(train, [ds.index_of("capacitor.v")])
        renamed = type(model)(
            Ad=model.Ad,
            Bd=model.Bd,
            Cd=model.Cd,
            state_names=("missing.channel",),
            input_names=model.input_names,
            output_names=model.output_names,
            dt=model.dt,
        )
        model_path = tmp_path / "model.json"
        save_model(renamed, model_path)
        code = main(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data),
                "--manifest", str(data / "manifest.json"),
                "--horizon", "5",
                "--out", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().err


    @pytest.fixture
    def saved(self, tmp_path):
        """A small RLC dataset and a model fitted on it."""
        data = tmp_path / "data"
        ds = write_small_rlc(data)
        train, _ = split(ds, SplitSpec(0.8))
        model_path = tmp_path / "model.json"
        save_model(fit_model(train, [ds.index_of("capacitor.v")]), model_path)
        return data, model_path

    def predict(self, data, model_path, out, horizon="5", manifest=None):
        manifest = manifest or data / "manifest.json"
        return main(
            [
                "predict",
                "--model", str(model_path),
                "--data", str(data),
                "--manifest", str(manifest),
                "--horizon", horizon,
                "--out", str(out),
            ]
        )

    def test_other_dt_refused(self, saved, tmp_path, capsys):
        data, model_path = saved
        doc = json.loads((data / "manifest.json").read_text())
        manifest = tmp_path / "slow_manifest.json"
        manifest.write_text(json.dumps({**doc, "dt_seconds": 0.5}))
        out = tmp_path / "t.csv"
        assert self.predict(data, model_path, out, manifest=manifest) == 1
        assert "the model's dt is 0.001 s but the dataset's is 0.5 s" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_horizon_refused(self, saved, tmp_path, capsys):
        data, model_path = saved
        out = tmp_path / "t.csv"
        assert self.predict(data, model_path, out, horizon="-3") == 1
        assert "--horizon must not be negative, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_model_missing_a_key(self, saved, tmp_path, capsys):
        data, model_path = saved
        doc = json.loads(model_path.read_text())
        del doc["state_names"]
        model_path.write_text(json.dumps(doc))
        assert self.predict(data, model_path, tmp_path / "t.csv") == 1
        err = capsys.readouterr().err
        assert f"malformed model {model_path}: missing key 'state_names'" in err


    @pytest.fixture(scope="class")
    def coupled_run(self, tmp_path_factory):
        """The default coupled blocks of seed 1, where rolling each test
        realization out on its own rounds differently from one rollout of
        all of them, and a select run over them."""
        root = tmp_path_factory.mktemp("coupled_run")
        data = root / "data"
        assert main(["generate", "synth", "--seed", "1", "--out", str(data)]) == 0
        config = {
            "data": str(data),
            "manifest": str(data / "manifest.json"),
            "out": str(root / "run"),
            "caps": [3],
            "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
        }
        (root / "run.json").write_text(json.dumps(config))
        assert main(["select", "--config", str(root / "run.json")]) == 0
        return root

    @pytest.mark.parametrize("method", ["rfe", "ga"])
    def test_writes_the_select_trace_up_to_the_horizon(self, coupled_run, tmp_path, method):
        """A horizon past every test realization writes, byte for byte, the
        trace ``select`` wrote for the model; a shorter one writes its lines
        up to the horizon."""
        data, run, out = coupled_run / "data", coupled_run / "run", tmp_path / "t.csv"
        model, trace = run / f"model_{method}_cap3.json", run / f"trace_{method}_cap3.csv"
        assert self.predict(data, model, out, horizon="100000") == 0
        assert out.read_bytes() == trace.read_bytes()
        assert self.predict(data, model, out, horizon="7") == 0
        header, *lines = trace.read_text().splitlines()
        assert out.read_text().splitlines() == [header] + [l for l in lines if int(l.split(",")[1]) <= 7]

    @staticmethod
    def two_port(root):
        """An exact LTI recording with 2 inputs, 2 outputs and its 3 states
        as candidates, emitted to ``root / "data"``, and again to ``root /
        "shuffled"`` with every channel at another place in the manifest."""
        rng = np.random.default_rng(8)
        Ad, Bd, Cd = random_stable_discrete(rng, 3, 2, 2)
        reals = []
        for steps in (60, 45):
            V = rng.standard_normal((2, steps))
            X = simulate_discrete(Ad, Bd, V[:, :-1], rng.standard_normal(3))
            reals.append(np.vstack([V, Cd @ X, X]))
        roles = ["input"] * 2 + ["output"] * 2 + ["candidate"] * 3
        names = ["u0", "u1", "y0", "y1", "x0", "x1", "x2"]
        manifest = tuple(ChannelMeta(n, r) for n, r in zip(names, roles))
        ds = TimeSeriesDataset(0.1, tuple(reals), manifest)
        order = [3, 6, 1, 4, 0, 5, 2]
        emit(ds, root / "data")
        emit(TimeSeriesDataset(0.1, tuple(a[order] for a in reals), tuple(manifest[i] for i in order)), root / "shuffled")
        return ds

    def test_channels_bind_by_name(self, tmp_path):
        """Inputs and outputs in another manifest order, and a model with no
        inputs, give the traces of a rollout that binds every channel by its
        name, one realization at a time."""
        ds = self.two_port(tmp_path)
        _, test = split(ds, SplitSpec(0.8))
        model = fit_model(split(ds, SplitSpec(0.8))[0], [4, 5, 6])
        no_inputs = StateSpaceModel(
            model.Ad, model.Bd[:, :0], model.Cd, model.state_names, (), model.output_names, model.dt
        )
        for m, inputs in ((model, [0, 1]), (no_inputs, [])):
            model_path = tmp_path / "model.json"
            save_model(m, model_path)
            traces = {}
            for data in ("data", "shuffled"):
                out = tmp_path / f"{data}.csv"
                assert self.predict(tmp_path / data, model_path, out, horizon="100") == 0
                traces[data] = out.read_bytes()
            assert traces["shuffled"] == traces["data"]
            predicted, truth = [], []
            for arr in test.realizations:
                X = simulate_discrete(m.Ad, m.Bd, arr[inputs, :-1], arr[[4, 5, 6], 0])[:, 1:]
                predicted += [*X.ravel(), *(m.Cd @ X).ravel()]
                truth += [*arr[[4, 5, 6], 1:].ravel(), *arr[[2, 3], 1:].ravel()]
            rows = read_rows(tmp_path / "data.csv")
            assert_written([r["truth"] for r in rows], truth)
            np.testing.assert_allclose([float(r["predicted"]) for r in rows], predicted, rtol=1e-9, atol=1e-12)


def assert_written(cells, values):
    """Each cell reads back with ``float()`` to the value written, as its
    shortest text."""
    assert [float(c) for c in cells] == [float(v) for v in values]
    assert all(repr(float(c)) == c for c in cells)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestWrittenFloats:
    """Every float a CSV writer emits is the value the program computed."""

    @pytest.fixture(scope="class")
    def split_data(self, synth_run):
        root, _, _ = synth_run
        return split(ingest(root / "data", root / "data" / "manifest.json"), SplitSpec(0.8))

    @pytest.mark.parametrize("method", ["rfe", "ga"])
    def test_select_trace(self, synth_run, split_data, method):
        root, _, _ = synth_run
        run = root / "run"
        model = load_model(run / f"model_{method}_cap3.json")
        blocks = rollout_traces(model, split_data[1])
        rows = read_rows(run / f"trace_{method}_cap3.csv")
        assert_written([r["predicted"] for r in rows], [v for _, p, _ in blocks for v in p.ravel()])
        assert_written([r["truth"] for r in rows], [v for _, _, t in blocks for v in t.ravel()])

    def test_ga_trace(self, synth_run):
        root, _, _ = synth_run
        doc = json.loads((root / "run" / "selection_ga_cap3.json").read_text())
        rows = read_rows(root / "run" / "ga_trace_cap3.csv")
        assert_written([r["best_J"] for r in rows], doc["diagnostics"]["trace"])

    def test_cost_table(self, synth_run):
        root, _, _ = synth_run
        rows = read_rows(root / "run" / "cost_table.csv")
        docs = [json.loads((root / "run" / f"selection_{r['method']}_cap3.json").read_text()) for r in rows]
        assert_written([r["J_train"] for r in rows], [d["j_train"]["J"] for d in docs])
        assert_written([r["J_test"] for r in rows], [d["j_test"]["J"] for d in docs])

    def test_prefilter_evidence(self, tmp_path):
        data = tmp_path / "data"
        train, _ = split(write_small_rlc(data), SplitSpec(0.8))
        out = tmp_path / "report.csv"
        args = ["--data", str(data), "--manifest", str(data / "manifest.json"), "--out", str(out)]
        assert main(["prefilter", *args]) == 0
        removed = prefilter(train).removed
        rows = [r for r in read_rows(out) if r["decision"] == "removed"]
        assert len(rows) > 30
        assert [int(r["index"]) for r in rows] == [r.index for r in removed]
        assert_written([r["evidence"] for r in rows], [r.evidence for r in removed])

    def test_predict_trace(self, synth_run, split_data, tmp_path):
        root, _, _ = synth_run
        data, model_path = root / "data", root / "run" / "model_rfe_cap3.json"
        out = tmp_path / "t.csv"
        args = ["--data", str(data), "--manifest", str(data / "manifest.json"), "--horizon", "30"]
        assert main(["predict", "--model", str(model_path), *args, "--out", str(out)]) == 0
        model, test = load_model(model_path), split_data[1]
        state = [test.index_of(n) for n in model.state_names]
        inputs = [test.index_of(n) for n in model.input_names]
        outputs = [test.index_of(n) for n in model.output_names]
        predicted, truth = [], []
        for arr in test.realizations:
            Xh, Yh = rollout(model, arr[state, 0], arr[inputs, :30])
            predicted += [*Xh.ravel(), *Yh.ravel()]
            truth += [*arr[state, 1:31].ravel(), *arr[outputs, 1:31].ravel()]
        rows = read_rows(out)
        assert_written([r["predicted"] for r in rows], predicted)
        assert_written([r["truth"] for r in rows], truth)


class TestReportAndPrefilter:
    def test_report_prints_table(self, synth_run, capsys):
        root, _, _ = synth_run
        assert main(["report", "--run", str(root / "run")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,cap,selected_count")

    def test_report_missing_run(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1

    def test_report_names_a_table_that_is_not_utf8(self, tmp_path, capsys):
        table = tmp_path / "cost_table.csv"
        table.write_bytes(b"method,cap\n\xff\xfe\n")
        assert main(["report", "--run", str(tmp_path)]) == 1
        assert f"error: {table}: not UTF-8 text" in capsys.readouterr().err

    def test_prefilter_subcommand(self, tmp_path):
        data = tmp_path / "data"
        write_small_rlc(data)
        out = tmp_path / "report.csv"
        code = main(
            [
                "prefilter",
                "--data", str(data),
                "--manifest", str(data / "manifest.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("index,name,decision")
        assert len(lines) == 44  # header + 43 candidates

    @pytest.mark.parametrize(
        "config, message",
        [
            ('{"dedupe_enabled": "no"}', "dedupe_enabled must be bool, got 'no'"),  # ran with dedupe on
            ('{"input_corr_threshold": "0.9"}', "input_corr_threshold must be float or int, got '0.9'"),
            ('{"input_corr_threshold": 1.5}', "input_corr_threshold must be in (0, 1]"),
            ('{"dedupe": false}', "unexpected keyword argument 'dedupe'"),
            ("[1]", "not a JSON object"),
            ("{bad", "not a JSON document"),
            ('{"input_corr_threshold": NaN}', "NaN is not a JSON value"),
            ('{"variance_epsilon": Infinity}', "Infinity is not a JSON value"),  # kept every channel
        ],
        ids=["bool_text", "float_text", "out_of_range", "unknown_key", "not_an_object", "not_json", "nan", "inf"],
    )
    def test_prefilter_config_is_checked_as_select_checks_it(self, tmp_path, capsys, config, message):
        data = tmp_path / "data"
        write_small_rlc(data)
        out = tmp_path / "report.csv"
        args = ["--data", str(data), "--manifest", str(data / "manifest.json"), "--out", str(out)]
        assert main(["prefilter", *args, "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --config: ") and message in err
        assert not out.exists()


class TestColdStart:
    """Commands run in a fresh interpreter, which then holds no scipy module;
    only ``generate`` loads the simulators of ``statesel.benchgen``, a
    one-worker ``select`` loads neither ``concurrent.futures`` nor ``numpy.ma``,
    only the commands that search load the search stack, a GA ``select``
    loads no ``statistics`` (nor its ``fractions`` and ``decimal``), and
    ``prefilter``, ``predict`` and an RFE ``select`` load no ``hashlib``,
    which loads OpenSSL, and no ``_blake2``. (The GA's ``numpy.random``
    loads both, through ``secrets`` and ``hmac``.)"""

    PRELUDE = [
        "import sys",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "def loaded(*names):",
        "    return [m for m in names if m in sys.modules]",
        "SELECTION = ('statesel.selection', 'statesel.rfe', 'statesel.ga', 'statistics')",
        "import statesel.cli",
        "assert not scipy_modules(), ('import', scipy_modules())",
        "assert 'statesel.benchgen' not in sys.modules, 'import'",
    ]

    def run_fresh(self, lines, args, flags=()):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", "\n".join(self.PRELUDE + lines), *map(str, args)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_the_model_and_rollout_modules(self):
        # a tracer installed after ``import statesel.cli`` rebinds their names
        self.run_fresh(["assert loaded('statesel.dmdc', 'statesel.cost') == ['statesel.dmdc', 'statesel.cost']"], [])

    def test_import_prefilter_and_report_load_no_scipy(self, tmp_path):
        data = tmp_path / "data"
        write_small_rlc(data)
        run = tmp_path / "run"
        run.mkdir()
        (run / "cost_table.csv").write_text("method,cap,selected_count,J_train,J_test\n")
        script = [
            "prefilter = ['prefilter', '--data', sys.argv[1], '--manifest', sys.argv[2], '--out', sys.argv[3]]",
            "assert statesel.cli.main(prefilter) == 0",
            "assert not scipy_modules(), ('prefilter', scipy_modules())",
            "assert 'statesel.benchgen' not in sys.modules, 'prefilter'",
            "assert not loaded(*SELECTION), ('prefilter', loaded(*SELECTION))",
            "assert not loaded('hashlib', '_hashlib', '_blake2'), ('prefilter', loaded('hashlib', '_hashlib', '_blake2'))",
            "assert statesel.cli.main(['report', '--run', sys.argv[4]]) == 0",
            "assert not scipy_modules(), ('report', scipy_modules())",
            "assert 'statesel.benchgen' not in sys.modules, 'report'",
            "assert not loaded(*SELECTION), ('report', loaded(*SELECTION))",
        ]
        self.run_fresh(script, [data, data / "manifest.json", tmp_path / "report.csv", run])
        assert len((tmp_path / "report.csv").read_text().splitlines()) == 44

    def test_select_and_predict_load_no_scipy(self, tmp_path):
        data = tmp_path / "data"
        write_small_rlc(data)
        run = tmp_path / "run"
        cfg = {
            "data": str(data),
            "manifest": str(data / "manifest.json"),
            "out": str(run),
            "seed": 1,
            "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
        }
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        script = [
            "select = ['select', '--config', sys.argv[1], '--method', 'both', '--cap', '3']",
            "assert statesel.cli.main(select) == 0",
            "assert not scipy_modules(), ('select', scipy_modules())",
            "assert 'statesel.benchgen' not in sys.modules, 'select'",
            "# one worker starts no pool, and the GA's restart median needs no masked arrays",
            "assert 'concurrent.futures' not in sys.modules, 'select'",
            "assert 'numpy.ma' not in sys.modules, 'select'",
            "predict = ['predict', '--model', sys.argv[2], '--data', sys.argv[3], '--manifest', sys.argv[4],",
            "           '--horizon', '40', '--out', sys.argv[5]]",
            "assert statesel.cli.main(predict) == 0",
            "assert not scipy_modules(), ('predict', scipy_modules())",
            "assert 'statesel.benchgen' not in sys.modules, 'predict'",
        ]
        args = [tmp_path / "run.json", run / "model_rfe_cap3.json", data, data / "manifest.json", tmp_path / "t.csv"]
        self.run_fresh(script, args)
        assert (run / "selection_ga_cap3.json").exists()
        assert len((tmp_path / "t.csv").read_text().splitlines()) > 1

    @pytest.mark.parametrize(
        "command, unused",
        [
            ("predict", ["statesel.selection", "statesel.rfe", "statesel.ga", "hashlib", "_hashlib", "_blake2"]),
            ("rfe", ["statesel.ga", "statistics", "hashlib", "_hashlib", "_blake2"]),
            ("ga", ["statesel.rfe", "statistics", "_statistics", "fractions", "decimal", "_decimal"]),
        ],
    )
    def test_predict_and_each_selector_load_only_their_modules(self, synth_run, tmp_path, command, unused):
        root, config, _ = synth_run
        if command == "predict":
            args = ["predict", "--model", root / "run" / "model_rfe_cap3.json", "--data", root / "data",
                    "--manifest", root / "data" / "manifest.json", "--horizon", 5, "--out", tmp_path / "t.csv"]
        else:
            args = ["select", "--config", config, "--method", command, "--out", tmp_path / "run"]
        script = [
            "assert statesel.cli.main(sys.argv[1:]) == 0",
            f"assert not loaded(*{unused!r}), loaded(*{unused!r})",
        ]
        self.run_fresh(script, args)

    def test_generate_loads_only_scipy_linalg(self, tmp_path):
        rlc = tmp_path / "rlc.json"
        rlc.write_text(json.dumps({"params": {"duration": 0.2}}))
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(small_synth_spec_doc()))
        script = [
            "for kind, spec, out in (('rlc', sys.argv[1], sys.argv[2]), ('synth', sys.argv[3], sys.argv[4])):",
            "    assert statesel.cli.main(['generate', kind, '--spec', spec, '--out', out]) == 0",
            "# scipy.version is a module scipy's own __init__ loads, not a subpackage",
            "public = {m.split('.')[1] for m in scipy_modules() if '.' in m and not m.split('.')[1].startswith('_')}",
            "assert public - {'version'} == {'linalg'}, scipy_modules()",
        ]
        self.run_fresh(script, [rlc, tmp_path / "r", synth, tmp_path / "s"])
        assert (tmp_path / "s" / "truth.json").exists()

    def test_every_text_file_names_its_encoding(self, tmp_path):
        """With ``EncodingWarning`` an error, a text file opened in the
        locale's encoding fails the command that opens it."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(small_synth_spec_doc()))
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = {
            "data": str(data),
            "manifest": str(data / "manifest.json"),
            "out": str(run),
            "seed": 1,
            "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
        }
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        script = [
            "spec, data, config, run, trace, table = sys.argv[1:]",
            "manifest = data + '/manifest.json'",
            "for command in (",
            "    ['generate', 'synth', '--spec', spec, '--out', data],",
            "    ['prefilter', '--data', data, '--manifest', manifest, '--out', trace],",
            "    ['select', '--config', config, '--method', 'both', '--cap', '3'],",
            "    ['predict', '--model', run + '/model_rfe_cap3.json', '--data', data,",
            "     '--manifest', manifest, '--horizon', '20', '--out', trace],",
            "    ['report', '--run', run, '--out', table],",
            "):",
            "    assert statesel.cli.main(command) == 0, command[0]",
        ]
        args = [spec, data, tmp_path / "run.json", run, tmp_path / "t.csv", tmp_path / "table.csv"]
        self.run_fresh(script, args, ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"])
        assert (tmp_path / "table.csv").read_text().startswith("method,cap")


class TestParseCache:
    """``prefilter``, ``select`` and ``predict`` write the same bytes whether
    the parse cache is cold, warm or cannot be written, and no command
    writes anywhere but its outputs and the cache."""

    @staticmethod
    def run_commands(data, out):
        """prefilter, select and predict on ``data``; returns every output file's bytes."""
        out.mkdir()
        manifest = str(data / "manifest.json")
        cfg = {
            "data": str(data),
            "manifest": manifest,
            "out": str(out / "run"),
            "seed": 1,
            "ga": {"population_size": 16, "restarts": 2, "stall_generations": 8, "max_generations": 40},
        }
        (out / "run.json").write_text(json.dumps(cfg))
        for command in (
            ["prefilter", "--data", str(data), "--manifest", manifest, "--out", str(out / "report.csv")],
            ["select", "--config", str(out / "run.json"), "--method", "both", "--cap", "3"],
            ["predict", "--model", str(out / "run" / "model_rfe_cap3.json"), "--data", str(data),
             "--manifest", manifest, "--horizon", "40", "--out", str(out / "trace.csv")],
        ):
            assert main(command) == 0, command[0]
        # the select config names its own directory
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in ("run.json", "config.json")
        }

    def test_cold_and_warm_runs_match_a_run_without_cache(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        write_small_rlc(data)
        recording = {p.name: p.read_bytes() for p in data.iterdir()}
        parsed, parse = [], datamodel._parse_rows

        def spy(fh, width):
            parsed.append(fh.buffer.name)
            return parse(fh, width)

        monkeypatch.setattr(datamodel, "_parse_rows", spy)
        blocker = tmp_path / "blocked"  # a file, so no cache directory can be made under it
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        reference = self.run_commands(data, tmp_path / "uncached")
        assert len(parsed) == 3 * 2 and blocker.read_text() == ""

        cache = tmp_path / "xdg"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        settle(list(data.iterdir()), tmp_path)
        for run, parses in (("cold", 2), ("warm", 0)):
            parsed.clear()
            assert self.run_commands(data, tmp_path / run) == reference, run
            assert len(parsed) == parses, run
        entries = sorted(p.name for p in cache.rglob("*") if p.is_file())
        # each named by its file's device, inode, size, mtime_ns and ctime_ns
        assert len(entries) == 2 and all(re.fullmatch(r"\d+(-\d+){4}\.npy", e) for e in entries)
        assert {p.name: p.read_bytes() for p in data.iterdir()} == recording
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "cold", "data", "uncached", "warm", "xdg"]
