import csv
import json
from pathlib import Path

import pytest

from statesel.benchgen import (
    RlcParams,
    SquareWaveSpec,
    default_decoupled_spec,
    simulate_rlc,
)
from statesel.cli import main
from statesel.datamodel import SplitSpec, emit, ingest, split
from statesel.dmdc import fit_model, save_model


def small_synth_spec_doc():
    spec = default_decoupled_spec()
    doc = spec.to_dict()
    doc["duration"] = 120.0
    return {"spec": doc}


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


class TestReportAndPrefilter:
    def test_report_prints_table(self, synth_run, capsys):
        root, _, _ = synth_run
        assert main(["report", "--run", str(root / "run")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method,cap,selected_count")

    def test_report_missing_run(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1

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
