"""Tests of the benchmark itself: small variants of each workload, the oracle
and the checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import run
from workloads import TRAIN_FRACTION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL_GA = {"population_size": 48, "restarts": 2}

SMALL = {
    "rlc-both": replace(WORKLOADS["rlc-both"], steps=400, ga=SMALL_GA),
    "coupled-both-w2": replace(WORKLOADS["coupled-both-w2"], ga=SMALL_GA),
    "wide-rfe": replace(
        WORKLOADS["wide-rfe"], steps=300, mixtures=20, copies=6, products=6, squares=3, noises=5
    ),
}


def make_runner(work: Path) -> run.Runner:
    logs = work / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    return run.Runner(ROOT, logs, time.monotonic() + 600)


def select_run(wl, work: Path, seed: int = 3) -> tuple[Path, Path]:
    """Generate a workload's data and run its select command; (data dir, run dir)."""
    runner = make_runner(work)
    data = work / "data"
    wl.generate(seed, data, lambda args: runner.statesel(args, "generate").code)
    config = work / "select.json"
    config.write_text(json.dumps(wl.select_config(data, work / "run", seed)))
    assert runner.statesel(wl.select_args(config), "select").code == 0
    return data, work / "run"


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """(workload, data dir, run dir) of a small variant by name, run once per module."""
    done = {}

    def get(name: str):
        if name not in done:
            done[name] = (SMALL[name], *select_run(SMALL[name], tmp_path_factory.mktemp(name)))
        return done[name]

    return get


@pytest.fixture(params=sorted(SMALL))
def small_run(request, small_runs):
    return small_runs(request.param)


def tampered(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return copy


def rewrite_selection(run_dir: Path, wl, change) -> None:
    """Apply ``change`` to the first method's selection document and keep the
    cost table consistent with it, so only the checks against the oracle and
    the workload's rules can catch the change."""
    method = wl.methods[0]
    path = run_dir / f"selection_{method}_cap{wl.cap}.json"
    sel = json.loads(path.read_text())
    change(sel)
    path.write_text(json.dumps(sel))
    table = run_dir / "cost_table.csv"
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[0] == method:
            row[2:] = [str(len(sel["indices"])), repr(sel["j_train"]["J"]), repr(sel["j_test"]["J"])]
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_small_variant_passes_its_checks(small_run):
    wl, data, out = small_run
    assert wl.check(data, out) == []


def test_check_rejects_a_wrong_cost(small_run, tmp_path):
    wl, data, out = small_run
    copy = tampered(out, tmp_path)

    def inflate(sel):
        sel["j_train"]["J"] = sel["j_train"]["J"] * 1.01 + 1e-12

    rewrite_selection(copy, wl, inflate)
    assert wl.check(data, copy)


def test_check_rejects_a_wrong_selection(small_run, tmp_path):
    wl, data, out = small_run
    copy = tampered(out, tmp_path)
    names = json.loads((data / "manifest.json").read_text())["channels"]
    sel = json.loads((out / f"selection_{wl.methods[0]}_cap{wl.cap}.json").read_text())
    kept = [
        int(r["index"]) for r in oracle.read_report(out / "prefilter_report.csv") if r["decision"] == "kept"
    ]
    # another subset of kept channels of the same size, costed honestly by the
    # oracle; outside the merged pool where the workload has one to leave
    pool = set(sel["diagnostics"].get("merged_pool", []))
    outside = [i for i in kept if i not in sel["indices"] and i not in pool]
    other = (outside or [i for i in kept if i not in sel["indices"]])[: len(sel["indices"])]
    assert other
    train, test = oracle.split(oracle.load_data(data), TRAIN_FRACTION)
    j_train, j_test = oracle.subset_costs(train, test, other)

    def swap(s):
        s["indices"], s["names"] = other, [names[i]["name"] for i in other]
        s["j_train"]["J"], s["j_test"]["J"] = j_train, j_test

    rewrite_selection(copy, wl, swap)
    assert wl.check(data, copy)


def test_check_rejects_a_broken_prefilter_report(small_run, tmp_path):
    wl, data, out = small_run
    copy = tampered(out, tmp_path)
    report = copy / "prefilter_report.csv"
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kept = [r for r in rows if r["decision"] == "kept"]
    kept[-1].update(decision="removed", reason="duplicate", evidence="1.0", representative=kept[0]["name"])
    with open(report, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert wl.check(data, copy)


def test_wide_check_rejects_a_kept_duplicate(small_runs, tmp_path):
    wl, data, out = small_runs("wide-rfe")
    copy = tampered(out, tmp_path)
    report = copy / "prefilter_report.csv"
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    dup = next(r for r in rows if r["name"].split(".")[1].startswith("copy"))
    assert dup["reason"] == "duplicate"
    dup.update(decision="kept", reason="", evidence="", representative="")
    with open(report, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert any("not a duplicate" in e for e in wl.check(data, copy))


def test_a_later_round_must_repeat_the_first_rounds_outputs(small_runs, tmp_path):
    wl, data, out = small_runs("rlc-both")
    ok = run.Proc(code=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0)
    same, changed = tampered(out, tmp_path / "same"), tampered(out, tmp_path / "changed")
    trace = changed / f"trace_rfe_cap{wl.cap}.csv"  # a file the workload's checks do not read
    trace.write_text(trace.read_text().replace("0", "1", 1))
    rounds = [run.Round(out=out, select=ok), run.Round(out=same, select=ok)]
    assert run.check_rounds(wl, data, rounds) == (2, 0)
    assert run.check_rounds(wl, data, [*rounds, run.Round(out=changed, select=ok)]) == (3, 1)


def test_rlc_check_rejects_a_wrong_kept_set(tmp_path):
    """The truth file's expected set is the bar, not whatever the run kept."""
    wl = SMALL["rlc-both"]
    data, out = select_run(wl, tmp_path / "w")
    truth = json.loads((data / "truth.json").read_text())
    truth["expected_kept"] = truth["expected_kept"][:-1]
    (data / "truth.json").write_text(json.dumps(truth))
    assert any("prefilter kept" in e for e in wl.check(data, out))


def test_oracle_agrees_with_subset_evaluator():
    sys.path.insert(0, str(ROOT / "src"))
    from statesel import benchgen
    from statesel.datamodel import SplitSpec, split
    from statesel.selection import SubsetEvaluator

    spec = replace(benchgen.default_coupled_spec(), duration=60.0)
    ds = benchgen.simulate_synth(spec)
    train_ts, test_ts = split(ds, SplitSpec(TRAIN_FRACTION))
    data = oracle.Data(
        names=ds.names,
        roles=tuple(c.role for c in ds.manifest),
        subsystems=tuple(c.subsystem for c in ds.manifest),
        realizations=ds.realizations,
    )
    train, test = oracle.split(data, TRAIN_FRACTION)
    evaluator = SubsetEvaluator(train_ts)
    cand = list(ds.candidate_indices)
    for subset in ([cand[0]], cand[:2], [cand[0], cand[2], cand[5]], cand[1::2]):
        j_train, _ = oracle.subset_costs(train, test, subset)
        assert oracle.close(j_train, evaluator.evaluate(subset), 1e-9)


def test_coupled_result_does_not_depend_on_worker_count(tmp_path):
    wl = SMALL["coupled-both-w2"]
    _, two = select_run(wl, tmp_path / "w2")
    _, one = select_run(replace(wl, workers=1), tmp_path / "w1")
    files = sorted(p.name for p in two.glob("*") if p.name.startswith(("cost_table", "selection_")))
    assert "cost_table.csv" in files and len(files) == 3
    for name in files:
        assert (two / name).read_bytes() == (one / name).read_bytes(), name


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_every_listed_metric(tmp_path, trace):
    result = run.run(SMALL["coupled-both-w2"], 5, 0.0, trace, ROOT, tmp_path / "work")
    units = run.metric_spec(ROOT, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 if trace else 1 + run.PREFILTER_REPEATS)
    assert set(result["metrics"]) == set(units)
    assert all(m["value"] > 0 for k, m in result["metrics"].items() if k.endswith("wall_s"))


def test_tracer_rebinds_every_imported_name():
    # statesel.cost is shadowed by the cost function the package re-exports
    code = (
        "import sys, statesel.cli, tracer\n"
        "dmdc, cost = sys.modules['statesel.dmdc'], sys.modules['statesel.cost']\n"
        "before = dmdc.rollout\n"
        "tracer.install(tracer.Tracer())\n"
        "assert cost.rollout is dmdc.rollout is sys.modules['statesel'].rollout\n"
        "assert dmdc.rollout.__wrapped__ is before\n"
    )
    path = f"{ROOT / 'src'}:{HERE}"
    subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": path}, check=True, timeout=60)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "rlc-both", "--seed", "1", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
