"""Command-line pipeline: generate, prefilter, select, predict, report.

Configuration lives in one JSON file with sections mirroring the module
configs; command-line flags override file values, and the worker count can
also come from the ``STATESEL_WORKERS`` environment variable (flag beats
environment beats file). The effective configuration is echoed into the
output directory so every run is reproducible from its artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import benchgen
from .cost import rollout_traces
from .datamodel import SplitSpec, emit, ingest, split
from .dmdc import StateSpaceModel, TruncationPolicy, load_model, rollout, save_model
from .errors import DatasetError
from .ga import GAConfig, ga_select
from .prefilter import PrefilterConfig, prefilter, write_report_csv
from .rfe import RFEConfig, rfe_select
from .selection import SelectionResult, SubsetEvaluator

ENV_WORKERS = "STATESEL_WORKERS"


@dataclass
class RunConfig:
    """Resolved configuration for a selection run."""

    data: str | list[str]
    manifest: str
    out: str
    method: str = "both"
    caps: list[int] = field(default_factory=lambda: [8])
    seed: int = 0
    workers: int = 1
    train_fraction: float = 0.8
    prefilter: dict = field(default_factory=dict)
    truncation: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    rfe: dict = field(default_factory=dict)
    ga: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("rfe", "ga", "both"):
            raise ValueError(f"method must be rfe, ga, or both, got {self.method!r}")
        if not self.caps:
            raise ValueError("cap list must be nonempty")

    @classmethod
    def load(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        doc = json.loads(Path(path).read_text())
        doc.update({k: v for k, v in (overrides or {}).items() if v is not None})
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


def _prepare_out(out: str | Path, overwrite: bool) -> Path:
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise DatasetError(f"output directory {out} is not empty; pass --overwrite to reuse it")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_workers(flag: int | None, cfg_value: int = 1) -> int:
    """The worker count from the flag, else the environment, else the config
    file; a count below 1 is an error that names where it came from."""
    env = os.environ.get(ENV_WORKERS)
    if flag is not None:
        value, source = flag, "--workers"
    elif env is not None:
        value, source = env, ENV_WORKERS
        try:
            value = int(env)
        except ValueError:
            pass
    else:
        value, source = cfg_value, "config field 'workers'"
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return value


def cmd_generate(args: argparse.Namespace) -> int:
    out = _prepare_out(args.out, args.overwrite)
    if args.kind == "rlc":
        params = benchgen.RlcParams()
        excitations = None
        if args.spec:
            doc = json.loads(Path(args.spec).read_text())
            params = benchgen.RlcParams.from_dict(doc.get("params", {}))
            if "excitations" in doc:
                excitations = tuple(
                    benchgen.SquareWaveSpec.from_dict(e) for e in doc["excitations"]
                )
        ds = benchgen.simulate_rlc(params, excitations)
        truth = benchgen.rlc_truth(params, excitations)
    else:
        spec = benchgen.default_coupled_spec()
        excitations = None
        if args.spec:
            doc = json.loads(Path(args.spec).read_text())
            spec = benchgen.SynthSystemSpec.from_dict(doc.get("spec", doc))
            if "excitations" in doc:
                excitations = tuple(
                    tuple(benchgen.SquareWaveSpec.from_dict(w) for w in waves)
                    for waves in doc["excitations"]
                )
        if args.seed is not None:
            spec = benchgen.SynthSystemSpec.from_dict({**spec.to_dict(), "seed": args.seed})
        ds = benchgen.simulate_synth(spec, excitations)
        truth = benchgen.synth_truth(spec, excitations)
    emit(ds, out)
    benchgen.write_truth(truth, out / "truth.json")
    print(f"wrote {ds.n_realizations} realizations, {ds.n_channels} channels to {out}")
    return 0


def cmd_prefilter(args: argparse.Namespace) -> int:
    ds = ingest(args.data, args.manifest)
    train, _ = split(ds, SplitSpec(args.train_fraction))
    cfg = PrefilterConfig(**json.loads(args.config)) if args.config else PrefilterConfig()
    report = prefilter(train, cfg)
    write_report_csv(report, train, args.out)
    print(f"kept {len(report.kept)} of {len(ds.candidate_indices)} candidates -> {args.out}")
    return 0


def _write_cost_row(writer, method: str, cap: int, result: SelectionResult) -> None:
    writer.writerow(
        [method, cap, len(result.indices), repr(result.j_train.J), repr(result.j_test.J)]
    )


def _write_trace_csv(path: str | Path, model: StateSpaceModel, rows) -> None:
    """Write ``(realization, predicted, truth)`` blocks, one line per step and
    channel; block rows follow the model's states, then its outputs."""
    names = list(model.state_names) + list(model.output_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["realization", "step", "channel", "predicted", "truth"])
        for r, pred, true in rows:
            for c, name in enumerate(names):
                for k in range(pred.shape[1]):
                    writer.writerow(
                        [r, k + 1, name, repr(float(pred[c, k])), repr(float(true[c, k]))]
                    )


def cmd_select(args: argparse.Namespace) -> int:
    overrides = {
        "method": args.method,
        "seed": args.seed,
        "out": args.out,
    }
    if args.cap:
        overrides["caps"] = [int(c) for c in args.cap.split(",")]
    cfg = RunConfig.load(args.config, overrides)
    cfg.workers = _resolve_workers(args.workers, cfg.workers)
    out = _prepare_out(cfg.out, args.overwrite)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")

    ds = ingest(cfg.data, cfg.manifest)
    train, test = split(ds, SplitSpec(cfg.train_fraction))
    report = prefilter(train, PrefilterConfig(**cfg.prefilter))
    write_report_csv(report, train, out / "prefilter_report.csv")
    evaluator = SubsetEvaluator(train, TruncationPolicy(**cfg.truncation), **cfg.cost)

    methods = ["rfe", "ga"] if cfg.method == "both" else [cfg.method]
    with open(out / "cost_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "cap", "selected_count", "J_train", "J_test"])
        for cap in cfg.caps:
            for method in methods:
                if method == "rfe":
                    rcfg = RFEConfig(max_states=cap, **cfg.rfe)
                    result = rfe_select(evaluator, test, report.kept, rcfg, workers=cfg.workers)
                else:
                    gcfg = GAConfig(max_states=cap, seed=cfg.seed, **cfg.ga)
                    result = ga_select(evaluator, test, report.kept, gcfg, workers=cfg.workers)
                _write_cost_row(writer, method, cap, result)
                tag = f"{method}_cap{cap}"
                result.save(out / f"selection_{tag}.json")
                save_model(result.model, out / f"model_{tag}.json")
                traces = rollout_traces(result.model, test, result.indices)
                _write_trace_csv(out / f"trace_{tag}.csv", result.model, traces)
                if method == "ga":
                    with open(out / f"ga_trace_cap{cap}.csv", "w", newline="") as gfh:
                        gw = csv.writer(gfh)
                        gw.writerow(["generation", "best_J"])
                        for g, j in enumerate(result.diagnostics["trace"]):
                            gw.writerow([g, repr(float(j))])
                print(
                    f"{method} cap={cap}: selected {len(result.indices)} "
                    f"J_train={result.j_train.J:.6g} J_test={result.j_test.J:.6g}"
                )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    ds = ingest(args.data, args.manifest)
    try:
        state_idx = [ds.index_of(n) for n in model.state_names]
        in_idx = [ds.index_of(n) for n in model.input_names]
        out_idx = [ds.index_of(n) for n in model.output_names]
    except DatasetError as exc:
        raise DatasetError(f"model channels missing from dataset: {exc}") from exc
    _, test = split(ds, SplitSpec(args.train_fraction))
    rows = []
    for r, arr in enumerate(test.realizations):
        horizon = min(args.horizon, arr.shape[1] - 1)
        if horizon < 1:
            continue
        Xh, Yh = rollout(model, arr[state_idx, 0], arr[in_idx, :horizon])
        true = np.vstack([arr[state_idx, 1 : horizon + 1], arr[out_idx, 1 : horizon + 1]])
        rows.append((r, np.vstack([Xh, Yh]), true))
    _write_trace_csv(args.out, model, rows)
    print(f"wrote prediction trace to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    table = Path(args.run) / "cost_table.csv"
    if not table.exists():
        raise DatasetError(f"no cost_table.csv under {args.run}")
    text = table.read_text()
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesel",
        description="Select state variables from process recordings and fit a linear surrogate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a truth-known benchmark dataset")
    g.add_argument("kind", choices=["rlc", "synth"])
    g.add_argument("--spec", help="JSON spec file overriding the built-in defaults")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--overwrite", action="store_true")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("prefilter", help="screen candidate channels on the training split")
    p.add_argument("--data", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--config", help="JSON object with prefilter settings")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prefilter)

    s = sub.add_parser("select", help="run the full selection pipeline")
    s.add_argument("--config", required=True)
    s.add_argument("--method", choices=["rfe", "ga", "both"], default=None)
    s.add_argument("--cap", help="comma-separated cap sweep, e.g. 3,6,9")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--workers", type=int, default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--overwrite", action="store_true")
    s.set_defaults(func=cmd_select)

    pr = sub.add_parser("predict", help="roll a saved model out against a dataset's test split")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--manifest", required=True)
    pr.add_argument("--horizon", type=int, required=True)
    pr.add_argument("--train-fraction", type=float, default=0.8)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    r = sub.add_parser("report", help="print the cost table of a finished run")
    r.add_argument("--run", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
