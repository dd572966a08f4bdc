"""Command-line pipeline: generate, prefilter, select, predict, report.

Configuration lives in one JSON file with sections mirroring the module
configs; command-line flags override file values, and the worker count can
also come from the ``STATESEL_WORKERS`` environment variable (flag beats
environment beats file). The effective configuration is echoed into the
output directory so every run is reproducible from its artifacts.

Every command loads ``datamodel``, ``errors``, ``prefilter``, ``dmdc`` and
``cost`` with this module, so that a tracer installed after ``import
statesel.cli`` finds the model and rollout functions loaded. The search
stack loads only where it runs: ``select`` loads ``selection``, with ``rfe``
only for an RFE search and ``ga`` only for a GA search, and ``generate``
loads ``benchgen``.
"""

from __future__ import annotations

import argparse
import os
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .cost import rollout_traces
from .datamodel import SplitSpec, emit, ingest, json_object, read_json, split, write_csv, write_json
from .dmdc import StateSpaceModel, TruncationPolicy, load_model, save_model
from .errors import DatasetError
from .prefilter import PrefilterConfig, prefilter, write_report_csv

if typing.TYPE_CHECKING:
    from .ga import GAConfig
    from .rfe import RFEConfig

ENV_WORKERS = "STATESEL_WORKERS"


@dataclass
class RunConfig:
    """Resolved configuration for a selection run; every section the run
    uses is checked when it is built, before the run reads or writes a file."""

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
        _check_types(type(self), vars(self))
        data = [self.data] if isinstance(self.data, str) else self.data
        if not data or not all(isinstance(p, str) for p in data):
            raise ValueError(f"data must be a path or a nonempty list of paths, got {self.data!r}")
        if self.method not in ("rfe", "ga", "both"):
            raise ValueError(f"method must be rfe, ga, or both, got {self.method!r}")
        caps = self.caps
        if not caps or not all(type(c) is int and c > 0 for c in caps) or len(set(caps)) < len(caps):
            raise ValueError(f"caps must be distinct positive integers, got {caps}")
        SplitSpec(self.train_fraction)
        _build(PrefilterConfig, **self.prefilter)
        _build(TruncationPolicy, **self.truncation)
        if self.cost.keys() - {"scale_floor"} or not self.cost.get("scale_floor", 1.0) > 0:
            raise ValueError(f"cost takes one positive scale_floor, got {self.cost}")
        for cap in caps:
            for method in self.methods:
                self.search(method, cap)

    @classmethod
    def load(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        """The config in ``path`` with ``overrides``; an error names the file."""
        doc = read_json(path)
        doc.update({k: v for k, v in (overrides or {}).items() if v is not None})
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{path}: {exc}") from exc

    @property
    def methods(self) -> list[str]:
        return ["rfe", "ga"] if self.method == "both" else [self.method]

    def search(self, method: str, cap: int) -> RFEConfig | GAConfig:
        """The settings of ``method``'s search at ``cap``."""
        if method == "rfe":
            from .rfe import RFEConfig

            return _build(RFEConfig, max_states=cap, **self.rfe)
        from .ga import GAConfig

        return _build(GAConfig, max_states=cap, seed=self.seed, **self.ga)


def _check_types(cls, values: dict) -> None:
    """Refuse a value for a field of the dataclass ``cls`` not of the field's
    declared type; an integer passes for a float, a boolean for no number.
    A name that is no field is left for ``cls`` to refuse."""
    for name, hint in typing.get_type_hints(cls).items():
        if name not in values:
            continue
        union = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        allowed = tuple(typing.get_origin(t) or t for t in union) + ((int,) if float in union else ())
        value = values[name]
        if not isinstance(value, allowed) or isinstance(value, bool) and bool not in allowed:
            raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in allowed)}, got {value!r}")


def _build(cls, /, **values):
    """``cls(**values)``, with every value checked against its field's type
    first, so that no check in ``cls`` compares a value of another type."""
    _check_types(cls, values)
    return cls(**values)


def _check_out(out: str | Path, overwrite: bool) -> Path:
    """The output directory, not yet made; one that holds files needs ``overwrite``."""
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not overwrite:
        raise DatasetError(f"output directory {out} is not empty; pass --overwrite to reuse it")
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
    from . import benchgen  # only this command simulates; the others never load it

    if args.kind == "rlc" and args.seed is not None:
        raise ValueError("--seed does not apply to rlc: the circuit has no random part")
    doc = read_json(args.spec) if args.spec else {}
    waves = lambda docs: tuple(benchgen.SquareWaveSpec(**w) for w in docs)
    try:
        if args.kind == "rlc":
            params = benchgen.RlcParams(**doc.get("params", {}))
            excitations = waves(doc.get("excitations", ()))
            ds = benchgen.simulate_rlc(params, excitations)
            truth = benchgen.rlc_truth(params, excitations)
        else:
            if args.spec:
                spec = benchgen.SynthSystemSpec.from_dict(doc.get("spec", doc))
            else:
                spec = benchgen.default_coupled_spec()
            if args.seed is not None:
                spec = replace(spec, seed=args.seed)
            excitations = tuple(waves(r) for r in doc.get("excitations", ()))
            ds = benchgen.simulate_synth(spec, excitations)
            truth = benchgen.synth_truth(spec, excitations)
    except (TypeError, ValueError) as exc:  # the spec's content does not build a system
        if not args.spec:
            raise
        raise DatasetError(f"{args.spec}: {exc}") from exc
    out = _check_out(args.out, args.overwrite)  # only once the spec has simulated
    emit(ds, out)
    write_json(out / "truth.json", truth)
    print(f"wrote {ds.n_realizations} realizations, {ds.n_channels} channels to {out}")
    return 0


def cmd_prefilter(args: argparse.Namespace) -> int:
    doc = json_object(args.config, "--config") if args.config else {}
    try:
        cfg = _build(PrefilterConfig, **doc)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"--config: {exc}") from exc
    train, _ = split(ingest(args.data, args.manifest), SplitSpec(args.train_fraction))
    report = prefilter(train, cfg)
    write_report_csv(report, train, args.out)
    print(f"kept {len(report.kept)} of {len(train.candidate_indices)} candidates -> {args.out}")
    return 0


def _write_trace_csv(path: str | Path, model: StateSpaceModel, rows) -> None:
    """Write ``(realization, predicted, truth)`` blocks, one line per step and
    channel; block rows follow the model's states, then its outputs."""
    names = list(model.state_names) + list(model.output_names)
    lines = (
        (r, k, name, p, t)
        for r, pred, true in rows
        for name, p_row, t_row in zip(names, pred, true)
        # one channel row converted at a time, so no block is held as floats
        for k, (p, t) in enumerate(zip(p_row.tolist(), t_row.tolist()), start=1)
    )
    write_csv(path, ["realization", "step", "channel", "predicted", "truth"], lines)


def cmd_select(args: argparse.Namespace) -> int:
    from .selection import SubsetEvaluator

    overrides = {"method": args.method, "seed": args.seed, "out": args.out}
    if args.cap:
        try:
            overrides["caps"] = [int(c) for c in args.cap.split(",")]
        except ValueError:
            raise ValueError(f"--cap must be comma-separated integers, got {args.cap!r}") from None
    cfg = RunConfig.load(args.config, overrides)
    cfg.workers = _resolve_workers(args.workers, cfg.workers)
    out = _check_out(cfg.out, args.overwrite)
    # the unsplit recording is freed once split
    train, test = split(ingest(cfg.data, cfg.manifest), SplitSpec(cfg.train_fraction))
    report = prefilter(train, PrefilterConfig(**cfg.prefilter))
    if not report.kept:  # before the output directory is made
        raise DatasetError(
            f"{args.config}: the prefilter kept none of the {len(train.candidate_indices)} candidates; "
            "loosen the 'prefilter' section"
        )
    evaluator = SubsetEvaluator(train, TruncationPolicy(**cfg.truncation), **cfg.cost)

    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", asdict(cfg))
    write_report_csv(report, train, out / "prefilter_report.csv")

    def searches():
        """Run each search, write its files and yield its cost-table row."""
        for cap in cfg.caps:
            for method in cfg.methods:
                if method == "rfe":
                    from .rfe import rfe_select as select
                else:
                    from .ga import ga_select as select
                search = cfg.search(method, cap)
                result = select(evaluator, test, report.kept, search, workers=cfg.workers)
                tag = f"{method}_cap{cap}"
                write_json(out / f"selection_{tag}.json", result.to_dict())
                save_model(result.model, out / f"model_{tag}.json")
                _write_trace_csv(out / f"trace_{tag}.csv", result.model, rollout_traces(result.model, test))
                if method == "ga":
                    trace = enumerate(result.diagnostics["trace"])
                    write_csv(out / f"ga_trace_cap{cap}.csv", ["generation", "best_J"], trace)
                print(
                    f"{method} cap={cap}: selected {len(result.indices)} "
                    f"J_train={result.j_train.J:.6g} J_test={result.j_test.J:.6g}"
                )
                yield method, cap, len(result.indices), result.j_train.J, result.j_test.J

    header = ["method", "cap", "selected_count", "J_train", "J_test"]
    write_csv(out / "cost_table.csv", header, searches())
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if args.horizon < 0:
        raise ValueError(f"--horizon must not be negative, got {args.horizon}")
    model = load_model(args.model)
    _, test = split(ingest(args.data, args.manifest), SplitSpec(args.train_fraction))
    if test.dt != model.dt:
        raise DatasetError(f"{args.model}: the model's dt is {model.dt} s but the dataset's is {test.dt} s")
    # the first steps of select's trace: a step's prediction reads no later step
    traces = [(r, p[:, : args.horizon], t[:, : args.horizon]) for r, p, t in rollout_traces(model, test)]
    _write_trace_csv(args.out, model, traces)
    print(f"wrote prediction trace to {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    table = Path(args.run) / "cost_table.csv"
    if not table.exists():
        raise DatasetError(f"no cost_table.csv under {args.run}")
    try:
        text = table.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{table}: not UTF-8 text: {exc}") from exc
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
