"""The three workloads: how each makes its inputs from a seed, the select
command it runs, and the checks its outputs must pass.

Inputs are written by the program's own ``statesel generate`` command from a
spec the workload derives from the seed, so the measured commands read files
exactly as a user's run would. The checks never compare against stored output:
they recompute what they need with ``oracle``.

``oracle`` (and with it numpy) is imported only inside the checks. A child's
peak RSS as the kernel reports it includes the parent's high-water mark at the
moment of spawning, so the harness stays small until every timed command has
run.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

# Runs ``statesel <args...>`` untimed; returns the exit code.
Cli = Callable[[list[str]], int]

RLC_ROUNDOFF_J = 1e-16  # exact fits cost about 1e-26; any real misfit is far above
RLC_STATE_CORR = 0.999999
ORACLE_RTOL = 1e-6

TRAIN_FRACTION = 0.8
MAX_CONDITION = 1e9
SCALE_FLOOR = 1e-9
PREFILTER = {
    "input_corr_threshold": 0.95,
    "variance_epsilon": 1e-12,
    "dedupe_corr_threshold": 0.999999,
}
# The program's documented RFE defaults, pinned so that a change of default
# does not silently change the benchmark.
RFE = {"block_fraction": 0.2, "cross_top_k": 2, "search_limit": 24}
# A quarter of the program's default population and 2 of its 10 restarts, one
# per worker on coupled-both-w2, so that a select takes a few seconds and a
# run can time several of them; the other GA settings are the program's
# defaults.
GA = {"population_size": 120, "restarts": 2}


@dataclass(frozen=True)
class Workload:
    """One ``statesel select`` run on generated data.

    ``ga`` is the GA config section passed to select: ``GA`` by default; the
    small variants of the benchmark's own tests override it.
    """

    name: str
    method: str
    cap: int
    workers: int
    ga: dict = field(default_factory=lambda: dict(GA))

    @property
    def methods(self) -> list[str]:
        return ["rfe", "ga"] if self.method == "both" else [self.method]

    def generate(self, seed: int, data_dir: Path, cli: Cli) -> None:
        raise NotImplementedError

    def select_config(self, data_dir: Path, out_dir: Path, seed: int) -> dict:
        """The config file; method, cap and workers go on the command line."""
        return {
            "data": str(data_dir),
            "manifest": str(data_dir / "manifest.json"),
            "out": str(out_dir),
            "seed": seed,
            "train_fraction": TRAIN_FRACTION,
            "prefilter": PREFILTER,
            "truncation": {"max_condition": MAX_CONDITION},
            "cost": {"scale_floor": SCALE_FLOOR},
            "rfe": RFE,
            "ga": self.ga,
        }

    def select_args(self, config: Path) -> list[str]:
        return [
            "select", "--config", str(config), "--method", self.method,
            "--cap", str(self.cap), "--workers", str(self.workers), "--overwrite",
        ]

    def prefilter_args(self, data_dir: Path, out: Path) -> list[str]:
        return [
            "prefilter", "--data", str(data_dir), "--manifest", str(data_dir / "manifest.json"),
            "--train-fraction", str(TRAIN_FRACTION), "--config", json.dumps(PREFILTER),
            "--out", str(out),
        ]

    def check(self, data_dir: Path, run_dir: Path) -> list[str]:
        """Every way the run's outputs break the workload's rules; empty when correct."""
        import oracle

        data = oracle.load_data(data_dir)
        train, test = oracle.split(data, TRAIN_FRACTION)
        rows = oracle.read_report(run_dir / "prefilter_report.csv")
        errors = oracle.check_prefilter(rows, train, PREFILTER)
        kept = [int(r["index"]) for r in rows if r["decision"] == "kept"]
        sels, table_errors = self._read_selections(data, run_dir)
        errors += table_errors
        if not errors:
            errors += self.check_selections(data_dir, data, train, test, kept, sels)
        return errors

    def check_selections(self, data_dir, data, train, test, kept, sels) -> list[str]:
        raise NotImplementedError

    def _read_selections(self, data, run_dir: Path) -> tuple[dict, list[str]]:
        """Selection documents by method, checked against the cost table and manifest."""
        with open(run_dir / "cost_table.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        want = [(m, str(self.cap)) for m in self.methods]
        got = [(r["method"], r["cap"]) for r in table]
        if got != want:
            return {}, [f"cost table rows {got} != {want}"]
        sels, errors = {}, []
        for row in table:
            m = row["method"]
            sel = json.loads((run_dir / f"selection_{m}_cap{self.cap}.json").read_text())
            sels[m] = sel
            if [data.names[i] for i in sel["indices"]] != sel["names"]:
                errors.append(f"{m}: indices {sel['indices']} do not name {sel['names']}")
            if not 1 <= len(sel["indices"]) <= self.cap or int(row["selected_count"]) != len(sel["indices"]):
                errors.append(f"{m}: {len(sel['indices'])} states against cap {self.cap}")
            if (float(row["J_train"]), float(row["J_test"])) != (sel["j_train"]["J"], sel["j_test"]["J"]):
                errors.append(f"{m}: cost table and selection document disagree")
        return sels, errors


def _generate(cli: Cli, args: list[str]) -> None:
    if cli(["generate", *args, "--overwrite"]) != 0:
        raise RuntimeError(f"statesel generate {' '.join(args)} failed")


def _oracle_errors(method: str, sel: dict, train, test) -> list[str]:
    """The selection's reported train and test costs against the oracle's."""
    import oracle

    j_train, j_test = oracle.subset_costs(train, test, sel["indices"])
    errors = []
    for label, got, want in (
        ("J_train", sel["j_train"]["J"], j_train),
        ("J_test", sel["j_test"]["J"], j_test),
    ):
        if not oracle.close(got, want, ORACLE_RTOL):
            errors.append(f"{method}: {label} {got!r} but the oracle gives {want!r}")
    return errors


# --- rlc-both ------------------------------------------------------------------

# Square-wave sources of the five realizations: (offset, amplitude, period).
# Periods sit near the circuit's response time so the states keep slewing.
RLC_SOURCES = (
    (0.0, 1.0, 0.005),
    (2.0, 1.0, 0.007),
    (-1.0, 0.5, 0.009),
    (0.5, 2.0, 0.011),
    (3.0, 1.5, 0.012),
)
RLC_PARAMS = {"R": 1.0, "L": 1e-3, "C": 1e-3, "dt": 1e-3}


@dataclass(frozen=True)
class RlcBoth(Workload):
    """Series RLC with two analytic states among 43 derived candidates.

    The seed sets each source's phase and, within 10 %, its amplitude.
    """

    steps: int = 400

    def generate(self, seed: int, data_dir: Path, cli: Cli) -> None:
        rng = random.Random(seed)
        sources = [
            {
                "offset": offset,
                "amplitude": amplitude * rng.uniform(0.9, 1.1),
                "period": period,
                "phase": rng.uniform(0.0, period),
            }
            for offset, amplitude, period in RLC_SOURCES
        ]
        params = {**RLC_PARAMS, "duration": self.steps * RLC_PARAMS["dt"]}
        spec = data_dir.with_name("rlc_spec.json")
        spec.write_text(json.dumps({"params": params, "excitations": sources}))
        _generate(cli, ["rlc", "--spec", str(spec), "--out", str(data_dir)])

    def check_selections(self, data_dir, data, train, test, kept, sels) -> list[str]:
        import numpy as np

        import oracle

        truth = json.loads((data_dir / "truth.json").read_text())
        errors = []
        kept_names = [data.names[i] for i in kept]
        if kept_names != truth["expected_kept"]:
            errors.append(f"prefilter kept {kept_names}, truth expects {truth['expected_kept']}")
        source = data.indices("input")[0]
        states = oracle.rlc_states(truth["params"], [r[source] for r in data.realizations])
        state_rows = np.hstack(states)
        pooled = data.pooled()
        for m, sel in sels.items():
            if len(sel["indices"]) != 2:
                errors.append(f"{m} picked {sel['names']}, not 2 channels")
                continue
            matched = set()
            for i, name in zip(sel["indices"], sel["names"]):
                corr = [oracle.abs_corr(pooled[i], s) for s in state_rows]
                best = int(np.argmax(corr))
                if corr[best] < RLC_STATE_CORR:
                    errors.append(f"{m}: {name} correlates {corr[best]!r} at best with a true state")
                matched.add(best)
            if matched != {0, 1}:
                errors.append(f"{m}: {sel['names']} do not cover both analytic states")
            for label in ("j_train", "j_test"):
                if not sel[label]["J"] < RLC_ROUNDOFF_J:
                    errors.append(f"{m}: {label} {sel[label]['J']!r} above the round-off floor")
            j_train, j_test = oracle.subset_costs(train, test, sel["indices"])
            if not max(j_train, j_test) < RLC_ROUNDOFF_J:
                errors.append(f"{m}: the oracle costs {sel['names']} at {j_train!r}, {j_test!r}")
        if len(sels) == 2 and sels["rfe"]["names"] != sels["ga"]["names"]:
            errors.append(f"RFE picked {sels['rfe']['names']}, GA {sels['ga']['names']}")
        return errors


# --- coupled-both-w2 -----------------------------------------------------------


@dataclass(frozen=True)
class CoupledBoth(Workload):
    """The program's default coupled blocks; the seed sets the measurement noise."""

    def generate(self, seed: int, data_dir: Path, cli: Cli) -> None:
        _generate(cli, ["synth", "--seed", str(seed), "--out", str(data_dir)])

    def check_selections(self, data_dir, data, train, test, kept, sels) -> list[str]:
        import oracle

        sigma = oracle.scales(train)
        best = min(
            oracle.cost(oracle.fit(train, list(s)), train, list(s), sigma)
            for size in range(1, self.cap + 1)
            for s in combinations(kept, size)
        )
        labels = {data.subsystems[i] for i in data.indices("candidate")}
        errors = []
        for m, sel in sels.items():
            spanned = {data.subsystems[i] for i in sel["indices"]}
            if spanned != labels:
                errors.append(f"{m}: {sel['names']} span {sorted(spanned)}, not {sorted(labels)}")
            if not oracle.close(sel["j_train"]["J"], best, ORACLE_RTOL):
                errors.append(f"{m}: J_train {sel['j_train']['J']!r}, oracle minimum {best!r}")
            errors += _oracle_errors(m, sel, train, test)
        return errors


# --- wide-rfe ------------------------------------------------------------------

WIDE_SUBSYSTEMS = (  # name, output gain, sign of the output row
    ("A", 1e4, 1.0),
    ("B", 1e2, -1.0),
    ("C", 1.0, 1.0),
)
WIDE_LAYOUT = 20260  # fixes which derived channels exist; the seed fixes the rest


@dataclass(frozen=True)
class WideRfe(Workload):
    """Three chained 3-state blocks, each buried in derived channels.

    Per block: ``mixtures`` random mixtures of its states, ``copies`` scaled
    copies of one state (duplicates for the prefilter), ``products`` and
    ``squares`` of states, and ``noises`` channels of pure noise. The layout,
    weights and sources are fixed; the seed sets the noise.
    """

    steps: int = 400
    mixtures: int = 200
    copies: int = 30
    products: int = 40
    squares: int = 20
    noises: int = 42

    def spec(self, seed: int) -> dict:
        layout = random.Random(WIDE_LAYOUT)
        scale = lambda: 10 ** layout.uniform(-1.0, 1.0)
        subsystems = []
        for name, gain, sign in WIDE_SUBSYSTEMS:
            extras = []
            for j in range(self.mixtures):
                w = [layout.gauss(0.0, 1.0) for _ in range(3)]
                extras.append({"name": f"{name}.mix{j}", "kind": "mixture", "weights": w, "scale": scale()})
            for j in range(self.copies):
                w = [0.0, 0.0, 0.0]
                w[j % 3] = 1.0
                extras.append({"name": f"{name}.copy{j}", "kind": "mixture", "weights": w, "scale": scale()})
            for j in range(self.products):
                a, b = layout.sample(range(3), 2)
                extras.append({"name": f"{name}.prod{j}", "kind": "product", "weights": [a, b], "scale": scale()})
            for j in range(self.squares):
                extras.append({"name": f"{name}.sq{j}", "kind": "square", "weights": [j % 3], "scale": scale()})
            for j in range(self.noises):
                extras.append({"name": f"{name}.noise{j}", "kind": "noise", "scale": scale()})
            subsystems.append(
                {
                    "name": name,
                    "A": [[-0.35, 0.0, 0.0], [0.6, -1.1, 0.0], [0.0, 0.8, -2.0]],
                    "B": [1.0, 0.0, 0.0],
                    "C": [[sign, 0.3 * sign, 0.1 * sign]],
                    "output_gain": gain,
                    "extras": extras,
                }
            )
        K = [[0.4, 0.2, 0.0], [0.0, 0.15, 0.0], [0.0, 0.0, 0.0]]
        periods = (2.0, 2.6, 3.4)
        excitations = [
            [
                {
                    "offset": (0.5, 0.25, 0.75)[j] - 0.5 * amp,
                    "amplitude": amp,
                    "period": periods[(r + j) % 3],
                    "phase": layout.uniform(0.0, periods[(r + j) % 3]),
                }
                for j, amp in enumerate((1.0 + 0.4 * r, 1.5 - 0.3 * r, 0.8 + 0.5 * r))
            ]
            for r in range(3)
        ]
        return {
            "spec": {
                "subsystems": subsystems,
                "couplings": [
                    {"src": "A", "dst": "B", "K": K},
                    {"src": "B", "dst": "C", "K": K},
                ],
                "noise_level": 1e-4,
                "dt": 0.1,
                "duration": self.steps * 0.1,
                "seed": seed,
            },
            "excitations": excitations,
        }

    def generate(self, seed: int, data_dir: Path, cli: Cli) -> None:
        spec = data_dir.with_name("wide_spec.json")
        spec.write_text(json.dumps(self.spec(seed)))
        _generate(cli, ["synth", "--spec", str(spec), "--out", str(data_dir)])

    def check(self, data_dir: Path, run_dir: Path) -> list[str]:
        """The common checks plus rule 3 by construction: ``X.copy{j}`` scales
        state ``j % 3`` of block X, so the prefilter must remove it as a
        duplicate of that state's channel ``X.x{j % 3 + 1}``."""
        import oracle

        errors = super().check(data_dir, run_dir)
        for row in oracle.read_report(run_dir / "prefilter_report.csv"):
            block, _, leaf = row["name"].partition(".")
            if not leaf.startswith("copy"):
                continue
            state = f"{block}.x{int(leaf[len('copy'):]) % 3 + 1}"
            if (row["decision"], row["reason"], row["representative"]) != ("removed", "duplicate", state):
                errors.append(f"{row['name']} is {row['decision']} {row['reason']!r}, not a duplicate of {state}")
        return errors

    def check_selections(self, data_dir, data, train, test, kept, sels) -> list[str]:
        import oracle

        sel = sels["rfe"]
        diag = sel["diagnostics"]
        errors = _oracle_errors("rfe", sel, train, test)
        if not set(sel["indices"]) <= set(diag["merged_pool"]):
            errors.append(f"winner {sel['indices']} lies outside the merged pool {diag['merged_pool']}")
        union = sorted({i for s in diag["shortlists"].values() for i in s})
        j_union = oracle.subset_costs(train, test, union)[0]
        if not sel["j_train"]["J"] <= j_union * (1 + ORACLE_RTOL):
            errors.append(f"winner J_train {sel['j_train']['J']!r} above the shortlists' {j_union!r}")
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        RlcBoth(name="rlc-both", method="both", cap=8, workers=1),
        CoupledBoth(name="coupled-both-w2", method="both", cap=3, workers=2),
        WideRfe(name="wide-rfe", method="rfe", cap=3, workers=1),
    )
}
