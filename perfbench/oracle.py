"""Reference computations that the benchmark checks statesel's outputs against.

Nothing here imports statesel. A fit is two ``numpy.linalg.lstsq`` solves, a
rollout is a plain per-step loop and the cost is the normalized MSE written out
again from its definition, so a fault in the program's own fit, rollout or cost
cannot hide in the check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import MAX_CONDITION, SCALE_FLOOR

# Slack for comparing a recomputed correlation or variance with the report.
EVIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class Data:
    """Realizations (channels x steps) with the manifest's names, roles and subsystems."""

    names: tuple[str, ...]
    roles: tuple[str, ...]
    subsystems: tuple[str, ...]
    realizations: tuple[np.ndarray, ...]

    def indices(self, role: str) -> list[int]:
        return [i for i, r in enumerate(self.roles) if r == role]

    def pooled(self) -> np.ndarray:
        return np.hstack(self.realizations)


def load_data(data_dir: Path) -> Data:
    """Read ``manifest.json`` and every ``*.csv`` of a dataset directory, in sorted order."""
    doc = json.loads((data_dir / "manifest.json").read_text())
    names = tuple(c["name"] for c in doc["channels"])
    reals = []
    for path in sorted(data_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        reals.append(rows[[header.index(n) for n in names]])
    return Data(
        names=names,
        roles=tuple(c["role"] for c in doc["channels"]),
        subsystems=tuple(c.get("subsystem", "") for c in doc["channels"]),
        realizations=tuple(reals),
    )


def split(data: Data, fraction: float) -> tuple[Data, Data]:
    """Leading train prefix and trailing test suffix of every realization."""
    cuts = [math.floor(fraction * r.shape[1]) for r in data.realizations]
    part = lambda reals: Data(data.names, data.roles, data.subsystems, tuple(reals))
    return (
        part(r[:, :c] for r, c in zip(data.realizations, cuts)),
        part(r[:, c:] for r, c in zip(data.realizations, cuts)),
    )


@dataclass(frozen=True)
class Model:
    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray


def fit(train: Data, states: list[int]) -> Model:
    """Least-squares ``Xp ~ [Ad Bd][X; V]`` and ``Y ~ Cd X`` by ``lstsq``.

    Singular values below ``1 / MAX_CONDITION`` of the largest are dropped, the
    same cut the program's truncation policy makes.
    """
    ins, outs = train.indices("input"), train.indices("output")
    X = np.hstack([r[states, :-1] for r in train.realizations])
    Xp = np.hstack([r[states, 1:] for r in train.realizations])
    V = np.hstack([r[ins, :-1] for r in train.realizations])
    Y = np.hstack([r[outs, :-1] for r in train.realizations])
    rcond = 1.0 / MAX_CONDITION
    AB = np.linalg.lstsq(np.vstack([X, V]).T, Xp.T, rcond=rcond)[0].T
    Cd = np.linalg.lstsq(X.T, Y.T, rcond=rcond)[0].T
    n = len(states)
    return Model(Ad=AB[:, :n], Bd=AB[:, n:], Cd=Cd)


def rollout(model: Model, x0: np.ndarray, V: np.ndarray) -> np.ndarray:
    """States at steps ``1..K`` of ``x(k+1) = Ad x(k) + Bd v(k)``, one step at a time."""
    X = np.empty((x0.shape[0], V.shape[1]))
    x = x0
    for k in range(V.shape[1]):
        x = model.Ad @ x + model.Bd @ V[:, k]
        X[:, k] = x
    return X


def scales(train: Data) -> np.ndarray:
    """Pooled population standard deviation of every channel, floored."""
    return np.maximum(train.pooled().std(axis=1), SCALE_FLOOR)


def cost(model: Model, data: Data, states: list[int], sigma: np.ndarray) -> float:
    """Normalized MSE of the open-loop rollout from each realization's true start.

    Returns ``inf`` when the rollout leaves the floating-point range.
    """
    ins, outs = data.indices("input"), data.indices("output")
    ex, ey = [], []
    with np.errstate(all="ignore"):
        for r in data.realizations:
            X = rollout(model, r[states, 0], r[ins, :-1])
            ex.append((X - r[states, 1:]) / sigma[states, None])
            ey.append((model.Cd @ X - r[outs, 1:]) / sigma[outs, None])
        ex, ey = np.hstack(ex), np.hstack(ey)
        J = float(np.mean(ex * ex) + np.mean(ey * ey))
    return J if math.isfinite(J) else math.inf


def subset_costs(train: Data, test: Data, states: list[int]) -> tuple[float, float]:
    """Training and test cost of one subset, both scaled by the training split."""
    model = fit(train, states)
    sigma = scales(train)
    return cost(model, train, states, sigma), cost(model, test, states, sigma)


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


# --- prefilter rules ---------------------------------------------------------


def read_report(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_prefilter(rows: list[dict], train: Data, rules: dict) -> list[str]:
    """Recompute each row's evidence with ``np.corrcoef`` and test it against its rule.

    A kept channel must be non-constant and not collinear with any input. A
    removal must meet the bar of the rule it names, with evidence that matches
    the recomputed value. A duplicate's representative must be kept, come
    first and correlate with it past the dedupe bar.
    """
    errors: list[str] = []
    data = train.pooled()
    cand, ins = train.indices("candidate"), train.indices("input")
    by_index = {int(r["index"]): r for r in rows}
    if sorted(by_index) != cand or len(rows) != len(cand):
        return [f"report rows {sorted(by_index)[:5]}... do not cover the {len(cand)} candidates once"]
    kept = {i for i, r in by_index.items() if r["decision"] == "kept"}
    with np.errstate(all="ignore"):
        corr = np.abs(np.corrcoef(data))
    corr = np.nan_to_num(corr)  # constant rows correlate with nothing

    def variance(i: int) -> float:
        span = float(data[i].max() - data[i].min())
        return 0.0 if span == 0.0 else float(np.var(data[i] / span))

    for i, row in sorted(by_index.items()):
        name, reason = train.names[i], row["reason"]
        if row["name"] != name:
            errors.append(f"row {i} names {row['name']!r}, manifest says {name!r}")
            continue
        var = variance(i)
        r_in = max(corr[i, j] for j in ins)
        constant = var < rules["variance_epsilon"]
        collinear = not constant and r_in > rules["input_corr_threshold"]
        if row["decision"] == "kept":
            if constant or collinear:
                errors.append(f"{name} kept, but variance {var:.3g}, input |r| {r_in:.9f}")
            continue
        evidence = float(row["evidence"])
        if reason == "near_constant":
            ok = constant and abs(evidence - var) <= EVIDENCE_TOL
        elif reason == "input_collinear":
            ok = collinear and abs(evidence - r_in) <= EVIDENCE_TOL
        elif reason == "duplicate":
            rep = train.names.index(row["representative"]) if row["representative"] else -1
            ok = (
                not constant
                and not collinear
                and rep in kept
                and rep < i
                and corr[i, rep] >= rules["dedupe_corr_threshold"] - EVIDENCE_TOL
                and abs(evidence - corr[i, rep]) <= EVIDENCE_TOL
            )
        else:
            ok = False
        if not ok:
            errors.append(f"{name} removed as {reason!r} with evidence {evidence!r} breaks its rule")
    return errors


# --- series RLC circuit --------------------------------------------------------


def rlc_states(params: dict, source: list[np.ndarray]) -> list[np.ndarray]:
    """Analytic ZOH states (v_C, i) of a series RLC from rest under each source record.

    Built from the circuit laws ``C dv_C/dt = i`` and ``L di/dt = v_S - R i - v_C``
    and the matrix exponential of the augmented ``[[A, B], [0, 0]] dt`` block.
    The source polarity may differ from the generator's; that flips both states,
    which leaves every absolute correlation unchanged.
    """
    R, L, C, dt = params["R"], params["L"], params["C"], params["dt"]
    M = np.zeros((3, 3))
    M[:2, :2] = [[0.0, 1.0 / C], [-1.0 / L, -R / L]]
    M[1, 2] = 1.0 / L
    E = scipy.linalg.expm(M * dt)
    model = Model(Ad=E[:2, :2], Bd=E[:2, 2:], Cd=np.zeros((0, 2)))
    return [
        np.hstack([np.zeros((2, 1)), rollout(model, np.zeros(2), vs[None, :-1])])
        for vs in source
    ]


def abs_corr(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.corrcoef(a, b)[0, 1]))
