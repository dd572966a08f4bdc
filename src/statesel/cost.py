"""Unified normalized MSE cost on predicted states and outputs.

The cost is the sum of two averaged squared-error terms, one over the selected
state channels and one over the output channels, each error divided by a
per-channel scale computed on the training set only:

    J = (1/(n L)) sum_i sum_k ((xh_i(k) - x_i(k)) / sigma_x_i)^2
      + (1/(p L)) sum_j sum_k ((yh_j(k) - y_j(k)) / sigma_y_j)^2

Scales are pooled population standard deviations over all training samples of
a channel, floored to keep near-constant channels from blowing up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import TimeSeriesDataset
from .dmdc import StateSpaceModel, channel_rows, rollout
from .errors import DatasetError
from .prefilter import ROW_BLOCK


@dataclass(frozen=True)
class ChannelScales:
    """Per-channel normalizers for the cost; every entry is at least ``floor``."""

    sigma_x: np.ndarray
    sigma_y: np.ndarray
    floor: float

    def __post_init__(self):
        sx = np.asarray(self.sigma_x, dtype=float)
        sy = np.asarray(self.sigma_y, dtype=float)
        if not self.floor > 0:
            raise ValueError(f"scale floor must be positive, got {self.floor}")
        if np.any(sx < self.floor) or np.any(sy < self.floor):
            raise ValueError(f"scales below the floor {self.floor}; clip them with np.maximum first")
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "sigma_y", sy)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Total cost with its state and output terms and the sizes they averaged over."""

    J: float
    J_state: float
    J_output: float
    n: int
    p: int
    L: int


def pooled_std(ds: TimeSeriesDataset) -> np.ndarray:
    """Population standard deviation of every channel, pooled across
    realizations. Worked out ``ROW_BLOCK`` rows at a time, so that its
    temporary (the deviations from the mean) is no copy of the recording;
    each row's reduction is the same."""
    data = ds.data
    return np.concatenate([data[b : b + ROW_BLOCK].std(axis=1) for b in range(0, len(data), ROW_BLOCK)])


def cost(
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    true_x: np.ndarray,
    true_y: np.ndarray,
    scales: ChannelScales,
) -> CostBreakdown:
    """Evaluate the normalized MSE of predictions against ground truth."""
    pred_x, pred_y, true_x, true_y = (
        np.asarray(m, dtype=float) for m in (pred_x, pred_y, true_x, true_y)
    )
    if pred_x.shape != true_x.shape or pred_y.shape != true_y.shape:
        raise DatasetError("prediction and truth shapes disagree")
    if pred_x.shape[1] != pred_y.shape[1]:
        raise DatasetError("state and output column counts disagree")
    n, L = pred_x.shape
    p = pred_y.shape[0]
    if L < 1:
        raise DatasetError("cost needs at least one column")
    if scales.sigma_x.shape[0] != n or scales.sigma_y.shape[0] != p:
        raise DatasetError("scales do not match prediction dimensions")
    j_state = float(scaled_mse(pred_x, true_x, scales.sigma_x))
    j_output = float(scaled_mse(pred_y, true_y, scales.sigma_y))
    return CostBreakdown(J=j_state + j_output, J_state=j_state, J_output=j_output, n=n, p=p, L=L)


def scaled_mse(
    pred: np.ndarray, true: np.ndarray, sigma: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Mean of ``((pred - true) / sigma)^2`` over each trailing ``rows x L``
    block, ``sigma`` one scale per row: one pairwise sum per block, so a
    block of a stack scores as it does alone. ``out`` may be ``pred``, which
    then holds the squared errors."""
    # a diverged prediction overflows here; its J is inf or NaN, which the
    # evaluator scores as infeasible
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.subtract(pred, true, out=out)
        e /= sigma[..., None]
        e *= e
        return e.sum(axis=(-2, -1)) / (e.shape[-2] * e.shape[-1])


@dataclass(frozen=True)
class RolloutTruth:
    """What an open-loop rollout of the states ``channels`` over a dataset is
    scored against, stacked once for any subset of them; no other code slices
    a recording for a rollout.

    Realizations lie side by side, each from its column in ``starts``. ``x0``
    holds each realization's initial states, one column each; ``V`` the
    inputs that drive steps ``1..l-1``; ``Xp`` and ``Yp`` the recorded states
    and outputs at those steps. ``roles`` may name other (inputs, outputs).
    """

    channels: tuple[int, ...]
    x0: np.ndarray
    V: np.ndarray
    Xp: np.ndarray
    Yp: np.ndarray
    starts: tuple[int, ...]

    @classmethod
    def of(cls, ds: TimeSeriesDataset, state_idx: Sequence[int], roles=None) -> "RolloutTruth":
        idx, data, k = list(state_idx), ds.data, ds.pairs
        inputs, outputs = roles or (ds.input_indices, ds.output_indices)
        return cls(
            channels=tuple(idx),
            x0=data[np.ix_(idx, ds.starts)],
            V=data[np.ix_(inputs, k)],
            Xp=data[np.ix_(idx, k + 1)],
            Yp=data[np.ix_(outputs, k + 1)],
            # realization r has lost one column to each realization before it
            starts=tuple((ds.starts - np.arange(len(ds.starts))).tolist()),
        )


def rollout_traces(
    model: StateSpaceModel, ds: TimeSeriesDataset
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per-realization ``(realization, predicted, truth)`` blocks, each with
    the model's states above its outputs, every channel bound by its name.

    Each realization starts from its true initial state and is driven by its
    recorded inputs; steps ``1..l-1`` are paired with the recorded states and
    outputs. All realizations are rolled out in one call.
    """
    names = (model.state_names, model.input_names, model.output_names)
    try:
        idx = [[ds.index_of(n) for n in group] for group in names]
    except DatasetError as exc:
        raise DatasetError(f"model channels missing from dataset: {exc}") from exc
    truth = RolloutTruth.of(ds, idx[0], roles=idx[1:])
    pred = np.vstack(rollout(model, truth.x0, truth.V, truth.starts))
    cuts = truth.starts[1:]
    blocks = zip(np.hsplit(pred, cuts), np.hsplit(np.vstack([truth.Xp, truth.Yp]), cuts))
    return [(r, p, t) for r, (p, t) in enumerate(blocks)]


def rollout_cost(
    model: StateSpaceModel,
    data: TimeSeriesDataset | RolloutTruth,
    state_idx: Sequence[int],
    scales: ChannelScales,
) -> CostBreakdown:
    """Cost of one rollout over every realization of ``data``, realizations
    concatenated columnwise, scored as ``rollout_traces`` pairs them.

    ``data`` is a dataset, or the ``RolloutTruth`` of a pool of its channels
    that holds ``state_idx``, which scores the same from rows stacked once
    per pool.
    """
    truth = data if isinstance(data, RolloutTruth) else RolloutTruth.of(data, state_idx)
    rows = channel_rows(truth.channels, state_idx)
    Xh, Yh = rollout(model, truth.x0[rows], truth.V, truth.starts)
    return cost(Xh, Yh, truth.Xp[rows], truth.Yp, scales)
