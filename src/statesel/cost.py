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


@dataclass(frozen=True)
class CostBreakdown:
    """Total cost with its state and output terms and the sizes they averaged over."""

    J: float
    J_state: float
    J_output: float
    n: int
    p: int
    L: int


def pooled_std(ds: TimeSeriesDataset) -> np.ndarray:
    """Population standard deviation of every channel, pooled across realizations."""
    return ds.data.std(axis=1)


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
    # a diverged prediction overflows here; its J is inf or NaN, which the
    # evaluator scores as infeasible
    with np.errstate(over="ignore", invalid="ignore"):
        ex = (pred_x - true_x) / scales.sigma_x[:, None]
        ey = (pred_y - true_y) / scales.sigma_y[:, None]
        j_state = float(np.sum(ex * ex) / (n * L))
        j_output = float(np.sum(ey * ey) / (p * L))
    return CostBreakdown(J=j_state + j_output, J_state=j_state, J_output=j_output, n=n, p=p, L=L)


@dataclass(frozen=True)
class RolloutTruth:
    """What an open-loop rollout of the states ``channels`` over a dataset is
    scored against, stacked once for any subset of them.

    Realizations lie side by side, each from its column in ``starts``. ``x0``
    holds each realization's initial states, one column each; ``V`` the
    inputs that drive steps ``1..l-1``; ``Xp`` and ``Yp`` the recorded states
    and outputs at those steps.
    """

    channels: tuple[int, ...]
    x0: np.ndarray
    V: np.ndarray
    Xp: np.ndarray
    Yp: np.ndarray
    starts: tuple[int, ...]

    @classmethod
    def of(cls, ds: TimeSeriesDataset, state_idx: Sequence[int]) -> "RolloutTruth":
        idx, data, k = list(state_idx), ds.data, ds.pairs
        return cls(
            channels=tuple(idx),
            x0=data[np.ix_(idx, ds.starts)],
            V=data[np.ix_(ds.input_indices, k)],
            Xp=data[np.ix_(idx, k + 1)],
            Yp=data[np.ix_(ds.output_indices, k + 1)],
            # realization r has lost one column to each realization before it
            starts=tuple((ds.starts - np.arange(len(ds.starts))).tolist()),
        )


def rollout_traces(
    model: StateSpaceModel, ds: TimeSeriesDataset, state_idx: Sequence[int]
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per-realization ``(realization, predicted, truth)`` blocks, each with
    the states ``state_idx`` above the outputs.

    Each realization starts from its true initial state and is driven by its
    recorded inputs; steps ``1..l-1`` are paired with the recorded states and
    outputs. All realizations are rolled out in one call.
    """
    truth = RolloutTruth.of(ds, state_idx)
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
