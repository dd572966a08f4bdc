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
from .dmdc import StateSpaceModel, rollout
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
    stacked = np.hstack(ds.realizations)
    return stacked.std(axis=1)


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
    ex = (pred_x - true_x) / scales.sigma_x[:, None]
    ey = (pred_y - true_y) / scales.sigma_y[:, None]
    j_state = float(np.sum(ex * ex) / (n * L))
    j_output = float(np.sum(ey * ey) / (p * L))
    return CostBreakdown(J=j_state + j_output, J_state=j_state, J_output=j_output, n=n, p=p, L=L)


def rollout_traces(
    model: StateSpaceModel, ds: TimeSeriesDataset, state_idx: Sequence[int]
) -> list[dict]:
    """Per-realization predicted and true trajectories.

    Each rollout starts from the realization's true initial state and is
    driven by the recorded inputs; steps ``1..l-1`` are paired with the
    recorded states and outputs.
    """
    out = []
    state_idx = list(state_idx)
    in_idx = list(ds.input_indices)
    out_idx = list(ds.output_indices)
    for r, arr in enumerate(ds.realizations):
        Xh, Yh = rollout(model, arr[state_idx, 0], arr[in_idx, :-1])
        out.append(
            {
                "realization": r,
                "pred_x": Xh,
                "pred_y": Yh,
                "true_x": arr[state_idx, 1:],
                "true_y": arr[out_idx, 1:],
            }
        )
    return out


def rollout_cost(
    model: StateSpaceModel,
    ds: TimeSeriesDataset,
    state_idx: Sequence[int],
    scales: ChannelScales,
) -> CostBreakdown:
    """Score ``rollout_traces`` over every realization of ``ds``, realizations
    concatenated columnwise."""
    traces = rollout_traces(model, ds, state_idx)
    keys = ("pred_x", "pred_y", "true_x", "true_y")
    return cost(*(np.hstack([tr[k] for tr in traces]) for k in keys), scales)
