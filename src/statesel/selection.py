"""Shared machinery for subset-scoring selection methods.

Both selection methods score a candidate subset the same way: assemble
training snapshots for the subset, fit the discrete model, roll it out over
the training realizations from their true initial states, and evaluate the
normalized MSE cost. ``SubsetEvaluator`` wraps that pipeline with a memo cache
keyed by the subset, so repeated queries cost a single fit. One evaluator is
built per selection run and holds its training set, truncation policy, scale
floor and cache; every selector and every cap of the run share it, so a
subset scored by one is never fitted again by another.

Evaluations are pure functions of (training data, subset, configuration), so
distributing them over a worker pool and reducing with a total order gives
results independent of the worker count. Pool workers return cost breakdowns
that land in the parent's cache, so serial and parallel callers see the same
cache.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .cost import ChannelScales, CostBreakdown, pooled_std, rollout_cost
from .datamodel import TimeSeriesDataset
from .dmdc import StateSpaceModel, TruncationPolicy, fit_model
from .errors import DegenerateSnapshots

INFEASIBLE = float("inf")


@dataclass
class SelectionResult:
    """Chosen candidate indices with cost breakdowns and method provenance.

    ``indices`` are manifest indices of kept candidate channels, sorted
    ascending. ``diagnostics`` carries per-stage artifacts (elimination order,
    shortlists, imports, search trace) and is JSON-serializable. ``model`` is
    the winner's fitted model; it is not part of the saved document.
    """

    indices: tuple[int, ...]
    names: tuple[str, ...]
    method: str
    j_train: CostBreakdown
    j_test: CostBreakdown
    diagnostics: dict = field(default_factory=dict)
    model: StateSpaceModel = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        def breakdown(b: CostBreakdown) -> dict:
            return {
                "J": b.J,
                "J_state": b.J_state,
                "J_output": b.J_output,
                "n": b.n,
                "p": b.p,
                "L": b.L,
            }

        return {
            "indices": list(self.indices),
            "names": list(self.names),
            "method": self.method,
            "j_train": breakdown(self.j_train),
            "j_test": breakdown(self.j_test),
            "diagnostics": self.diagnostics,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


class SubsetEvaluator:
    """Fit-and-score pipeline for candidate subsets on a fixed training set.

    ``fit_count`` counts the model fits made in this process, cache misses
    and winner fits alike; fits made by pool workers are not counted.
    """

    def __init__(
        self,
        train: TimeSeriesDataset,
        policy: TruncationPolicy | None = None,
        scale_floor: float = 1e-9,
    ):
        self.train = train
        self.policy = policy or TruncationPolicy()
        self.scale_floor = scale_floor
        self.std = pooled_std(train)
        self._sigma_y = np.maximum(self.std[list(train.output_indices)], scale_floor)
        self._cache: dict[tuple[int, ...], CostBreakdown | None] = {}
        self.fit_count = 0

    def scales_for(self, subset: Sequence[int]) -> ChannelScales:
        sigma_x = np.maximum(self.std[list(subset)], self.scale_floor)
        return ChannelScales(sigma_x=sigma_x, sigma_y=self._sigma_y, floor=self.scale_floor)

    def fit(self, subset: Sequence[int]) -> StateSpaceModel:
        self.fit_count += 1
        return fit_model(self.train, list(subset), self.policy)

    def breakdown(self, subset: Sequence[int]) -> CostBreakdown | None:
        """Training cost of a subset, or None if the fit is degenerate. Memoized."""
        key = tuple(sorted(subset))
        if key in self._cache:
            return self._cache[key]
        try:
            result = rollout_cost(self.fit(key), self.train, key, self.scales_for(key))
            if not math.isfinite(result.J):
                result = None
        except DegenerateSnapshots:
            result = None
        self._cache[key] = result
        return result

    def evaluate(self, subset: Sequence[int]) -> float:
        """Training cost as a scalar; degenerate or diverging fits score +inf."""
        b = self.breakdown(subset)
        return INFEASIBLE if b is None else b.J


def subset_key(j: float, subset: Sequence[int]) -> tuple[float, int, tuple[int, ...]]:
    """Total order used everywhere a best subset is reduced: cost, then size,
    then lexicographic indices. Makes reductions associative and tie-breaks
    deterministic."""
    t = tuple(subset)
    return (j, len(t), t)


def finish_winner(
    evaluator: SubsetEvaluator,
    test: TimeSeriesDataset,
    best: tuple[float, int, tuple[int, ...]],
    method: str,
    diagnostics: dict,
) -> SelectionResult:
    """Result for the subset that won under ``subset_key``: its cached training
    cost, one fit of its model, and that model's cost on ``test``."""
    j, _, winner = best
    if not math.isfinite(j):
        raise DegenerateSnapshots("every candidate subset failed to fit")
    j_train = evaluator.breakdown(winner)
    model = evaluator.fit(winner)
    return SelectionResult(
        indices=winner,
        names=tuple(evaluator.train.names[i] for i in winner),
        method=method,
        j_train=j_train,
        j_test=rollout_cost(model, test, winner, evaluator.scales_for(winner)),
        diagnostics=diagnostics,
        model=model,
    )


# --- deterministic parallel evaluation -------------------------------------

_WORKER_EVAL: SubsetEvaluator | None = None


def _worker_pool(workers: int, **kwargs) -> ProcessPoolExecutor:
    """A process pool whose forked workers inherit ``scipy.linalg``.

    Every worker rolls models out, and rollout imports ``scipy.linalg`` on
    first use; importing it here, before the fork, spares each worker that
    import.
    """
    import scipy.linalg  # noqa: F401

    return ProcessPoolExecutor(max_workers=workers, **kwargs)


def _init_worker(train: TimeSeriesDataset, policy: TruncationPolicy, scale_floor: float) -> None:
    global _WORKER_EVAL
    _WORKER_EVAL = SubsetEvaluator(train, policy, scale_floor)


def _eval_chunk(chunk: list[tuple[int, ...]]) -> list[CostBreakdown | None]:
    assert _WORKER_EVAL is not None
    return [_WORKER_EVAL.breakdown(s) for s in chunk]


def evaluate_subsets(
    subsets: list[tuple[int, ...]],
    evaluator: SubsetEvaluator,
    workers: int = 1,
) -> list[float]:
    """Score many subsets, optionally across processes.

    Workers score only the distinct subsets missing from ``evaluator``'s cache
    and their breakdowns are stored there. The returned list is aligned with
    ``subsets`` regardless of scheduling, so any reduction over it is
    worker-count independent.
    """
    todo = []
    if workers > 1:
        keys = dict.fromkeys(tuple(sorted(s)) for s in subsets)
        todo = [k for k in keys if k not in evaluator._cache]
    if len(todo) >= 4:
        size = math.ceil(len(todo) / (workers * 4))
        chunks = [todo[i : i + size] for i in range(0, len(todo), size)]
        with _worker_pool(
            workers,
            initializer=_init_worker,
            initargs=(evaluator.train, evaluator.policy, evaluator.scale_floor),
        ) as pool:
            for chunk, part in zip(chunks, pool.map(_eval_chunk, chunks)):
                evaluator._cache.update(zip(chunk, part))
    return [evaluator.evaluate(s) for s in subsets]


def run_restarts(
    fn: Callable[[int], Any],
    n_restarts: int,
    workers: int = 1,
) -> list[Any]:
    """Run independent restart computations, preserving restart order."""
    if workers <= 1 or n_restarts <= 1:
        return [fn(r) for r in range(n_restarts)]
    with _worker_pool(workers) as pool:
        return list(pool.map(fn, range(n_restarts)))
