"""Shared machinery for subset-scoring selection methods.

Both selection methods score a candidate subset the same way: fit the
discrete model, roll it out over the training realizations from their true
initial states, and evaluate the normalized MSE cost. ``SubsetEvaluator``
wraps that pipeline with a memo cache, so repeated queries cost a single fit.
One evaluator is built per selection run and holds its training set,
truncation policy, scale floor and cache; every selector and every cap of the
run share it.

A selector names the pool it searches (RFE's merged pool, the GA's pool).
For each such pool of at most ``REDUCED_POOL_MAX`` channels the evaluator
builds, once, and keeps its ``PoolReduction`` (the triangular factor every
subset of the pool is fitted from) and its ``RolloutTruth`` (the rows a
rollout is scored against); subsets of a wider pool, or of no pool, are
fitted from their own snapshots. A subset is scored by one rollout of all
its realizations. Fits from different pools agree to round-off, not bit for
bit, so a cost is cached under the pool it was fitted from and the subset: a
query reads only a cost fitted from the pool it names, whatever other
searches ran before it. The winner's reported model and costs come from one
fit on its own snapshots, whatever pool found it.

So a cost is a pure function of (training data, pool, subset,
configuration): a search's result depends neither on the searches before it
nor on where its costs were computed, and every (method, cap) result of a
run is the one that cap alone writes, for any worker count. A pool is built
in the parent before the workers fork, so every worker fits from the
parent's factor. ``evaluate_subsets``' workers return breakdowns that land
in the parent's cache; a GA restart run in a worker returns only its result.
Workers fit and roll out with numpy alone: nothing is imported before a fork.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .cost import ChannelScales, CostBreakdown, RolloutTruth, pooled_std, rollout_cost
from .datamodel import TimeSeriesDataset, write_json
from .dmdc import PoolReduction, StateSpaceModel, TruncationPolicy, fit_model
from .errors import DegenerateSnapshots

INFEASIBLE = float("inf")

# The widest pool given a reduction. Its QR costs about as much as
# (2c / (2s + m + p))^2 fits of s-state subsets from their own snapshots, and
# its stack holds 2c + m + p rows of the recording: a 741-channel pool (L = 957)
# gained no GA time and raised peak RSS by 30 MB.
REDUCED_POOL_MAX = 64


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
        return {
            "indices": list(self.indices),
            "names": list(self.names),
            "method": self.method,
            "j_train": asdict(self.j_train),
            "j_test": asdict(self.j_test),
            "diagnostics": self.diagnostics,
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


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
        # (pool key, sorted subset) -> cost of the subset fitted from that pool
        self._cache: dict[tuple[tuple[int, ...] | None, tuple[int, ...]], CostBreakdown | None] = {}
        self._named: tuple[tuple[int, ...] | None, tuple[int, ...] | None] = (None, None)
        self._pools: dict[tuple[int, ...], tuple[PoolReduction, RolloutTruth]] = {}
        self.fit_count = 0

    def pool_key(self, pool: Sequence[int] | None) -> tuple[int, ...] | None:
        """The key a cost fitted from ``pool`` is cached under: the sorted
        pool if it gets a reduction, else None, as for no pool, since both fit
        a subset from its own snapshots. The last pool named is remembered, so
        queries that name their pool by one tuple work its key out once."""
        if pool is None:
            return None
        pool = tuple(pool)  # the same object if ``pool`` is a tuple
        if pool is not self._named[0]:
            key = tuple(sorted(set(pool)))
            self._named = (pool, key if len(key) <= REDUCED_POOL_MAX else None)
        return self._named[1]

    def searched_pool(self, pool: Sequence[int] | None) -> tuple[PoolReduction, RolloutTruth] | None:
        """The reduction and the rollout truth of ``pool``, built on first use
        and kept; a caller that forks workers builds them first, so that the
        workers inherit them. None where ``pool_key`` is None."""
        key = self.pool_key(pool)
        if key is not None and key not in self._pools:
            self._pools[key] = (PoolReduction.of(self.train, key), RolloutTruth.of(self.train, key))
        return None if key is None else self._pools[key]

    def scales_for(self, subset: Sequence[int]) -> ChannelScales:
        sigma_x = np.maximum(self.std[list(subset)], self.scale_floor)
        return ChannelScales(sigma_x=sigma_x, sigma_y=self._sigma_y, floor=self.scale_floor)

    def fit(self, subset: Sequence[int], pool: Sequence[int] | None = None) -> StateSpaceModel:
        """Model of ``subset``, fitted from the reduction of ``pool`` (a
        superset of it), or of ``subset`` itself by default or when ``pool``
        is not reduced."""
        self.fit_count += 1
        reduced = self.searched_pool(pool)
        return fit_model(self.train, list(subset), self.policy, reduced[0] if reduced else None)

    def breakdown(
        self, subset: Sequence[int], pool: Sequence[int] | None = None
    ) -> CostBreakdown | None:
        """Training cost of ``subset`` fitted as ``fit`` does, or None if the
        fit is degenerate. Memoized by (pool key, subset): a query that names
        another pool never reads this cost."""
        pool = self.pool_key(pool)
        key = tuple(sorted(subset))
        if (pool, key) in self._cache:
            return self._cache[pool, key]
        reduced = self.searched_pool(pool)
        data = reduced[1] if reduced else self.train
        try:
            result = rollout_cost(self.fit(key, pool), data, key, self.scales_for(key))
            if not math.isfinite(result.J):
                result = None
        except DegenerateSnapshots:
            result = None
        self._cache[pool, key] = result
        return result

    def evaluate(self, subset: Sequence[int], pool: Sequence[int] | None = None) -> float:
        """Training cost as a scalar; degenerate or diverging fits score +inf."""
        b = self.breakdown(subset, pool)
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
    """Result for the subset that won under ``subset_key``: one fit of its
    model from its own snapshots, whichever pool the search reduced, and that
    model's costs on the training set and on ``test``. So the model and its
    costs do not depend on the pool; its training cost agrees with the
    search's to round-off."""
    j, _, winner = best
    if not math.isfinite(j):
        raise DegenerateSnapshots("every candidate subset failed to fit")
    model = evaluator.fit(winner)
    scales = evaluator.scales_for(winner)
    return SelectionResult(
        indices=winner,
        names=tuple(evaluator.train.names[i] for i in winner),
        method=method,
        j_train=rollout_cost(model, evaluator.train, winner, scales),
        j_test=rollout_cost(model, test, winner, scales),
        diagnostics=diagnostics,
        model=model,
    )


# --- deterministic parallel evaluation -------------------------------------

_WORKER_EVAL: SubsetEvaluator | None = None


def _init_worker(evaluator: SubsetEvaluator) -> None:
    global _WORKER_EVAL
    _WORKER_EVAL = evaluator


def _call_in_worker(fn: Callable[..., Any], item: Any) -> Any:
    assert _WORKER_EVAL is not None
    return fn(item, evaluator=_WORKER_EVAL)


def _map_in_workers(
    fn: Callable[..., Any], items: Sequence[Any], workers: int, evaluator: SubsetEvaluator, pool
) -> list[Any]:
    """``fn(item, evaluator=...)`` of each item, in order, in ``workers``
    forked processes. The reduction of ``pool`` is built first, so every
    worker fits from the parent's factor; a worker gets ``evaluator`` once,
    when it starts, with the cache and reductions as they stand."""
    evaluator.searched_pool(pool)
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(evaluator,)) as executor:
        return list(executor.map(partial(_call_in_worker, fn), items))


def _breakdowns(
    chunk: list[tuple[int, ...]], pool: tuple[int, ...] | None, *, evaluator: SubsetEvaluator
) -> list[CostBreakdown | None]:
    return [evaluator.breakdown(s, pool) for s in chunk]


def evaluate_subsets(
    subsets: list[tuple[int, ...]],
    evaluator: SubsetEvaluator,
    workers: int = 1,
    pool: Sequence[int] | None = None,
) -> list[float]:
    """Score many subsets of ``pool``, optionally across processes.

    Workers score only the distinct subsets missing from ``evaluator``'s cache
    and their breakdowns are stored there. The returned list is aligned with
    ``subsets`` regardless of scheduling, so any reduction over it is
    worker-count independent.
    """
    pool = evaluator.pool_key(pool)
    todo = []
    if workers > 1:
        keys = dict.fromkeys(tuple(sorted(s)) for s in subsets)
        todo = [k for k in keys if (pool, k) not in evaluator._cache]
    if len(todo) >= 4:
        size = math.ceil(len(todo) / (workers * 4))
        chunks = [todo[i : i + size] for i in range(0, len(todo), size)]
        parts = _map_in_workers(partial(_breakdowns, pool=pool), chunks, workers, evaluator, pool)
        for chunk, part in zip(chunks, parts):
            evaluator._cache.update(((pool, s), b) for s, b in zip(chunk, part))
    return [evaluator.evaluate(s, pool) for s in subsets]


def run_restarts(
    fn: Callable[..., Any],
    n_restarts: int,
    workers: int = 1,
    *,
    evaluator: SubsetEvaluator,
    pool: Sequence[int] | None = None,
) -> list[Any]:
    """Run independent restarts ``fn(r, evaluator=...)`` that search
    ``pool``, preserving restart order; a restart run in a worker returns
    only its result."""
    if workers <= 1 or n_restarts <= 1:
        return [fn(r, evaluator=evaluator) for r in range(n_restarts)]
    return _map_in_workers(fn, range(n_restarts), workers, evaluator, pool)
