"""Shared machinery for subset-scoring selection methods.

Both selection methods score a candidate subset the same way: fit the
discrete model, roll it out over the training realizations from their true
initial states, and evaluate the normalized MSE cost. ``SubsetEvaluator``
wraps that pipeline with a memo of costs, so repeated queries cost a single
fit. One evaluator is built per selection run and holds its training set,
truncation policy, scale floor and searched pools; every selector and every
cap of the run share it.

A selector names the pool it searches (RFE's merged pool, the GA's pool),
and ``searched_pool`` gives the evaluator's record of it, made on first use
and kept under the sorted pool: its ``RolloutTruth`` (the rows a rollout is
scored against), its ``PoolReduction`` (the triangular factor every subset of
it is fitted from) unless it is wider than ``REDUCED_POOL_MAX``, whose subsets
are fitted from their own snapshots, and ``costs``, the cost ``J`` of each
subset scored from it, one float keyed by the subset's bit row over the
pool's sorted channels, packed into bytes. Queries that name no pool share a
record without either, whose rows span every channel.

A search makes one batch query (``costs``) of bit rows: the sweep once, each
GA generation once, each worker chunk once. The distinct rows the record
lacks are scored in stacks of subsets of one size, each stack with one
stacked fit, Schur factorization, rollout and cost, and each cost bit for bit
the one its subset gets alone. A subset is scored by one rollout of all its
realizations. Fits from different pools agree to round-off, not bit for bit,
so a query reads only the costs of the pool it names, whatever other
searches ran before it. The winner's reported model and costs come from one
fit on its own snapshots, whatever pool found it.

So a cost is a pure function of (training data, pool, subset,
configuration): a search's result depends neither on the searches before it
nor on where its costs were computed, and every (method, cap) result of a
run is the one that cap alone writes, for any worker count. A pool's record
is made in the parent before the workers fork, so every worker fits from the
parent's factor. ``evaluate_subsets``' workers return costs that land in
the parent's record; a GA restart run in a worker returns only its result.
Workers fit and roll out with numpy alone: nothing is imported before a fork.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .cost import ChannelScales, CostBreakdown, RolloutTruth, pooled_std, rollout_cost, scaled_mse
from .datamodel import TimeSeriesDataset, check_states
from .dmdc import (
    PoolReduction,
    StateSpaceModel,
    TruncationPolicy,
    fit_model,
    fit_stack,
    pool_factor,
    real_schur,
    rollout_stack,
)
from .errors import DatasetError, DegenerateSnapshots

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


@dataclass(slots=True)
class SearchedPool:
    """One searched pool's sorted channels (every channel of the training
    set for no pool), reduction (None if too wide, or for no pool), rollout
    truth (None only for no pool) and the cost ``J`` of every subset scored
    from it, keyed by the subset's packed bit row over ``channels``; +inf
    marks a degenerate or diverged fit."""

    channels: tuple[int, ...]
    reduction: PoolReduction | None = None
    truth: RolloutTruth | None = None
    costs: dict[bytes, float] = field(default_factory=dict)

    def masks(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """One boolean row over ``channels`` per subset: its bit row. A
        subset names channels of the pool, at least one, each once."""
        pool = np.array(self.channels)
        masks = np.zeros((len(subsets), len(pool)), dtype=bool)
        sizes = np.fromiter(map(len, subsets), int, len(subsets))
        for size in sorted(set(sizes.tolist())):
            at = np.flatnonzero(sizes == size)
            for a in range(0, len(at), MASK_BLOCK):  # a block at a time, to bound the temporaries
                rows = at[a : a + MASK_BLOCK]
                idx = np.array([subsets[i] for i in rows.tolist()], dtype=int).reshape(len(rows), size)
                pos = np.searchsorted(pool, idx).clip(max=len(pool) - 1)
                if not np.array_equal(pool[pos], idx):
                    missing = sorted(set(idx[pool[pos] != idx].tolist()))
                    raise DatasetError(f"channel(s) {missing} are not in the pool {list(pool)}")
                masks[rows[:, None], pos] = True
        if not (sizes.all() and np.array_equal(masks.sum(axis=1), sizes)):
            raise DatasetError("a subset must name one channel or more, each once")
        return masks

    def keys(self, masks: np.ndarray) -> list[bytes]:
        """The key of each bit row: its packed bytes."""
        packed = np.packbits(masks, axis=1)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()

    def rows(self, keys: list[bytes]) -> np.ndarray:
        """The bit row (as 0 or 1) of each key."""
        packed = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), -1)
        return np.unpackbits(packed, axis=1, count=len(self.channels))


# Subsets a batch query turns into bit rows, and then scores, at a time.
MASK_BLOCK = 2**14

# Elements of a stack's rollout: subsets x states x padded steps. A stack's
# other temporaries are a few arrays as large, and for subsets fitted from
# their own snapshots the QR's chunk, (2 states + inputs + outputs) x
# min(L, QR_COLUMNS) per subset: about 4 rollouts for the wide GA's 3-state
# subsets. On rlc-both (seed 1, 1 600 padded steps) 2**15 made no more page
# faults than scoring one subset at a time; 2**16 and 2**17 made 7 400 more
# (32 MB of pages mapped afresh by malloc), for 20 ms of system time, and no
# less user time.
STACK_ELEMENTS = 2**15


class SubsetEvaluator:
    """Fit-and-score pipeline for candidate subsets on a fixed training set.

    ``costs`` scores a batch of bit rows over a pool's channels and keeps
    one float per subset; ``evaluate`` is its query of one. ``fit`` fits one
    model, and ``breakdown`` scores one subset as its winner is scored.
    ``fit_count`` counts the models fitted in this process, each subset of a
    stack and each winner alike; fits made by pool workers are not counted.
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
        # the sorted pool, or None for no pool -> its record
        self._pools = {None: SearchedPool(tuple(range(train.n_channels)))}
        self.fit_count = 0

    def searched_pool(self, pool: Sequence[int] | None) -> SearchedPool:
        """The record of ``pool``, made on first use and kept; a caller that
        forks workers asks for it first, so that the workers inherit it.
        Every pool has its truth; only a pool of at most ``REDUCED_POOL_MAX``
        channels has a reduction."""
        if pool is None:
            return self._pools[None]
        key = tuple(sorted(set(pool)))
        if key not in self._pools:
            reduction = PoolReduction.of(self.train, key) if len(key) <= REDUCED_POOL_MAX else None
            self._pools[key] = SearchedPool(key, reduction, RolloutTruth.of(self.train, key))
        return self._pools[key]

    def scales_for(self, subset: Sequence[int]) -> ChannelScales:
        sigma_x = np.maximum(self.std[list(subset)], self.scale_floor)
        return ChannelScales(sigma_x=sigma_x, sigma_y=self._sigma_y, floor=self.scale_floor)

    def fit(self, subset: Sequence[int], pool: Sequence[int] | None = None) -> StateSpaceModel:
        """Model of ``subset``, fitted from the reduction of ``pool`` (a
        superset of it), or of ``subset`` itself by default or when ``pool``
        is not reduced."""
        self.fit_count += 1
        return fit_model(self.train, list(subset), self.policy, self.searched_pool(pool).reduction)

    def costs(self, masks: np.ndarray, pool: Sequence[int] | None = None) -> np.ndarray:
        """Training cost ``J`` of the subset of each bit row of ``masks``
        (over the sorted channels of ``pool``'s record), fitted as ``fit``
        does, or +inf if the fit is degenerate or its rollout diverges.
        Memoized in ``pool``'s record: a query that names another pool never
        reads these costs. The distinct rows not in the record are scored in
        stacks."""
        record = self.searched_pool(pool)
        out: list[float] = []
        for a in range(0, len(masks), MASK_BLOCK):  # a block at a time, to bound the temporaries
            keys = record.keys(masks[a : a + MASK_BLOCK])
            new = list(dict.fromkeys(k for k in keys if k not in record.costs))
            if new:
                self._score(record, new)
            out += map(record.costs.__getitem__, keys)
        return np.array(out)

    def evaluate(self, subset: Sequence[int], pool: Sequence[int] | None = None) -> float:
        """``costs`` of one subset, named by its channels in any order."""
        return float(self.costs(self.searched_pool(pool).masks([subset]), pool)[0])

    def breakdown(self, subset: Sequence[int], pool: Sequence[int] | None = None) -> CostBreakdown | None:
        """Training cost of one subset, named by its channels in any order,
        with its state and output terms, as a winner is scored: one ``fit``
        and ``rollout_cost`` against the truth of ``pool`` (of the training
        set for no pool); None if the fit is degenerate or its rollout
        diverges. Bit for bit the cost ``costs`` stores; it reads and fills
        no record. Kept while the benchmark's tracer wraps it by name."""
        key = sorted(subset)
        try:
            model = self.fit(key, pool)
        except DegenerateSnapshots:
            return None
        b = rollout_cost(model, self.searched_pool(pool).truth or self.train, key, self.scales_for(key))
        return b if math.isfinite(b.J) else None

    def _score(self, record: SearchedPool, keys: list[bytes]) -> None:
        """Score the subsets of ``keys``, not in the record yet, in stacks of
        one size, at most ``STACK_ELEMENTS`` elements each, and store their
        costs in the record."""
        masks = record.rows(keys)
        sizes = masks.sum(axis=1)
        steps = self.train.n_realizations * max(r.shape[1] for r in self.train.realizations)
        for n in sorted(set(sizes.tolist())):
            at = np.flatnonzero(sizes == n)
            size = max(1, STACK_ELEMENTS // (n * steps))
            for a in range(0, len(at), size):
                stack = at[a : a + size]
                pos = np.nonzero(masks[stack])[1].reshape(len(stack), n)
                record.costs.update(zip([keys[i] for i in stack.tolist()], self._score_stack(record, pos)))
        self.fit_count += len(keys)

    def _score_stack(self, record: SearchedPool, pos: np.ndarray) -> list[float]:
        """Cost ``J`` of each subset of a stack, at the positions ``pos``
        (``N x n``) in the record's channels, each bit for bit what it costs
        alone (+inf if degenerate or diverged): one stacked fit, Schur
        factorization, rollout and cost."""
        train, (N, n) = self.train, pos.shape
        channels = np.array(record.channels)[pos]
        m = len(train.input_indices)
        used = sorted(set(channels.ravel().tolist()))
        if record.reduction is not None:
            Ad, Bd, Cd, fitted = fit_stack(record.reduction.R, len(record.channels), m, pos, self.policy)
        else:  # each subset from its own snapshots
            check_states(train, used)
            Ad, Bd, Cd, fitted = fit_stack(pool_factor(train, channels), n, m, None, self.policy)
        truth = record.truth or RolloutTruth.of(train, used)  # no pool: the stack's channels
        rows = np.searchsorted(truth.channels, channels[fitted])
        T, Q = real_schur(Ad[fitted])
        Xh, Yh = rollout_stack(T, Q, Bd[fitted], Cd[fitted], truth.x0[rows], truth.V, truth.starts)
        sigma_x = np.maximum(self.std[channels[fitted]], self.scale_floor)
        J = np.full(N, np.inf)
        J[fitted] = scaled_mse(Xh, truth.Xp[rows], sigma_x, out=Xh)
        with np.errstate(over="ignore"):  # two finite terms may sum past the largest float
            J[fitted] += scaled_mse(Yh, truth.Yp, self._sigma_y, out=Yh)
        J[~np.isfinite(J)] = np.inf
        return J.tolist()


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
    forked processes. The record of ``pool`` is made first, so every
    worker fits from the parent's factor; a worker gets ``evaluator`` once,
    when it starts, with its pools' records as they stand. The executor is
    imported here, so that a run with one worker never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    evaluator.searched_pool(pool)
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(evaluator,)) as executor:
        return list(executor.map(partial(_call_in_worker, fn), items))


def _costs(masks: np.ndarray, pool: Sequence[int] | None, *, evaluator: SubsetEvaluator) -> np.ndarray:
    return evaluator.costs(masks, pool)


def evaluate_subsets(
    subsets: list[tuple[int, ...]],
    evaluator: SubsetEvaluator,
    workers: int = 1,
    pool: Sequence[int] | None = None,
) -> list[float]:
    """Score many subsets of ``pool``, in one batch query, optionally
    across processes.

    Workers score only the distinct subsets missing from the costs of
    ``pool``'s record, one batch query per chunk, and their costs are
    stored there. The returned list is aligned with ``subsets`` regardless
    of scheduling, so any reduction over it is worker-count independent.
    """
    record = evaluator.searched_pool(pool)
    masks = record.masks(subsets)
    todo = []
    if workers > 1:
        todo = list(dict.fromkeys(k for k in record.keys(masks) if k not in record.costs))
    if len(todo) >= 4:
        size = math.ceil(len(todo) / (workers * 4))
        chunks = [todo[i : i + size] for i in range(0, len(todo), size)]
        parts = _map_in_workers(
            partial(_costs, pool=pool), [record.rows(c) for c in chunks], workers, evaluator, pool
        )
        for chunk, part in zip(chunks, parts):
            record.costs.update(zip(chunk, part.tolist()))
    return evaluator.costs(masks, pool).tolist()


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
