"""Recursive-feature-elimination selection with cross-subsystem balancing.

The importance of a candidate state is read off the fitted output map: each
row of ``Cd`` is min-max scaled to [0, 1] (signed entries, exactly as scaled),
and a variable's score is the mean of its column across outputs. Backward
elimination drops a block of the lowest-scoring survivors per iteration and
refits until the cap is reached.

Rowwise scaling biases rankings toward high-gain subsystems: a row dominated
by one subsystem squeezes every other subsystem's entries toward the row
extremes, so only the strongest variable of a low-gain subsystem keeps a
competitive mean score. The workflow therefore runs in three steps:

I.   eliminate within each subsystem independently;
II.  import candidates from each subsystem that correlate strongly with the
     other subsystems' shortlisted states and outputs;
III. exhaustively search all subsets of the merged pool (up to the cap) for
     the minimum training cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .datamodel import TimeSeriesDataset
from .dmdc import TruncationPolicy, fit_output_map, triangular_factor
from .errors import DatasetError, DegenerateSnapshots, MergedPoolTooLarge
from .prefilter import _unit_rows
from .selection import (
    SelectionResult,
    SubsetEvaluator,
    evaluate_subsets,
    finish_winner,
    subset_key,
)


@dataclass(frozen=True)
class ImportanceMatrix:
    """Rowwise min-max scaled output map with per-variable column means.

    Degenerate rows (all entries equal) scale to all zeros; they carry no
    ranking information.
    """

    I: np.ndarray
    mean: np.ndarray


@dataclass(frozen=True)
class RFEConfig:
    """Knobs for the elimination and merged-search stages.

    ``max_states`` caps the selected subset size; each elimination iteration
    drops ``max(1, floor(block_fraction * survivors))`` variables (clamped so
    the chain lands exactly on the cap); ``cross_top_k`` candidates are
    imported per ordered subsystem pair; the exhaustive sweep refuses merged
    pools larger than ``search_limit``. Truncation and cost scales come from
    the ``SubsetEvaluator`` the stages are given.
    """

    max_states: int
    block_fraction: float = 0.2
    cross_top_k: int = 2
    search_limit: int = 24
    weak_import_threshold: float = 0.2

    def __post_init__(self):
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if not 0.0 < self.block_fraction < 1.0:
            raise ValueError("block_fraction must be in (0, 1)")
        if self.cross_top_k < 0:
            raise ValueError("cross_top_k must be nonnegative")


@dataclass(frozen=True)
class CrossImport:
    """One variable pulled across a subsystem boundary, with its score."""

    index: int
    score: float
    weak: bool


def importance(Cd: np.ndarray) -> ImportanceMatrix:
    """Rowwise min-max scaling of the output map, averaged over outputs."""
    Cd = np.asarray(Cd, dtype=float)
    if Cd.ndim != 2 or Cd.shape[0] < 1 or Cd.shape[1] < 1:
        raise ValueError(f"output map must be a p x n matrix, got shape {Cd.shape}")
    lo = Cd.min(axis=1, keepdims=True)
    hi = Cd.max(axis=1, keepdims=True)
    span = hi - lo
    degenerate = (span == 0.0).ravel()
    span[degenerate] = 1.0
    I = (Cd - lo) / span
    I[degenerate, :] = 0.0
    return ImportanceMatrix(I=I, mean=I.mean(axis=0))


def _output_factor(
    train: TimeSeriesDataset, pool: list[int], outputs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(R11, R12)`` from the thin Householder QR of ``[X_pool; Y]^T``
    (``Q`` not formed), on its first ``k = min(L, len(pool))`` rows: any
    survivors ``S`` of the pool have ``X_S^T = Q1 R11[:, S]`` and
    ``Q1^T Y^T = R12``, so their output map is fitted from ``k`` columns, not
    ``L``, with the singular values of the ``L``-column fit."""
    R = triangular_factor(train, np.array(pool + outputs), len(pool))
    return R[:, : len(pool)], R[:, len(pool) :]


def _mean_importance(
    factor: tuple[np.ndarray, np.ndarray], rows: list[int], policy: TruncationPolicy
) -> np.ndarray:
    """Mean importance of the output map fitted on the pool ``rows`` of an
    ``_output_factor``."""
    # Only Cd is ranked, so the dynamics are not fitted. Their SVD would fail
    # only on an all-zero [X; V], whose X is all zero too, and fit_output_map
    # raises the same DegenerateSnapshots on that.
    R11, R12 = factor
    return importance(fit_output_map(R11[:, rows].T, R12.T, policy)).mean


@dataclass(frozen=True)
class RfeRanking:
    """Survivors of the elimination chain plus the order variables fell."""

    survivors: tuple[int, ...]
    eliminated: tuple[int, ...]
    iterations: int


def rfe_rank(
    evaluator: SubsetEvaluator,
    pool: Sequence[int],
    cfg: RFEConfig,
    output_idx: Sequence[int] | None = None,
) -> RfeRanking:
    """Backward elimination over ``pool`` until at most ``max_states`` survive.

    Per iteration: fit the output map on the survivors, score variables by
    mean importance, and drop the lowest-scoring block (ties drop the higher
    channel index first). Survivor sets across iterations are strictly
    nested. If a fit degenerates, that iteration falls back to eliminating
    the lowest-variance survivors instead. Every fit is made from one QR of
    the pool's snapshots (``_output_factor``), taken before the first
    iteration.

    ``output_idx`` restricts scoring to a subset of output channels (manifest
    indices); the default uses all outputs. The fits use the evaluator's
    training set and truncation policy.
    """
    survivors = sorted(set(pool))
    if not survivors:
        raise DatasetError("candidate pool is empty")
    outputs = list(output_idx or evaluator.train.output_indices)
    if not set(outputs) <= set(evaluator.train.output_indices):
        raise DatasetError(f"output_idx {outputs} names a channel that is not an output")
    eliminated: list[int] = []
    iterations = 0
    row = {c: r for r, c in enumerate(survivors)}
    if len(survivors) > cfg.max_states:
        factor = _output_factor(evaluator.train, survivors, outputs)
    while len(survivors) > cfg.max_states:
        iterations += 1
        try:
            score = _mean_importance(factor, [row[i] for i in survivors], evaluator.policy)
        except DegenerateSnapshots:
            score = evaluator.std[survivors]
        k = max(1, math.floor(cfg.block_fraction * len(survivors)))
        k = min(k, len(survivors) - cfg.max_states)
        # ascending score, ties resolved against the higher channel index
        order = sorted(range(len(survivors)), key=lambda i: (score[i], -survivors[i]))
        drop = sorted(survivors[i] for i in order[:k])
        eliminated.extend(survivors[i] for i in order[:k])
        survivors = [s for s in survivors if s not in drop]
    return RfeRanking(
        survivors=tuple(survivors), eliminated=tuple(eliminated), iterations=iterations
    )


def within_subsystem_rfe(
    evaluator: SubsetEvaluator,
    pool: Sequence[int],
    cfg: RFEConfig,
) -> dict[str, RfeRanking]:
    """Run the elimination independently per subsystem (step I).

    Each nonempty subsystem gets an equal share of the cap,
    ``ceil(max_states / n_subsystems)``, and is scored against its own output
    channels when it has any (all outputs otherwise). Subsystems without
    candidates in the pool are skipped with a warning.
    """
    train = evaluator.train
    groups: dict[str, list[int]] = {}
    for idx in pool:
        groups.setdefault(train.manifest[idx].subsystem, []).append(idx)
    labels = [s for s in train.subsystems() if s in groups]
    empty = [s for s in train.subsystems() if s not in groups]
    for s in empty:
        warnings.warn(f"subsystem {s!r} has no candidates in the pool; skipped")
    if not labels:
        raise DatasetError("no subsystem has candidates in the pool")
    cap = math.ceil(cfg.max_states / len(labels))
    sub_cfg = replace(cfg, max_states=cap)
    shortlists: dict[str, RfeRanking] = {}
    for label in labels:
        own_outputs = [
            i for i in train.output_indices if train.manifest[i].subsystem == label
        ]
        shortlists[label] = rfe_rank(
            evaluator, groups[label], sub_cfg, output_idx=own_outputs or None
        )
    return shortlists


def cross_influence(
    train: TimeSeriesDataset,
    pool: Sequence[int],
    shortlists: dict[str, Sequence[int]],
    cfg: RFEConfig,
) -> dict[tuple[str, str], tuple[CrossImport, ...]]:
    """Score cross-subsystem influence and import top candidates (step II).

    For each ordered pair (src, dst), every pool candidate of ``src`` is
    scored by its maximum absolute correlation against the shortlisted states
    and the output channels of ``dst`` on training data; the ``cross_top_k``
    best not already shortlisted are imported. Imports scoring below the weak
    threshold are flagged.
    """
    labels = list(shortlists.keys())
    if len(labels) < 2:
        return {}
    already = {i for sl in shortlists.values() for i in sl}
    # the unit rows of the channels read below: pool candidates and targets
    read = sorted({*pool, *already, *train.output_indices})
    unit = _unit_rows(train.data, read)
    row = {idx: k for k, idx in enumerate(read)}
    unit_of = lambda channels: unit[[row[i] for i in channels]]
    by_label: dict[str, list[int]] = {}
    for idx in pool:
        by_label.setdefault(train.manifest[idx].subsystem, []).append(idx)
    imports: dict[tuple[str, str], tuple[CrossImport, ...]] = {}
    for src in labels:
        for dst in labels:
            if src == dst:
                continue
            targets = list(shortlists[dst]) + [
                i for i in train.output_indices if train.manifest[i].subsystem == dst
            ]
            cands = [idx for idx in by_label.get(src, []) if idx not in already]
            scores = np.abs(unit_of(cands) @ unit_of(targets).T).max(axis=1, initial=0.0)
            scored = list(zip(cands, scores.tolist()))
            # best score first; ties favor the lower channel index
            scored.sort(key=lambda t: (-t[1], t[0]))
            chosen = tuple(
                CrossImport(index=i, score=s, weak=s < cfg.weak_import_threshold)
                for i, s in scored[: cfg.cross_top_k]
            )
            imports[(src, dst)] = chosen
    return imports


def count_subsets(n_vars: int) -> int:
    """Number of nonempty subsets of a pool of ``n_vars`` variables."""
    if n_vars < 1:
        raise ValueError("n_vars must be at least 1")
    return 2**n_vars - 1


def enumerate_subsets(pool: Sequence[int], max_size: int) -> list[tuple[int, ...]]:
    """All nonempty subsets up to ``max_size``, in canonical order."""
    items = sorted(pool)
    out: list[tuple[int, ...]] = []
    for size in range(1, min(max_size, len(items)) + 1):
        out.extend(combinations(items, size))
    return out


def merged_search(
    evaluator: SubsetEvaluator,
    test: TimeSeriesDataset,
    pool: Sequence[int],
    cfg: RFEConfig,
    workers: int = 1,
    diagnostics: dict | None = None,
) -> SelectionResult:
    """Exhaustive cost-minimizing sweep over the merged pool (step III).

    Every nonempty subset of ``pool`` up to ``max_states`` is scored on
    training through ``evaluator``, which fits only those not in its cache;
    the winner minimizes (J, size, indices). The test cost is evaluated once,
    for the winner only.
    """
    pool = sorted(set(pool))
    if not pool:
        raise DatasetError("merged pool is empty")
    if len(pool) > cfg.search_limit:
        raise MergedPoolTooLarge(
            f"merged pool has {len(pool)} variables; exhaustive sweep is capped at "
            f"{cfg.search_limit}. Lower max_states or cross_top_k to shrink the pool."
        )
    subsets = enumerate_subsets(pool, cfg.max_states)
    scores = evaluate_subsets(subsets, evaluator, workers=workers, pool=pool)
    best = int(np.argmin(scores))  # the first: by size, then lexicographic, as subset_key orders ties
    diag = dict(diagnostics or {})
    diag["subsets_examined"] = len(subsets)
    diag["merged_pool"] = list(pool)
    return finish_winner(evaluator, test, subset_key(scores[best], subsets[best]), "rfe", diag)


def rfe_select(
    evaluator: SubsetEvaluator,
    test: TimeSeriesDataset,
    pool: Sequence[int],
    cfg: RFEConfig,
    workers: int = 1,
) -> SelectionResult:
    """Full three-step workflow: per-subsystem elimination, cross-subsystem
    imports, and the exhaustive merged sweep."""
    shortlists = within_subsystem_rfe(evaluator, pool, cfg)
    imports = cross_influence(
        evaluator.train, pool, {k: v.survivors for k, v in shortlists.items()}, cfg
    )
    merged = sorted(
        {i for r in shortlists.values() for i in r.survivors}
        | {imp.index for chosen in imports.values() for imp in chosen}
    )
    diagnostics = {
        "shortlists": {k: list(v.survivors) for k, v in shortlists.items()},
        "elimination_order": {k: list(v.eliminated) for k, v in shortlists.items()},
        "imports": {
            f"{src}->{dst}": [
                {"index": imp.index, "score": imp.score, "weak": imp.weak}
                for imp in chosen
            ]
            for (src, dst), chosen in imports.items()
        },
    }
    return merged_search(evaluator, test, merged, cfg, workers=workers, diagnostics=diagnostics)
