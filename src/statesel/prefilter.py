"""Automatic pruning of uninformative candidate channels before selection.

Three rules run in order on the training split:

1. near-constants: candidates whose range-standardized variance falls below
   ``variance_epsilon`` are dropped;
2. input-collinear channels: candidates whose absolute Pearson correlation
   with any input channel exceeds ``input_corr_threshold`` are dropped;
3. optional duplicate clustering: surviving candidates are clustered by
   complete linkage on the distance ``1 - |r|`` and each cluster keeps only
   its lowest-index member.

Complete linkage guarantees that every removed duplicate meets the
correlation bar against its kept representative. The clustering is done in
numpy here (``_complete_linkage``); it forms the partition of scipy's
``fcluster(complete(...), t, criterion="distance")``.

Memory: beyond its input, a run holds one matrix of the survivors' unit rows
and then the Gram matrix of the rows that can merge: those within the dedupe
threshold of another kept row, which a blocked scan of the unit rows finds.
Every other temporary is a block of ``ROW_BLOCK`` rows, or is as small as
that Gram matrix; no matrix grows with the square of the kept count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datamodel import TimeSeriesDataset, write_csv
from .errors import DatasetError

# Rows per block of a row-wise pass (range variance, unit rows, the scan for
# rows within the dedupe threshold, and ``cost.pooled_std``), so that no
# temporary is a copy of the recording or grows with the square of the number
# of candidates. No result depends on it.
ROW_BLOCK = 64


@dataclass(frozen=True)
class PrefilterConfig:
    input_corr_threshold: float = 0.95
    variance_epsilon: float = 1e-12
    dedupe_corr_threshold: float = 0.999999
    dedupe_enabled: bool = True

    def __post_init__(self):
        if not 0.0 < self.input_corr_threshold <= 1.0:
            raise ValueError("input_corr_threshold must be in (0, 1]")
        if self.variance_epsilon < 0:
            raise ValueError("variance_epsilon must be nonnegative")
        if not 0.0 < self.dedupe_corr_threshold <= 1.0:
            raise ValueError("dedupe_corr_threshold must be in (0, 1]")


@dataclass(frozen=True)
class Removal:
    index: int
    reason: str  # "near_constant" | "input_collinear" | "duplicate"
    evidence: float
    representative: int | None = None


@dataclass(frozen=True)
class PrefilterReport:
    """Partition of the candidate set into kept indices and removal records."""

    kept: tuple[int, ...]
    removed: tuple[Removal, ...]


def _unit_rows(data: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    """Rows ``idx`` of ``data`` centered and scaled to unit norm, so that their
    inner products are Pearson correlations; a constant row becomes zero and
    correlates with nothing. Worked out ``ROW_BLOCK`` rows at a time."""
    out = data[np.asarray(idx, dtype=np.intp)]  # a copy, made unit rows in place
    for b in range(0, len(out), ROW_BLOCK):
        rows = out[b : b + ROW_BLOCK]
        # a constant row's rounded mean can leave it a tiny nonzero norm
        const = rows.max(axis=1) == rows.min(axis=1)
        rows -= rows.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.sum(rows * rows, axis=1))
        const |= norms == 0.0
        rows[const] = 0.0
        rows /= np.where(const, 1.0, norms)[:, None]
    return out


def _to_front(unit: np.ndarray, rows: Sequence[int]) -> None:
    """Move rows ``rows`` of ``unit``, ascending, to its front in place,
    ``ROW_BLOCK`` at a time: ``rows[i] >= i``, so no row is overwritten
    before it is moved."""
    for b in range(0, len(rows), ROW_BLOCK):
        block = rows[b : b + ROW_BLOCK]
        unit[b : b + len(block)] = unit[block]


def _complete_linkage(dist: np.ndarray, t: float) -> list[list[int]]:
    """The clusters of two or more rows that complete linkage on the symmetric
    distance matrix ``dist``, cut at height ``t``, forms, each sorted: the
    partition of scipy's ``fcluster(complete(dist), t, criterion="distance")``
    without its singletons. The diagonal of ``dist`` is not read.

    Only rows within ``t`` of another row can merge, and only those are
    clustered, by the nearest-neighbour chain: follow nearest neighbours
    until two clusters are each other's nearest, then merge them; a merged
    cluster's distance to another is the larger of its two parts' distances.
    For complete linkage this makes the merges of "merge the two closest
    clusters" in ``O(k)`` row scans for ``k`` rows. Once the top of the chain
    has no cluster within ``t``, every cluster on the chain is final. Ties go
    to the previous chain element, then to the lowest index, as in scipy's
    chain; scipy's chain also walks the other rows, so rows at exactly equal
    distances may still merge in another order than there.
    """
    near = dist <= t
    np.fill_diagonal(near, False)
    active = np.flatnonzero(near.any(axis=1))
    d = dist[np.ix_(active, active)]
    np.fill_diagonal(d, np.inf)
    members = [[row] for row in active.tolist()]
    alive = np.ones(len(active), dtype=bool)  # neither merged away nor final
    chain: list[int] = []
    while True:
        if not chain:
            if not alive.any():
                break
            chain.append(int(np.argmax(alive)))
        x = chain[-1]
        y = int(np.argmin(d[x]))
        if len(chain) > 1 and not d[x, y] < d[x, chain[-2]]:
            y = chain[-2]
        if not d[x, y] <= t:
            alive[chain] = False
            chain.clear()
        elif len(chain) > 1 and y == chain[-2]:
            del chain[-2:]
            x, y = min(x, y), max(x, y)
            d[y] = np.maximum(d[x], d[y])
            d[:, y] = d[y]
            d[y, y] = np.inf
            d[x] = d[:, x] = np.inf
            members[y] += members[x]
            members[x] = []
            alive[x] = False
        else:
            chain.append(y)
    return [sorted(m) for m in members if len(m) > 1]


def _range_variance(data: np.ndarray, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Which rows ``idx`` of ``data`` are constant, and each one's variance
    after division by its range (0 for a constant row)."""
    idx = np.asarray(idx, dtype=np.intp)
    const = np.empty(len(idx), dtype=bool)
    var = np.zeros(len(idx))
    for b in range(0, len(idx), ROW_BLOCK):
        rows = data[idx[b : b + ROW_BLOCK]]
        span = rows.max(axis=1) - rows.min(axis=1)
        live = span != 0.0
        const[b : b + ROW_BLOCK] = ~live
        var[b : b + ROW_BLOCK][live] = np.var(rows[live] / span[live, None], axis=1)
    return const, var


def prefilter(train: TimeSeriesDataset, cfg: PrefilterConfig | None = None) -> PrefilterReport:
    """Partition candidate channels of the training split into kept and removed."""
    cfg = cfg or PrefilterConfig()
    cand = list(train.candidate_indices)
    if not cand:
        raise DatasetError("dataset has no candidate channels")
    data = train.data
    removed: list[Removal] = []

    # rule 1: near-constants on range-standardized channels, so epsilon is unit-free
    survivors: list[int] = []
    const, variance = _range_variance(data, cand)
    for idx, is_const, var in zip(cand, const.tolist(), variance.tolist()):
        if is_const or var < cfg.variance_epsilon:
            removed.append(Removal(index=idx, reason="near_constant", evidence=var))
        else:
            survivors.append(idx)

    # rule 2: collinearity with any input channel
    unit = _unit_rows(data, survivors)
    evidence = np.abs(unit @ _unit_rows(data, train.input_indices).T).max(axis=1)
    kept: list[int] = []
    rows: list[int] = []  # the row of ``unit`` of each kept channel
    for row, (idx, r_max) in enumerate(zip(survivors, evidence.tolist())):
        if r_max > cfg.input_corr_threshold:
            removed.append(Removal(index=idx, reason="input_collinear", evidence=r_max))
        else:
            kept.append(idx)
            rows.append(row)

    # rule 3: duplicate clusters among survivors, each kept as its lowest
    # index (``kept`` is ascending, so that is the cluster's first position)
    if cfg.dedupe_enabled and len(kept) > 1:
        _to_front(unit, rows)
        # only rows within t of another row can merge: a scan of the upper
        # triangle of the kept rows' correlations, ROW_BLOCK rows at a time,
        # flags both rows of each near pair
        t = 1.0 - cfg.dedupe_corr_threshold
        kept_rows = unit[: len(kept)]
        near = np.zeros(len(kept), dtype=bool)
        for b in range(0, len(kept), ROW_BLOCK):
            block = kept_rows[b : b + ROW_BLOCK] @ kept_rows[b:].T
            within = np.subtract(1.0, np.abs(block, out=block), out=block) <= t
            np.fill_diagonal(within, False)
            near[b : b + ROW_BLOCK] |= within.any(axis=1)
            near[b:] |= within.any(axis=0)
            del block  # so that the next block is not made while this one is held
        active = np.flatnonzero(near)
        # the Gram matrix of those rows alone, once they lead ``unit``
        _to_front(unit, active)
        corr = unit[: len(active)] @ unit[: len(active)].T
        del unit, kept_rows
        np.clip(np.abs(corr, out=corr), 0.0, 1.0, out=corr)
        duplicates: set[int] = set()
        for rep, *others in _complete_linkage(1.0 - corr, t):
            for m in others:
                removed.append(
                    Removal(
                        index=kept[active[m]],
                        reason="duplicate",
                        evidence=float(corr[m, rep]),
                        representative=kept[active[rep]],
                    )
                )
            duplicates.update(active[others].tolist())
        kept = [idx for pos, idx in enumerate(kept) if pos not in duplicates]

    removed.sort(key=lambda r: r.index)
    return PrefilterReport(kept=tuple(sorted(kept)), removed=tuple(removed))


def write_report_csv(report: PrefilterReport, train: TimeSeriesDataset, path: str | Path) -> None:
    """Serialize a prefilter outcome as CSV: index, name, decision, reason, evidence."""
    names = train.names
    rows = [(i, names[i], "kept", "", "", "") for i in report.kept]
    for r in report.removed:
        rep = "" if r.representative is None else names[r.representative]
        rows.append((r.index, names[r.index], "removed", r.reason, r.evidence, rep))
    header = ["index", "name", "decision", "reason", "evidence", "representative"]
    write_csv(path, header, sorted(rows, key=lambda row: row[0]))
