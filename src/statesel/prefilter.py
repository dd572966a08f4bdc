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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import TimeSeriesDataset
from .errors import DatasetError


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

    def removed_indices(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.removed)


def correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; constant vectors count as uncorrelated (0)."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DatasetError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise DatasetError("correlation needs at least 2 samples")
    if a.max() == a.min() or b.max() == b.min():
        return 0.0
    da = a - a.mean()
    db = b - b.mean()
    na = np.sqrt(np.sum(da * da))
    nb = np.sqrt(np.sum(db * db))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(da, db) / (na * nb))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Rows centered and scaled to unit norm, so that their inner products are
    Pearson correlations; a constant row becomes zero and correlates with nothing."""
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=1))
    # a constant row's rounded mean can leave it a tiny nonzero norm
    const = (norms == 0.0) | (rows.max(axis=1) == rows.min(axis=1))
    centered[const] = 0.0
    return centered / np.where(const, 1.0, norms)[:, None]


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


def _range_variance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows are constant, and each row's variance after division by its
    range (0 for a constant row)."""
    span = rows.max(axis=1) - rows.min(axis=1)
    const = span == 0.0
    var = np.zeros(len(rows))
    var[~const] = np.var(rows[~const] / span[~const, None], axis=1)
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
    const, variance = _range_variance(data[cand])
    for idx, is_const, var in zip(cand, const.tolist(), variance.tolist()):
        if is_const or var < cfg.variance_epsilon:
            removed.append(Removal(index=idx, reason="near_constant", evidence=var))
        else:
            survivors.append(idx)

    # rule 2: collinearity with any input channel
    inputs = _unit_rows(data[list(train.input_indices)])
    evidence = np.abs(_unit_rows(data[survivors]) @ inputs.T).max(axis=1)
    kept_after_inputs: list[int] = []
    for idx, r_max in zip(survivors, evidence.tolist()):
        if r_max > cfg.input_corr_threshold:
            removed.append(Removal(index=idx, reason="input_collinear", evidence=r_max))
        else:
            kept_after_inputs.append(idx)

    # rule 3: duplicate clusters among survivors, each kept as its lowest
    # index (``kept`` is ascending, so that is the cluster's first position)
    kept = kept_after_inputs
    if cfg.dedupe_enabled and len(kept) > 1:
        unit = _unit_rows(data[kept])
        corr = np.clip(np.abs(unit @ unit.T), 0.0, 1.0)
        dist = 1.0 - corr
        duplicates: set[int] = set()
        for rep, *others in _complete_linkage(dist, 1.0 - cfg.dedupe_corr_threshold):
            for m in others:
                removed.append(
                    Removal(
                        index=kept[m],
                        reason="duplicate",
                        evidence=float(corr[m, rep]),
                        representative=kept[rep],
                    )
                )
            duplicates.update(others)
        kept = [idx for pos, idx in enumerate(kept) if pos not in duplicates]

    removed.sort(key=lambda r: r.index)
    return PrefilterReport(kept=tuple(sorted(kept)), removed=tuple(removed))


def write_report_csv(report: PrefilterReport, train: TimeSeriesDataset, path: str | Path) -> None:
    """Serialize a prefilter outcome as CSV: index, name, decision, reason, evidence."""
    names = train.names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "name", "decision", "reason", "evidence", "representative"])
        rows = [(i, "kept", "", "", "") for i in report.kept] + [
            (
                r.index,
                "removed",
                r.reason,
                repr(r.evidence),
                "" if r.representative is None else names[r.representative],
            )
            for r in report.removed
        ]
        for idx, decision, reason, evidence, rep in sorted(rows, key=lambda t: t[0]):
            writer.writerow([idx, names[idx], decision, reason, evidence, rep])
