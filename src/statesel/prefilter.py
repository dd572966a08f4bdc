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
correlation bar against its kept representative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.cluster import hierarchy
from scipy.spatial.distance import squareform

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


def prefilter(train: TimeSeriesDataset, cfg: PrefilterConfig | None = None) -> PrefilterReport:
    """Partition candidate channels of the training split into kept and removed."""
    cfg = cfg or PrefilterConfig()
    cand = list(train.candidate_indices)
    if not cand:
        raise DatasetError("dataset has no candidate channels")
    data = np.hstack(train.realizations)
    removed: list[Removal] = []

    # rule 1: near-constants on range-standardized channels, so epsilon is unit-free
    survivors: list[int] = []
    for idx in cand:
        z = data[idx]
        rng = float(z.max() - z.min())
        if rng == 0.0:
            removed.append(Removal(index=idx, reason="near_constant", evidence=0.0))
            continue
        var = float(np.var(z / rng))
        if var < cfg.variance_epsilon:
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

    # rule 3: duplicate clusters among survivors, one representative each
    kept = kept_after_inputs
    if cfg.dedupe_enabled and len(kept) > 1:
        unit = _unit_rows(data[kept])
        corr = np.clip(np.abs(unit @ unit.T), 0.0, 1.0)
        dist = 1.0 - corr
        np.fill_diagonal(dist, 0.0)
        condensed = squareform(dist, checks=False)
        link = hierarchy.complete(condensed)
        labels = hierarchy.fcluster(link, t=1.0 - cfg.dedupe_corr_threshold, criterion="distance")
        final: list[int] = []
        for lab in sorted(set(labels)):
            members = [kept[i] for i in np.flatnonzero(labels == lab)]
            rep = min(members)
            final.append(rep)
            rep_pos = kept.index(rep)
            for m in members:
                if m != rep:
                    removed.append(
                        Removal(
                            index=m,
                            reason="duplicate",
                            evidence=float(corr[kept.index(m), rep_pos]),
                            representative=rep,
                        )
                    )
        kept = sorted(final)

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
