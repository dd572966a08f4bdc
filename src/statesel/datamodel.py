"""Dataset and manifest formats, ingestion, splitting, and snapshot assembly.

Channels are described by a manifest (name, role, subsystem) and recorded as
one matrix per realization with shape ``channels x steps``. All downstream
operations index channels by their position in the manifest.

In memory a dataset holds its recording once, and this module alone decides
how it lies there. ``data`` is one read-only, C-ordered ``channels x samples``
array with the realizations side by side in order; ``starts`` holds the
column each realization begins at, and ``pairs`` the columns ``k`` whose
``k + 1`` lies in the same realization, so a one-step pair never crosses a
realization boundary. ``realizations`` are views of ``data``. Every reader
slices ``data``: the snapshots of rows ``i`` are ``data[np.ix_(i, pairs)]``
and ``data[np.ix_(i, pairs + 1)]``.

File formats:

* data CSV: header row of channel names, one row per time step, one file per
  realization; each cell is a finite decimal float, optionally double-quoted;
* manifest: JSON document ``{"dt_seconds": float, "channels": [{"name", "role",
  "subsystem"}, ...]}``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError, DuplicateChannel

ROLES = ("input", "output", "candidate")


@dataclass(frozen=True)
class ChannelMeta:
    """One recorded channel: unique name, role, and optional subsystem label."""

    name: str
    role: str
    subsystem: str = ""

    def __post_init__(self):
        if self.role not in ROLES:
            raise DatasetError(f"channel {self.name!r}: unknown role {self.role!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Leading-prefix train/test split; never shuffles samples."""

    train_fraction: float

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DatasetError(f"train_fraction must be in (0,1), got {self.train_fraction}")


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Uniformly sampled multi-realization recordings plus channel metadata.

    Immutable after construction: the realizations are copied once into the
    float64 array ``data``, marked read-only, and become views of it, so
    datasets are safe to share across workers. ``starts`` and ``pairs`` are
    described in the module docstring.
    """

    dt: float
    realizations: tuple[np.ndarray, ...]
    manifest: tuple[ChannelMeta, ...]
    data: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    pairs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise DatasetError(f"dt must be positive, got {self.dt}")
        manifest = tuple(self.manifest)
        names = [c.name for c in manifest]
        seen = set()
        for name in names:
            if name in seen:
                raise DuplicateChannel(f"duplicate channel name {name!r}")
            seen.add(name)
        roles = [c.role for c in manifest]
        if "input" not in roles or "output" not in roles:
            raise DatasetError("dataset needs at least one input and one output channel")
        reals = []
        for r, arr in enumerate(self.realizations):
            a = np.asarray(arr, dtype=float)
            if a.ndim != 2 or a.shape[0] != len(manifest):
                raise DatasetError(
                    f"realization {r}: expected {len(manifest)} channel rows, got shape {a.shape}"
                )
            if a.shape[1] < 2:
                raise DatasetError(f"realization {r}: needs at least 2 time steps")
            if not np.all(np.isfinite(a)):
                ch, step = np.argwhere(~np.isfinite(a))[0]
                raise DatasetError(
                    f"realization {r}: non-finite value in channel {names[ch]!r} at step {step}"
                )
            reals.append(a)
        if not reals:
            raise DatasetError("dataset has no realizations")
        lengths = [a.shape[1] for a in reals]
        # an hstack of F-ordered parts is F-ordered, and row reductions on it
        # round differently; the C-ordered target keeps them independent of
        # how the parts were read
        data = np.concatenate(reals, axis=1, out=np.empty((len(manifest), sum(lengths))))
        starts = np.cumsum([0] + lengths[:-1])
        ends = starts + lengths
        pairs = np.delete(np.arange(ends[-1]), ends - 1)
        for name, a in (("data", data), ("starts", starts), ("pairs", pairs)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "realizations", tuple(np.hsplit(data, starts[1:])))
        object.__setattr__(self, "manifest", manifest)
        object.__setattr__(self, "_names", tuple(names))
        by_role = {r: tuple(i for i, x in enumerate(roles) if x == r) for r in ROLES}
        object.__setattr__(self, "_roles", by_role)

    @property
    def n_channels(self) -> int:
        return len(self.manifest)

    @property
    def n_realizations(self) -> int:
        return len(self.realizations)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def input_indices(self) -> tuple[int, ...]:
        return self._roles["input"]

    @property
    def output_indices(self) -> tuple[int, ...]:
        return self._roles["output"]

    @property
    def candidate_indices(self) -> tuple[int, ...]:
        return self._roles["candidate"]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.manifest):
            if c.name == name:
                return i
        raise DatasetError(f"no channel named {name!r}")

    def subsystems(self) -> tuple[str, ...]:
        """Distinct subsystem labels of candidate channels, in manifest order."""
        out: list[str] = []
        for c in self.manifest:
            if c.role == "candidate" and c.subsystem not in out:
                out.append(c.subsystem)
        return tuple(out)


@dataclass(frozen=True)
class SnapshotSet:
    """Time-shifted snapshot matrices for one-step regression.

    Columns pair consecutive steps within a realization; pairs never straddle a
    realization boundary. ``V`` and ``Y`` hold inputs and outputs at the
    earlier step of each pair.
    """

    X: np.ndarray
    Xp: np.ndarray
    V: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X, Xp, V, Y = (np.asarray(m, dtype=float) for m in (self.X, self.Xp, self.V, self.Y))
        cols = {M.shape[1] for M in (X, Xp, V, Y)}
        if len(cols) != 1:
            raise DatasetError(f"snapshot matrices disagree on column count: {sorted(cols)}")
        if X.shape != Xp.shape:
            raise DatasetError("X and Xp must have identical shapes")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Xp", Xp)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "Y", Y)

    @property
    def L(self) -> int:
        """The number of snapshot pairs."""
        return self.X.shape[1]


def load_manifest(path: str | Path) -> tuple[float, tuple[ChannelMeta, ...]]:
    """Read a manifest JSON file; returns (dt_seconds, channel metadata)."""
    doc = json.loads(Path(path).read_text())
    try:
        dt = float(doc["dt_seconds"])
        channels = tuple(
            ChannelMeta(str(c["name"]), str(c["role"]), str(c.get("subsystem", "")))
            for c in doc["channels"]
        )
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"malformed manifest {path}: {exc}") from exc
    return dt, channels


def save_manifest(path: str | Path, dt: float, manifest: Sequence[ChannelMeta]) -> None:
    doc = {
        "dt_seconds": dt,
        "channels": [
            {"name": c.name, "role": c.role, "subsystem": c.subsystem} for c in manifest
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_csv_realization(path: Path, manifest: Sequence[ChannelMeta]) -> np.ndarray:
    with open(path) as fh:
        head, *body = fh.read().split("\n")
    if not (head or body):
        raise DatasetError(f"{path}: empty file")
    header = [h.strip() for h in next(csv.reader([head]))]
    column = {h: j for j, h in enumerate(header)}
    if len(column) != len(header):
        dup = next(h for h in header if header.count(h) > 1)
        raise DuplicateChannel(f"{path}: duplicate column {dup!r}")
    wanted = [c.name for c in manifest]
    missing = [n for n in wanted if n not in column]
    if missing:
        raise DatasetError(f"{path}: missing channel(s) {missing}")
    extra = sorted(column.keys() - set(wanted), key=column.get)
    if extra:
        raise DatasetError(f"{path}: unknown channel(s) {extra}")
    order = [column[n] for n in wanted]
    linenos = [n for n, line in enumerate(body, start=2) if line]
    body = [line for line in body if line]
    # Parse the rows above the first defect (a ragged row, or a row loadtxt
    # rejects), so that a non-finite value above it is reported first.
    commas = len(header) - 1
    good = next((i for i, line in enumerate(body) if line.count(",") != commas), len(body))
    vals = np.empty((0, len(header)))
    while good and not len(vals):
        try:
            vals = np.loadtxt(
                body[:good], delimiter=",", quotechar='"', comments=None, ndmin=2, usecols=order
            )
        except ValueError as exc:
            # loadtxt counts rows from 0 in a conversion error, from 1 in a
            # missing-column error; good shrinks on every pass, so the loop ends
            row = int(re.search(r"at row (\d+)", str(exc))[1])
            good = min(good - 1, row if "convert" in str(exc) else row - 1)
    if not np.all(np.isfinite(vals)):
        row, ch = np.argwhere(~np.isfinite(vals))[0]
        raise DatasetError(f"{path}: row {linenos[row]}: non-finite value in {wanted[ch]!r}")
    if good < len(body):
        where = f"{path}: row {linenos[good]}"
        cells = next(csv.reader([body[good]]))
        if len(cells) != len(header):
            raise DatasetError(f"{where} has {len(cells)} cells, expected {len(header)}")
        try:
            [float(cells[j]) for j in order]
        except ValueError as exc:
            raise DatasetError(f"{where}: {exc}") from exc
        raise DatasetError(f"{where}: not a decimal float in {body[good]!r}")
    if len(vals) < 2:
        raise DatasetError(f"{path}: needs at least 2 sample rows")
    return vals.T


def ingest(data: str | Path | Sequence[str | Path], manifest_path: str | Path) -> TimeSeriesDataset:
    """Load realizations from CSV file(s) against a manifest.

    ``data`` may be one CSV path, a directory (all ``*.csv`` in sorted order),
    or an explicit sequence of paths; realizations keep file order. The
    sampling step comes from the manifest, never from the data rows.
    """
    dt, manifest = load_manifest(manifest_path)
    if isinstance(data, (str, Path)):
        p = Path(data)
        paths = sorted(p.glob("*.csv")) if p.is_dir() else [p]
    else:
        paths = [Path(x) for x in data]
    if not paths:
        raise DatasetError(f"no data files found under {data}")
    reals = [_read_csv_realization(p, manifest) for p in paths]
    return TimeSeriesDataset(dt=dt, realizations=tuple(reals), manifest=manifest)


def emit(ds: TimeSeriesDataset, out_dir: str | Path, prefix: str = "realization") -> list[Path]:
    """Write one CSV per realization plus ``manifest.json``; returns data paths.

    Floats are written with shortest round-trip formatting so that
    ``ingest(emit(ds))`` reproduces the numeric content exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_manifest(out / "manifest.json", ds.dt, ds.manifest)
    paths = []
    for r, arr in enumerate(ds.realizations):
        path = out / f"{prefix}_{r:02d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ds.names)
            for k in range(arr.shape[1]):
                writer.writerow([repr(float(v)) for v in arr[:, k]])
        paths.append(path)
    return paths


def split(ds: TimeSeriesDataset, spec: SplitSpec) -> tuple[TimeSeriesDataset, TimeSeriesDataset]:
    """Split every realization into a leading train prefix and trailing test suffix.

    Both sides must keep at least 2 steps per realization so that snapshot
    pairing and rollout scoring stay well defined.
    """
    train_parts, test_parts = [], []
    for r, arr in enumerate(ds.realizations):
        steps = arr.shape[1]
        n_train = int(math.floor(spec.train_fraction * steps))
        n_test = steps - n_train
        if n_train < 2 or n_test < 2:
            raise DatasetError(
                f"realization {r}: split {n_train}/{n_test} of {steps} steps "
                "leaves fewer than 2 steps on one side"
            )
        train_parts.append(arr[:, :n_train])
        test_parts.append(arr[:, n_train:])
    make = lambda parts: TimeSeriesDataset(ds.dt, tuple(parts), ds.manifest)
    return make(train_parts), make(test_parts)


def assemble_snapshots(ds: TimeSeriesDataset, state_idx: Iterable[int]) -> SnapshotSet:
    """Stack one-step-shifted snapshot pairs for the chosen state channels.

    Each realization with ``l`` steps contributes ``l - 1`` column pairs, in
    realization order; no pair crosses a realization boundary.
    """
    state_idx = list(state_idx)
    if not state_idx:
        raise DatasetError("state_idx must be nonempty")
    for i in state_idx:
        role = ds.manifest[i].role
        if role != "candidate":
            raise DatasetError(
                f"state channel {ds.manifest[i].name!r} has role {role!r}; "
                "states must be candidate channels"
            )
    data, k = ds.data, ds.pairs
    return SnapshotSet(
        X=data[np.ix_(state_idx, k)],
        Xp=data[np.ix_(state_idx, k + 1)],
        V=data[np.ix_(ds.input_indices, k)],
        Y=data[np.ix_(ds.output_indices, k)],
    )
