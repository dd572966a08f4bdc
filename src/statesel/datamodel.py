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

File formats, decided here alone (UTF-8 text; readers skip a leading BOM):

* data CSV: header row of channel names, one row per time step, one file per
  realization; each cell is a finite decimal float, optionally double-quoted;
* JSON objects (``read_json``, ``write_json``, keys sorted): the manifest
  ``{"dt_seconds": float, "channels": [{"name", "role", "subsystem"}, ...]}``,
  a model, a selection, a run's config, a generator spec and its truth;
* output CSVs (``write_csv``): the data CSVs ``emit`` writes, the prefilter
  report, the cost table and the traces; a float cell is its ``repr``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

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
        if not all(isinstance(v, str) for v in (self.name, self.role, self.subsystem)):
            raise DatasetError(f"channel {self.name!r}: name, role and subsystem must be strings")
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
        if (name := _repeated(names)) is not None:
            raise DuplicateChannel(f"duplicate channel name {name!r}")
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
        if name not in self._names:
            raise DatasetError(f"no channel named {name!r}")
        return self._names.index(name)

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


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``; a file that holds none, or that holds
    ``NaN`` or ``Infinity`` (which are not JSON), is named."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not a JSON document: {exc}") from exc
    return json_object(text, path)


def json_object(text: str, source: str | Path) -> dict:
    """The JSON object ``text`` holds; text that holds none, or that holds
    ``NaN`` or ``Infinity`` (which are not JSON), is an error naming ``source``."""

    def refuse(constant: str):
        raise DatasetError(f"{source}: {constant} is not a JSON value")

    try:
        doc = json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{source}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"{source}: not a JSON object")
    return doc


def write_json(path: str | Path, doc: Any) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then ``rows``; ``csv`` writes a cell as its ``str``,
    which for a float is the shortest text that reads back to it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_manifest(path: str | Path) -> tuple[float, tuple[ChannelMeta, ...]]:
    """Read a manifest JSON file; returns (dt_seconds, channel metadata)."""
    doc = read_json(path)
    try:
        dt = float(doc["dt_seconds"])
        if not dt > 0:
            raise ValueError(f"dt_seconds must be positive, got {dt}")
        channels = tuple(ChannelMeta(c["name"], c["role"], c.get("subsystem", "")) for c in doc["channels"])
        if not channels:
            raise ValueError("no channels")
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed manifest {path}: {exc}") from exc
    if (name := _repeated(c.name for c in channels)) is not None:
        raise DuplicateChannel(f"malformed manifest {path}: channel {name!r} is listed twice")
    return dt, channels


def _repeated(names: Iterable[str]) -> str | None:
    """The first name of ``names`` to come a second time, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def save_manifest(path: str | Path, dt: float, manifest: Sequence[ChannelMeta]) -> None:
    doc = {
        "dt_seconds": dt,
        "channels": [
            {"name": c.name, "role": c.role, "subsystem": c.subsystem} for c in manifest
        ],
    }
    write_json(path, doc)


def _column_order(path: Path, head: str, manifest: Sequence[ChannelMeta]) -> list[int]:
    """The column of each manifest channel in a data CSV with header line ``head``."""
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
    return [column[n] for n in wanted]


def _read_csv_realization(path: Path, manifest: Sequence[ChannelMeta]) -> np.ndarray:
    """One data CSV as ``channels x steps`` in manifest order.

    One ``np.loadtxt`` parses the rows straight from the open file, so the
    file's text is never held whole. Its result is returned only when it is
    what ``_scan_csv_lines`` would return: one row per nonblank line (a
    quoted cell can span lines), every row as wide as the header, at least 2
    rows, all finite. Otherwise, or if the text is not UTF-8,
    ``_scan_csv_lines`` reads the file again and names the first defect.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            head = fh.readline()
        except UnicodeDecodeError:  # in the first block of text, decoded with the header
            return _scan_csv_lines(path, manifest)
        if not head:
            raise DatasetError(f"{path}: empty file")
        order = _column_order(path, head.removesuffix("\n"), manifest)
        lines = 0

        def nonblank():
            nonlocal lines
            for line in fh:
                if line != "\n":
                    lines += 1
                    yield line

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on no rows
                vals = np.loadtxt(nonblank(), delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError:  # a decoding error is one too
            vals = None
        if vals is None or lines < 2 or vals.shape != (lines, len(order)) or not np.isfinite(vals).all():
            return _scan_csv_lines(path, manifest)
    # a reorder copies the rows, so it is made only for columns out of order
    return (vals if order == sorted(order) else vals[:, order]).T


def _scan_csv_lines(path: Path, manifest: Sequence[ChannelMeta]) -> np.ndarray:
    """The rows of a data CSV, read line by line. Each line must be UTF-8;
    past the header, each nonblank line in turn must hold as many cells as
    the header, parse, and be finite; the first that does not is named. Then
    fewer than 2 rows is an error."""
    rows = []
    # a byte that is not UTF-8 reads as a lone surrogate, which no UTF-8 text holds
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise DatasetError(f"{path}: row {lineno}: byte {byte:#x} is not UTF-8 text") from None
            if lineno == 1:
                order = _column_order(path, line, manifest)
            if lineno == 1 or not line:
                continue
            try:
                if line.count(",") != len(order) - 1:
                    raise ValueError
                row = np.loadtxt([line], delimiter=",", quotechar='"', comments=None, usecols=order)
            except ValueError:
                where = f"{path}: row {lineno}"
                cells = next(csv.reader([line]))
                if len(cells) != len(order):
                    raise DatasetError(f"{where} has {len(cells)} cells, expected {len(order)}") from None
                try:
                    [float(cells[j]) for j in order]
                except ValueError as exc:
                    raise DatasetError(f"{where}: {exc}") from None
                raise DatasetError(f"{where}: not a decimal float in {line!r}") from None
            if not np.isfinite(row).all():
                ch = np.flatnonzero(~np.isfinite(row))[0]
                raise DatasetError(f"{path}: row {lineno}: non-finite value in {manifest[ch].name!r}")
            rows.append(row)
    if len(rows) < 2:
        raise DatasetError(f"{path}: needs at least 2 sample rows")
    return np.array(rows).T


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
        paths.append(out / f"{prefix}_{r:02d}.csv")
        write_csv(paths[-1], ds.names, arr.T.tolist())
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


def check_states(ds: TimeSeriesDataset, state_idx: Iterable[int]) -> list[int]:
    """``state_idx`` as a list, checked to name at least one channel, each a candidate."""
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
    return state_idx


def assemble_snapshots(ds: TimeSeriesDataset, state_idx: Iterable[int]) -> SnapshotSet:
    """Stack one-step-shifted snapshot pairs for the chosen state channels.

    Each realization with ``l`` steps contributes ``l - 1`` column pairs, in
    realization order; no pair crosses a realization boundary.
    """
    state_idx = check_states(ds, state_idx)
    data, k = ds.data, ds.pairs
    return SnapshotSet(
        X=data[np.ix_(state_idx, k)],
        Xp=data[np.ix_(state_idx, k + 1)],
        V=data[np.ix_(ds.input_indices, k)],
        Y=data[np.ix_(ds.output_indices, k)],
    )
