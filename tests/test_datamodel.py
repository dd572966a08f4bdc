import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statesel import datamodel
from statesel.cost import RolloutTruth, pooled_std
from statesel.datamodel import (
    ChannelMeta,
    SnapshotSet,
    SplitSpec,
    TimeSeriesDataset,
    assemble_snapshots,
    emit,
    ingest,
    load_manifest,
    save_manifest,
    split,
)
from statesel.errors import DatasetError, DuplicateChannel

from conftest import (
    pooled_std_per_realization,
    read_csv_oracle,
    rollout_truth_per_realization,
    snapshots_per_realization,
)


def small_dataset(n_real=2, steps=100, seed=0):
    rng = np.random.default_rng(seed)
    manifest = (
        ChannelMeta("u", "input"),
        ChannelMeta("y", "output"),
        ChannelMeta("a", "candidate"),
        ChannelMeta("b", "candidate"),
        ChannelMeta("c", "candidate", "left"),
    )
    reals = tuple(rng.standard_normal((5, steps)) for _ in range(n_real))
    return TimeSeriesDataset(dt=0.5, realizations=reals, manifest=manifest)


class TestIngest:
    def test_round_trip_small(self, tmp_path):
        ds = small_dataset()
        paths = emit(ds, tmp_path)
        assert len(paths) == 2
        back = ingest(tmp_path, tmp_path / "manifest.json")
        assert back.dt == ds.dt
        assert back.manifest == ds.manifest
        for a, b in zip(back.realizations, ds.realizations):
            assert np.array_equal(a, b)

    def test_round_trip_rlc_bit_identical(self, rlc_dataset, tmp_path):
        emit(rlc_dataset, tmp_path)
        back = ingest(tmp_path, tmp_path / "manifest.json")
        for a, b in zip(back.realizations, rlc_dataset.realizations):
            assert np.array_equal(a, b)

    def test_duplicate_channel_rejected(self):
        manifest = (
            ChannelMeta("u", "input"),
            ChannelMeta("y", "output"),
            ChannelMeta("u", "candidate"),
        )
        with pytest.raises(DuplicateChannel):
            TimeSeriesDataset(0.1, (np.zeros((3, 5)),), manifest)

    def test_missing_channel_diagnostic(self, tmp_path):
        ds = small_dataset()
        emit(ds, tmp_path)
        csv = tmp_path / "realization_00.csv"
        lines = csv.read_text().splitlines()
        lines[0] = lines[0].replace("b", "bb")
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="missing channel"):
            ingest(tmp_path, tmp_path / "manifest.json")

    def test_ragged_row_diagnostic(self, tmp_path):
        ds = small_dataset()
        emit(ds, tmp_path)
        csv = tmp_path / "realization_01.csv"
        with open(csv, "a") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(DatasetError, match="row 102"):
            ingest(tmp_path, tmp_path / "manifest.json")

    def test_non_finite_rejected(self, tmp_path):
        ds = small_dataset()
        emit(ds, tmp_path)
        csv = tmp_path / "realization_00.csv"
        text = csv.read_text().splitlines()
        text[3] = text[3].replace(text[3].split(",")[2], "nan", 1)
        csv.write_text("\n".join(text) + "\n")
        with pytest.raises(DatasetError, match="non-finite"):
            ingest(tmp_path, tmp_path / "manifest.json")

    def test_needs_input_and_output(self):
        manifest = (ChannelMeta("a", "candidate"), ChannelMeta("y", "output"))
        with pytest.raises(DatasetError, match="input"):
            TimeSeriesDataset(0.1, (np.zeros((2, 5)),), manifest)

    def test_explicit_path_list_keeps_order(self, tmp_path):
        ds = small_dataset(n_real=3)
        paths = emit(ds, tmp_path)
        back = ingest([paths[2], paths[0]], tmp_path / "manifest.json")
        assert back.n_realizations == 2
        assert np.array_equal(back.realizations[0], ds.realizations[2])
        assert np.array_equal(back.realizations[1], ds.realizations[0])

    def test_reordered_columns_follow_manifest(self, tmp_path):
        ds = small_dataset(n_real=1)
        emit(ds, tmp_path)
        csv_path = tmp_path / "realization_00.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        order = [header.index(n) for n in ("c", "u", "a", "y", "b")]
        shuffled = [",".join(line.split(",")[j] for j in order) for line in lines]
        csv_path.write_text("\n".join(shuffled) + "\n")
        back = ingest(csv_path, tmp_path / "manifest.json")
        assert np.array_equal(back.realizations[0], ds.realizations[0])

    def test_channel_listed_twice_names_the_manifest(self, tmp_path):
        # the data CSV has one column per channel, so the manifest must be blamed
        ds = small_dataset()
        emit(ds, tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["channels"].insert(3, doc["channels"][2])
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = f"malformed manifest {re.escape(str(path))}: channel 'a' is listed twice"
        with pytest.raises(DuplicateChannel, match=message):
            ingest(tmp_path, path)

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"channels": [{"name": "u", "role": "input"}]}')
        with pytest.raises(DatasetError, match="malformed manifest"):
            ingest(tmp_path, path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports and some editors begin a file with one
        ds = small_dataset()
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        emit(ds, plain)
        for path in [*emit(ds, marked), marked / "manifest.json"]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_manifest(marked / "manifest.json") == load_manifest(plain / "manifest.json")
        back = ingest(marked, marked / "manifest.json")
        assert back.data.tobytes() == ingest(plain, plain / "manifest.json").data.tobytes()
        assert back.manifest == ds.manifest

    def test_byte_order_mark_keeps_row_numbers(self, tmp_path):
        ds = small_dataset(n_real=1, steps=10)
        (path,) = emit(ds, tmp_path)
        rows = path.read_text(encoding="utf-8").splitlines()
        rows[4] = "1.0,2.0"
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode() + b"\n")
        with pytest.raises(DatasetError, match="row 5 has 2 cells, expected 5"):
            ingest(path, tmp_path / "manifest.json")

    @pytest.mark.parametrize("row", [0, 4, 2500])
    def test_text_that_is_not_utf8_is_named_with_its_row(self, tmp_path, row):
        # a Latin-1 degree sign, in the header, in a data row, and past the
        # first block of text a reader decodes at once
        ds = small_dataset(n_real=1, steps=3000)
        (path,) = emit(ds, tmp_path)
        rows = path.read_bytes().split(b"\n")
        rows[row] = rows[row][:2] + b"\xb0" + rows[row][2:]
        path.write_bytes(b"\n".join(rows))
        message = f"{re.escape(str(path))}: row {row + 1}: byte 0xb0 is not UTF-8"
        with pytest.raises(DatasetError, match=message):
            ingest(path, tmp_path / "manifest.json")

    def test_truncated_manifest_is_named(self, tmp_path):
        ds = small_dataset()
        emit(ds, tmp_path)
        path = tmp_path / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(DatasetError, match=f"{re.escape(str(path))}: not a JSON document"):
            load_manifest(path)


# Values whose text a parser can get wrong: signed zero, the subnormal range,
# the largest finite double, and ones whose shortest repr has 17 digits.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               0.1 + 0.2, 1 / 3, -2.718281828459045e-100)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
# repr (shortest), 17 significant digits, 17 digits in exponent notation
FORMATS = (repr, lambda v: f"{v:.17g}", lambda v: f"{v:.16e}")
BAD_CELLS = ("abc", "1.2.3", "", "1e", "--1", "0x10", "#1")
NON_FINITE_CELLS = ("nan", "inf", "-inf", "1e999", "NaN", "-Infinity", '"nan"')
# defects a row can get; bad and non-finite cells twice as often as ragged rows
KINDS = ("short", "long", "merge", "bad", "bad", "non_finite", "non_finite")


def ingest_outcome(path, manifest_path, manifest):
    """(kind, payload) of ingest and of the oracle reader on one data CSV."""
    def run(read):
        try:
            arr = read()
        except DatasetError as exc:
            return "error", str(exc)
        return "ok", (arr.shape, arr.tobytes())

    new = run(lambda: ingest(path, manifest_path).realizations[0])
    old = run(lambda: read_csv_oracle(path, manifest))
    return new, old


@st.composite
def csv_texts(draw, defects=False):
    """A data CSV for 2-5 channels: shuffled columns, quoted cells, blank
    lines and CRLF endings; with ``defects``, up to 3 defects (a cell too few
    or too many, a quoted comma, an unparsable or a non-finite cell) and maybe
    fewer than 2 rows."""
    width = draw(st.integers(min_value=2, max_value=5))
    steps = draw(st.integers(min_value=0 if defects else 2, max_value=8))
    names = [f"c{j}" for j in range(width)]
    perm = draw(st.permutations(range(width)))
    lines = [",".join(names[j] for j in perm)]
    for _ in range(steps):
        cells = []
        for _ in range(width):
            text = draw(st.sampled_from(FORMATS))(draw(FLOATS))
            cells.append(f'"{text}"' if draw(st.booleans()) else text)
        lines.append(cells)
    if defects and steps:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            cells = lines[draw(st.integers(min_value=1, max_value=steps))]
            kind = draw(st.sampled_from(KINDS))
            col = draw(st.integers(min_value=0, max_value=max(len(cells) - 2, 0)))
            if kind == "long" or not cells:
                cells.append("1.0")
            elif kind == "short":
                cells.pop()
            elif kind == "merge":
                # one cell fewer, but as many commas
                cells[col : col + 2] = ['"1,5"']
            else:
                cells[col] = draw(st.sampled_from(BAD_CELLS if kind == "bad" else NON_FINITE_CELLS))
    rows = [lines[0]] + [",".join(c) for c in lines[1:]]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        rows.insert(draw(st.integers(min_value=1, max_value=len(rows))), "")
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return names, newline.join(rows) + (newline if draw(st.booleans()) else "")


class TestIngestOracle:
    """``ingest`` against the per-cell ``csv`` + ``float`` reader in conftest."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("ingest_oracle")

    def write(self, workdir, names, text):
        manifest = tuple(
            ChannelMeta(n, ("input", "output")[j] if j < 2 else "candidate")
            for j, n in enumerate(names)
        )
        save_manifest(workdir / "manifest.json", 0.1, manifest)
        path = workdir / "data.csv"
        path.write_bytes(text.encode())
        return path, workdir / "manifest.json", manifest

    @settings(max_examples=150, deadline=None)
    @given(case=csv_texts())
    def test_bit_identical(self, workdir, case):
        new, old = ingest_outcome(*self.write(workdir, *case))
        assert old[0] == "ok"
        assert new == old

    @settings(max_examples=150, deadline=None)
    @given(case=csv_texts(defects=True))
    def test_same_first_diagnostic(self, workdir, case):
        new, old = ingest_outcome(*self.write(workdir, *case))
        assert new == old

    @staticmethod
    def set_cell(rows, line, col, text):
        cells = rows[line].split(",")
        cells[col] = text
        rows[line] = ",".join(cells)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda rows: rows.insert(4, "1.0,2.0,3.0"), "row 5 has 3 cells, expected 5"),
            (lambda rows: TestIngestOracle.set_cell(rows, 4, 1, "1.2.3"),
             "row 5: could not convert string to float: '1.2.3'"),
            (lambda rows: TestIngestOracle.set_cell(rows, 4, 2, "nan"),
             "row 5: non-finite value in 'a'"),
            (lambda rows: TestIngestOracle.set_cell(rows, 6, 4, "-inf"),
             "row 7: non-finite value in 'c'"),
            (lambda rows: (TestIngestOracle.set_cell(rows, 4, 2, "inf"),
                           TestIngestOracle.set_cell(rows, 7, 1, "abc")),
             "row 5: non-finite value in 'a'"),
            (lambda rows: (TestIngestOracle.set_cell(rows, 4, 1, "abc"), rows.insert(7, "1,2")),
             "row 5: could not convert string to float: 'abc'"),
            (lambda rows: rows.__delitem__(slice(2, None)), "needs at least 2 sample rows"),
            (lambda rows: rows.__delitem__(slice(1, None)), "needs at least 2 sample rows"),
            (lambda rows: rows.clear(), "empty file"),
        ],
        ids=["ragged", "unparsable", "nan", "inf", "inf_above_unparsable",
             "unparsable_above_ragged", "one_row", "header_only", "empty"],
    )
    def test_diagnostic_matches_oracle(self, tmp_path, edit, match):
        ds = small_dataset(n_real=1, steps=10)
        (path,) = emit(ds, tmp_path)
        rows = path.read_text().splitlines()
        edit(rows)
        path.write_text("".join(row + "\n" for row in rows))
        new, old = ingest_outcome(path, tmp_path / "manifest.json", ds.manifest)
        assert new == old
        assert new[0] == "error" and match in new[1]

    def test_digit_grouping_rejected(self, tmp_path):
        ds = small_dataset(n_real=1, steps=10)
        (path,) = emit(ds, tmp_path)
        rows = path.read_text().splitlines()
        rows[3] = "1_000," + rows[3].split(",", 1)[1]
        path.write_text("\n".join(rows) + "\n")
        read_csv_oracle(path, ds.manifest)  # float() takes "1_000"; loadtxt does not
        with pytest.raises(DatasetError, match=r"row 4: not a decimal float in '1_000,"):
            ingest(path, tmp_path / "manifest.json")


def test_quoted_line_break_is_a_ragged_row(tmp_path):
    # csv and loadtxt both let a quoted cell run on to the next line; ingest
    # reads one sample per line, so the cell's lines are ragged rows
    ds = small_dataset(n_real=1, steps=6)
    (path,) = emit(ds, tmp_path)
    rows = path.read_text().splitlines()
    head, cell = rows[3].rsplit(",", 1)
    rows[3:4] = [f'{head},"{cell}', '"']
    path.write_text("".join(row + "\n" for row in rows))
    with pytest.raises(DatasetError, match="row 5 has 1 cells, expected 5"):
        ingest(path, tmp_path / "manifest.json")


def test_ingest_holds_the_recording_about_twice(wide_csv):
    """Every file's parsed rows are held until the dataset stacks them into
    ``data``: about twice the recording, and no copy of a file's text."""
    tracemalloc.start()
    try:
        ds = ingest(wide_csv, wide_csv / "manifest.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * ds.data.nbytes, peak / ds.data.nbytes


class TestParseCache:
    """Each data CSV parsed cleanly is cached as ``<digest>.npy``; a read of
    the same bytes loads it, and the cache never changes what ``ingest``
    returns or raises."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "statesel" / "csv-v1"

    @pytest.fixture
    def parses(self, monkeypatch):
        """The files ``_parse_rows`` has parsed, one name per call."""
        seen, parse = [], datamodel._parse_rows

        def spy(fh, width):
            seen.append(Path(fh.buffer.name).name)
            return parse(fh, width)

        monkeypatch.setattr(datamodel, "_parse_rows", spy)
        return seen

    @pytest.fixture
    def data(self, tmp_path):
        ds = small_dataset(n_real=3, steps=50)
        emit(ds, tmp_path / "data")
        return ds, tmp_path / "data"

    @staticmethod
    def read(data, path=None):
        return ingest(path or data, data / "manifest.json")

    def test_hit_is_bit_identical_to_the_parse(self, cache, parses, data):
        ds, root = data
        miss = self.read(root)
        assert len(parses) == 3 and len(list(cache.iterdir())) == 3
        hit = self.read(root)
        assert len(parses) == 3
        assert hit.data.tobytes() == miss.data.tobytes() == ds.data.tobytes()

    def test_a_changed_byte_is_a_miss(self, cache, parses, data):
        ds, root = data
        path = root / "realization_01.csv"
        self.read(root, path)
        text = path.read_bytes()
        cell = text.split(b"\n")[3].split(b",")[2]
        k = cell.index(b".") + 1  # the first decimal: one byte, a different double
        changed = cell[:k] + str((int(cell[k:k + 1]) + 1) % 10).encode() + cell[k + 1:]
        path.write_bytes(text.replace(cell, changed, 1))
        back = self.read(root, path)
        assert parses == [path.name, path.name] and len(list(cache.iterdir())) == 2
        assert back.data[2, 2] == float(changed) != ds.realizations[1][2, 2]
        assert back.data.tobytes() == read_csv_oracle(path, ds.manifest).tobytes()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda entry: entry.write_bytes(entry.read_bytes()[:-9]),
            lambda entry: entry.write_bytes(b"not an array file"),
            lambda entry: np.save(entry, np.load(entry).astype(np.float32)),
            lambda entry: np.save(entry, np.load(entry)[:, :-1]),
            lambda entry: np.save(entry, np.load(entry).ravel()),
        ],
        ids=["truncated", "garbage", "float32", "narrow", "flat"],
    )
    def test_a_bad_entry_is_parsed_again_and_replaced(self, cache, parses, data, corrupt):
        ds, root = data
        path = root / "realization_00.csv"
        self.read(root, path)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        corrupt(entry)
        assert self.read(root, path).data.tobytes() == ds.realizations[0].tobytes()
        assert parses == [path.name, path.name]
        assert entry.read_bytes() == good and list(cache.iterdir()) == [entry]

    def test_an_unwritable_cache_changes_nothing(self, tmp_path, monkeypatch, parses, data):
        ds, root = data
        # a file where the cache's parent directory should be: no directory
        # can be made under it, whoever runs the test
        blocker = tmp_path / "xdg"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        before = sorted(tmp_path.rglob("*"))
        for _ in range(2):
            assert self.read(root).data.tobytes() == ds.data.tobytes()
        assert len(parses) == 6
        assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == ""

    def test_a_cached_file_follows_another_manifest(self, cache, parses, data):
        ds, root = data
        path = root / "realization_02.csv"
        self.read(root, path)
        order = [4, 1, 3, 0, 2]
        save_manifest(root / "other.json", ds.dt, [ds.manifest[i] for i in order])
        back = ingest(path, root / "other.json")
        assert len(parses) == 1
        assert back.data.tobytes() == ds.realizations[2][order].tobytes()
        save_manifest(root / "fewer.json", ds.dt, ds.manifest[:4])
        with pytest.raises(DatasetError, match=r"unknown channel\(s\) \['c'\]"):
            ingest(path, root / "fewer.json")

    def test_a_defective_file_is_never_cached(self, cache, parses, data):
        ds, root = data
        path = root / "realization_00.csv"
        rows = path.read_text().splitlines()
        rows[5] = rows[5].replace(rows[5].split(",")[1], "nan", 1)
        path.write_text("\n".join(rows) + "\n")
        messages = []
        for _ in range(2):
            with pytest.raises(DatasetError) as err:
                self.read(root, path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and "row 6: non-finite value in 'y'" in messages[0]
        assert parses == [path.name, path.name] and not cache.exists()

    def test_a_file_written_during_its_parse_is_not_cached(self, cache, monkeypatch, data):
        _, root = data
        path = root / "realization_00.csv"
        parse = datamodel._parse_rows

        def append_then_parse(fh, width):
            with open(path, "a") as out:
                out.write(",".join(["1.5"] * width) + "\n")
            return parse(fh, width)

        monkeypatch.setattr(datamodel, "_parse_rows", append_then_parse)
        assert self.read(root, path).data[:, -1].tolist() == [1.5] * 5
        assert not cache.exists()

    def test_a_file_written_after_its_digest_is_parsed(self, cache, parses, monkeypatch, data):
        """A hit's rows are those of the digested bytes; if the file is
        rewritten before its header is read, here with two columns swapped
        at the same size, the rows of the new bytes are parsed instead."""
        ds, root = data
        path = root / "realization_00.csv"
        self.read(root, path)
        (entry,) = cache.iterdir()
        rows = [line.split(",") for line in path.read_text().splitlines()]
        swapped = "".join(",".join([r[1], r[0], *r[2:]]) + "\n" for r in rows)
        digest = datamodel._digest

        def digest_then_rewrite(raw):
            key = digest(raw)
            mtime = os.stat(path).st_mtime_ns
            path.write_text(swapped)
            os.utime(path, ns=(mtime + 10**9,) * 2)  # a later write, whatever the clock's tick
            return key

        monkeypatch.setattr(datamodel, "_digest", digest_then_rewrite)
        assert self.read(root, path).data.tobytes() == ds.realizations[0].tobytes()
        assert parses == [path.name, path.name] and list(cache.iterdir()) == [entry]

    def test_without_blake2_every_read_is_a_parse(self, cache, parses, monkeypatch, data):
        ds, root = data
        block = "import sys; sys.modules['_blake2'] = None; import statesel.datamodel as m; assert m.blake2b is None"
        subprocess.run([sys.executable, "-c", block], check=True)
        monkeypatch.setattr(datamodel, "blake2b", None)
        for _ in range(2):
            assert self.read(root).data.tobytes() == ds.data.tobytes()
        assert len(parses) == 6 and not cache.exists()

    def test_eviction_drops_the_least_recently_used_first(self, cache, monkeypatch, data):
        _, root = data
        paths = [root / f"realization_{r:02d}.csv" for r in range(3)]
        entries = []
        for path in paths[:2]:
            self.read(root, path)
            entries.append(next(e for e in cache.iterdir() if e not in entries))
        size = entries[0].stat().st_size
        monkeypatch.setattr(datamodel, "CACHE_LIMIT_BYTES", 2 * size + size // 2)
        for k, entry in enumerate(entries):  # both long unused, the first the longer
            os.utime(entry, ns=(10**9 * (k + 1),) * 2)
        self.read(root, paths[0])  # a hit makes the first the most recently used
        self.read(root, paths[2])
        left = sorted(cache.iterdir())
        assert entries[1] not in left and entries[0] in left and len(left) == 2
        assert sum(e.stat().st_size for e in left) <= datamodel.CACHE_LIMIT_BYTES
        assert not list(cache.glob("*.tmp"))


class TestSplit:
    def test_80_20(self):
        ds = small_dataset(steps=100)
        train, test = split(ds, SplitSpec(0.8))
        assert train.realizations[0].shape[1] == 80
        assert test.realizations[0].shape[1] == 20

    def test_boundary_too_thin(self):
        ds = small_dataset(steps=100)
        with pytest.raises(DatasetError):
            split(ds, SplitSpec(0.999))

    def test_three_realizations_independent(self):
        ds = small_dataset(n_real=3, steps=50)
        train, test = split(ds, SplitSpec(0.8))
        assert all(r.shape[1] == 40 for r in train.realizations)
        assert all(r.shape[1] == 10 for r in test.realizations)

    def test_reconstructs_original(self):
        ds = small_dataset(steps=57)
        train, test = split(ds, SplitSpec(0.7))
        for orig, tr, te in zip(ds.realizations, train.realizations, test.realizations):
            assert np.array_equal(np.hstack([tr, te]), orig)

    def test_fraction_validated(self):
        with pytest.raises(DatasetError):
            SplitSpec(1.2)


class TestAssemble:
    def test_column_count_single(self):
        ds = small_dataset(n_real=1, steps=5)
        snaps = assemble_snapshots(ds, [2, 3])
        assert snaps.L == 4

    def test_no_pairs_across_boundary(self):
        rng = np.random.default_rng(1)
        manifest = (
            ChannelMeta("u", "input"),
            ChannelMeta("y", "output"),
            ChannelMeta("a", "candidate"),
        )
        reals = (rng.standard_normal((3, 5)), rng.standard_normal((3, 7)))
        ds = TimeSeriesDataset(0.1, reals, manifest)
        snaps = assemble_snapshots(ds, [2])
        assert snaps.L == 10
        # the column right after the boundary must pair steps 0->1 of realization 2
        assert snaps.X[0, 4] == reals[1][2, 0]
        assert snaps.Xp[0, 4] == reals[1][2, 1]

    def test_shift_oracle_rlc(self, rlc_dataset):
        idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
        snaps = assemble_snapshots(rlc_dataset, idx)
        col = 0
        for arr in rlc_dataset.realizations:
            steps = arr.shape[1]
            expect_x = arr[idx, : steps - 1]
            expect_xp = arr[idx, 1:]
            got_x = snaps.X[:, col : col + steps - 1]
            got_xp = snaps.Xp[:, col : col + steps - 1]
            assert np.array_equal(got_x, expect_x)
            assert np.array_equal(got_xp, expect_xp)
            col += steps - 1

    def test_rejects_non_candidate_states(self):
        ds = small_dataset()
        with pytest.raises(DatasetError, match="role"):
            assemble_snapshots(ds, [0, 2])

    def test_rejects_empty(self):
        ds = small_dataset()
        with pytest.raises(DatasetError):
            assemble_snapshots(ds, [])

    def test_inputs_outputs_at_earlier_step(self):
        ds = small_dataset(n_real=1, steps=6)
        snaps = assemble_snapshots(ds, [2])
        arr = ds.realizations[0]
        assert np.array_equal(snaps.V, arr[[0], :-1])
        assert np.array_equal(snaps.Y, arr[[1], :-1])

    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=5))
    def test_column_count_property(self, lengths):
        rng = np.random.default_rng(7)
        manifest = (
            ChannelMeta("u", "input"),
            ChannelMeta("y", "output"),
            ChannelMeta("a", "candidate"),
        )
        reals = tuple(rng.standard_normal((3, l)) for l in lengths)
        ds = TimeSeriesDataset(0.1, reals, manifest)
        snaps = assemble_snapshots(ds, [2])
        assert snaps.L == sum(l - 1 for l in lengths)

    def test_train_test_columns_disjoint(self):
        ds = small_dataset(steps=40)
        train, test = split(ds, SplitSpec(0.75))
        tr = assemble_snapshots(train, [2])
        te = assemble_snapshots(test, [2])
        # train covers pairs 0..28, test pairs 30..38 of each realization
        assert tr.L == 2 * 29
        assert te.L == 2 * 9
        orig = ds.realizations[0][2]
        assert tr.Xp[0, 28] == orig[29]
        assert te.X[0, 0] == orig[30]


def test_snapshotset_validates_columns():
    with pytest.raises(DatasetError):
        SnapshotSet(X=np.zeros((2, 4)), Xp=np.zeros((2, 4)), V=np.zeros((1, 3)), Y=np.zeros((1, 4)))


def test_dataset_arrays_read_only():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.realizations[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.data[0, 0] = 5.0


class TestLayout:
    """One C-ordered ``data`` array per dataset, read by every consumer,
    against the per-realization loops of conftest."""

    MANIFEST = (
        ChannelMeta("u", "input"),
        ChannelMeta("y0", "output"),
        ChannelMeta("a", "candidate"),
        ChannelMeta("b", "candidate"),
        ChannelMeta("y1", "output"),
        ChannelMeta("c", "candidate"),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=2, max_value=120), min_size=1, max_size=4),
        fraction=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(lengths=[120, 57, 3, 110], fraction=0.8, seed=3)
    def test_data_matches_per_realization_loops(self, lengths, fraction, seed):
        rng = np.random.default_rng(seed)
        # transposed row-major draws are F-ordered, as ingest's parsed files are
        scale = 10.0 ** rng.integers(-3, 4)
        reals = [scale * rng.standard_normal((l, len(self.MANIFEST))).T for l in lengths]
        ds = TimeSeriesDataset(0.1, tuple(reals), self.MANIFEST)
        for r, a in zip(ds.realizations, reals):
            assert np.array_equal(r, a)
        cuts = [int(np.floor(fraction * l)) for l in lengths]
        both_sides = all(2 <= c <= l - 2 for c, l in zip(cuts, lengths))
        for d in [ds, *split(ds, SplitSpec(fraction))] if both_sides else [ds]:
            assert d.data.flags.c_contiguous and not d.data.flags.writeable
            assert d.data.shape == (len(self.MANIFEST), sum(r.shape[1] for r in d.realizations))
            assert all(np.shares_memory(r, d.data) for r in d.realizations)
            snaps = assemble_snapshots(d, [3, 2])
            got = (snaps.X, snaps.Xp, snaps.V, snaps.Y)
            for g, w in zip(got, snapshots_per_realization(d, [3, 2])):
                assert g.shape == w.shape and np.array_equal(g, w)
            truth = RolloutTruth.of(d, [5, 3])
            x0, V, Xp, Yp, starts = rollout_truth_per_realization(d, [5, 3])
            for g, w in zip((truth.x0, truth.V, truth.Xp, truth.Yp), (x0, V, Xp, Yp)):
                assert g.shape == w.shape and np.array_equal(g, w)
            assert truth.starts == starts
            assert np.array_equal(pooled_std(d), pooled_std_per_realization(d))
