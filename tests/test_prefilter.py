import importlib
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster import hierarchy
from scipy.spatial.distance import squareform

from statesel.benchgen import RLC_EXPECTED_KEPT
from statesel.datamodel import ChannelMeta, TimeSeriesDataset
from statesel.errors import DatasetError
from statesel.prefilter import (
    PrefilterConfig,
    _complete_linkage,
    _unit_rows,
    prefilter,
    write_report_csv,
)

from conftest import correlation

# the module, which the package's ``prefilter`` function shadows
prefilter_module = importlib.import_module("statesel.prefilter")


def build_dataset(channels, steps=400, seed=0, dt=0.1):
    """channels: list of (name, role, values-array or callable(rng, base))."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(steps)
    manifest, rows = [], []
    for name, role, make in channels:
        manifest.append(ChannelMeta(name, role))
        rows.append(make(rng, base) if callable(make) else np.asarray(make, dtype=float))
    return TimeSeriesDataset(dt, (np.vstack(rows),), tuple(manifest))


class TestCorrelation:
    def test_negation_is_minus_one(self):
        a = np.random.default_rng(0).standard_normal(50)
        assert correlation(a, -a) == pytest.approx(-1.0)

    def test_constant_convention_zero(self):
        a = np.random.default_rng(1).standard_normal(50)
        assert correlation(a, np.full(50, 4.2)) == 0.0

    def test_independent_noise_small(self):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal(10_000), rng.standard_normal(10_000)
        assert abs(correlation(a, b)) < 0.05

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            correlation(np.ones(5), np.ones(6))


class TestRules:
    def test_input_collinear_removed(self):
        ds = build_dataset(
            [
                ("u", "input", lambda rng, base: base),
                ("y", "output", lambda rng, base: rng.standard_normal(base.size)),
                ("tied", "candidate", lambda rng, base: 2.0 * base + 3.0),
                ("free", "candidate", lambda rng, base: rng.standard_normal(base.size)),
            ]
        )
        report = prefilter(ds)
        removed = {r.index: r for r in report.removed}
        tied = ds.index_of("tied")
        assert tied in removed
        assert removed[tied].reason == "input_collinear"
        assert removed[tied].evidence == pytest.approx(1.0)
        assert ds.index_of("free") in report.kept

    def test_near_constant_removed(self):
        ds = build_dataset(
            [
                ("u", "input", lambda rng, base: base),
                ("y", "output", lambda rng, base: rng.standard_normal(base.size)),
                ("flat", "candidate", np.full(400, 7.5)),
                ("live", "candidate", lambda rng, base: rng.standard_normal(base.size)),
            ]
        )
        report = prefilter(ds)
        removed = {r.index: r.reason for r in report.removed}
        assert removed[ds.index_of("flat")] == "near_constant"
        assert ds.index_of("live") in report.kept

    def test_duplicate_cluster_keeps_lowest_index(self):
        ds = build_dataset(
            [
                ("u", "input", lambda rng, base: base),
                ("y", "output", lambda rng, base: rng.standard_normal(base.size)),
                ("orig", "candidate", lambda rng, base: rng.standard_normal(base.size)),
                ("alias1", "candidate", np.zeros(400)),
                ("alias2", "candidate", np.zeros(400)),
            ]
        )
        # aliases are exact affine copies of "orig"
        arr = np.array(ds.realizations[0])
        arr[3] = 2.0 * arr[2] + 1.0
        arr[4] = -0.5 * arr[2]
        ds = TimeSeriesDataset(ds.dt, (arr,), ds.manifest)
        report = prefilter(ds)
        assert ds.index_of("orig") in report.kept
        dup = {r.index: r for r in report.removed if r.reason == "duplicate"}
        assert set(dup) == {ds.index_of("alias1"), ds.index_of("alias2")}
        for r in dup.values():
            assert r.representative == ds.index_of("orig")
            assert r.evidence >= PrefilterConfig().dedupe_corr_threshold

    def test_dedupe_can_be_disabled(self):
        ds = build_dataset(
            [
                ("u", "input", lambda rng, base: base),
                ("y", "output", lambda rng, base: rng.standard_normal(base.size)),
                ("orig", "candidate", lambda rng, base: rng.standard_normal(base.size)),
                ("alias", "candidate", np.zeros(400)),
            ]
        )
        arr = np.array(ds.realizations[0])
        arr[3] = 3.0 * arr[2]
        ds = TimeSeriesDataset(ds.dt, (arr,), ds.manifest)
        report = prefilter(ds, PrefilterConfig(dedupe_enabled=False))
        assert ds.index_of("alias") in report.kept

    def test_empty_kept_is_valid(self):
        ds = build_dataset(
            [
                ("u", "input", lambda rng, base: base),
                ("y", "output", lambda rng, base: rng.standard_normal(base.size)),
                ("flat", "candidate", np.zeros(400)),
            ]
        )
        report = prefilter(ds)
        assert report.kept == ()
        assert len(report.removed) == 1

    def test_partition_is_complete(self, rlc_split):
        train, _ = rlc_split
        report = prefilter(train)
        all_idx = set(report.kept) | {r.index for r in report.removed}
        assert all_idx == set(train.candidate_indices)
        assert len(report.kept) + len(report.removed) == len(train.candidate_indices)


class TestRlcPool:
    def test_keeps_exactly_eight(self, rlc_split, rlc_dataset):
        train, _ = rlc_split
        report = prefilter(train)
        assert len(report.kept) == 8
        kept_names = {rlc_dataset.names[i] for i in report.kept}
        assert kept_names == set(RLC_EXPECTED_KEPT)

    def test_idempotent_on_kept_set(self, rlc_split, rlc_dataset):
        train, _ = rlc_split
        report = prefilter(train)
        keep_rows = sorted(
            list(train.input_indices) + list(train.output_indices) + list(report.kept)
        )
        manifest = tuple(train.manifest[i] for i in keep_rows)
        reals = tuple(np.array(a[keep_rows]) for a in train.realizations)
        reduced = TimeSeriesDataset(train.dt, reals, manifest)
        report2 = prefilter(reduced)
        assert report2.removed == ()
        assert len(report2.kept) == 8

    def test_duplicates_meet_bar_with_representative(self, rlc_split):
        train, _ = rlc_split
        report = prefilter(train)
        data = np.hstack(train.realizations)
        cfg = PrefilterConfig()
        for r in report.removed:
            if r.reason == "duplicate":
                got = abs(correlation(data[r.index], data[r.representative]))
                assert got >= cfg.dedupe_corr_threshold

    def test_report_csv(self, rlc_split, tmp_path):
        train, _ = rlc_split
        report = prefilter(train)
        path = tmp_path / "report.csv"
        write_report_csv(report, train, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,name,decision,reason,evidence,representative"
        assert len(lines) == 1 + len(train.candidate_indices)


def test_config_validation():
    with pytest.raises(ValueError):
        PrefilterConfig(input_corr_threshold=0.0)
    with pytest.raises(ValueError):
        PrefilterConfig(dedupe_corr_threshold=1.5)
    with pytest.raises(ValueError):
        PrefilterConfig(variance_epsilon=-1.0)


class TestRule2Oracle:
    """Rule 2 against the per-pair ``correlation`` loop it replaced."""

    @pytest.mark.parametrize("split_name", ["rlc_split", "coupled_split", "wide_split"])
    def test_matches_correlation_loop(self, split_name, request):
        train, _ = request.getfixturevalue(split_name)
        cfg = PrefilterConfig(dedupe_enabled=False)
        report = prefilter(train, cfg)
        data = np.hstack(train.realizations)
        near_constant = {r.index for r in report.removed if r.reason == "near_constant"}
        evidence = {
            idx: max(abs(correlation(data[idx], data[u])) for u in train.input_indices)
            for idx in train.candidate_indices
            if idx not in near_constant
        }
        collinear = {i for i, e in evidence.items() if e > cfg.input_corr_threshold}
        assert report.kept == tuple(sorted(set(evidence) - collinear))
        removed = [r for r in report.removed if r.reason == "input_collinear"]
        assert {r.index for r in removed} == collinear
        for r in removed:
            assert abs(r.evidence - evidence[r.index]) <= 1e-12
        if split_name != "coupled_split":
            assert collinear, "the case should exercise a removal"


class TestRule1Oracle:
    """Rule 1 against the per-row ``np.var`` loop it replaced."""

    @pytest.mark.parametrize("split_name", ["rlc_split", "coupled_split", "wide_split"])
    def test_matches_per_row_loop(self, split_name, request):
        train, _ = request.getfixturevalue(split_name)
        data = np.hstack(train.realizations)
        data[train.candidate_indices[0]] = 4.2  # one constant row
        train = TimeSeriesDataset(train.dt, (data,), train.manifest)
        for eps in (0.0, 1e-12, 0.05):
            report = prefilter(train, PrefilterConfig(variance_epsilon=eps, dedupe_enabled=False))
            expected = {}
            for idx in train.candidate_indices:
                z = data[idx]
                rng = float(z.max() - z.min())
                if rng == 0.0:
                    expected[idx] = 0.0
                elif (var := float(np.var(z / rng))) < eps:
                    expected[idx] = var
            got = {r.index: r.evidence for r in report.removed if r.reason == "near_constant"}
            assert got == expected  # bit for bit
            assert all(type(e) is float for e in got.values())


def scipy_clusters(dist, t):
    """The clusters of two or more rows that scipy's complete linkage cut at ``t`` forms."""
    labels = hierarchy.fcluster(
        hierarchy.complete(squareform(dist, checks=False)), t=t, criterion="distance"
    )
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(g for g in groups.values() if len(g) > 1)


def clusters(dist, t):
    return sorted(_complete_linkage(dist, t))


def pairwise(points):
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))


@st.composite
def chained_points(draw):
    """Random-walk points, so near pairs chain into components that are not
    cliques, with some points repeated exactly (distance 0) and a threshold
    that is either free or exactly one of the pair distances."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    points = np.cumsum(rng.exponential(1.0, (n, dim)), axis=0)[rng.permutation(n)]
    repeats = draw(st.integers(0, n // 2))
    points[rng.integers(0, n, repeats)] = points[rng.integers(0, n, repeats)]
    dist = pairwise(points)
    if draw(st.booleans()):
        t = draw(st.floats(0.0, 4.0))
    else:
        upper = dist[np.triu_indices(n, 1)]
        t = float(upper[draw(st.integers(0, upper.size - 1))])
    return dist, t


class TestCompleteLinkage:
    """The numpy complete linkage of rule 3 against scipy's as the oracle.
    Partitions are compared, not label numbers."""

    @settings(max_examples=300, deadline=None)
    @given(chained_points())
    def test_partition_matches_scipy(self, case):
        dist, t = case
        assert clusters(dist, t) == scipy_clusters(dist, t)

    def test_chained_component_is_split(self):
        # 0-1 and 1-2 are near, 0-2 is not: one component, two clusters
        dist = pairwise(np.array([[0.0], [0.9], [1.7]]))
        assert clusters(dist, 1.0) == [[1, 2]] == scipy_clusters(dist, 1.0)

    def test_exact_duplicates(self):
        points = np.array([[0.0], [5.0], [0.0], [5.0], [0.0], [9.0]])
        dist = pairwise(points)
        assert clusters(dist, 0.0) == [[0, 2, 4], [1, 3]] == scipy_clusters(dist, 0.0)

    def test_threshold_equal_to_a_distance_merges(self):
        dist = pairwise(np.array([[0.0], [0.75], [3.0]]))
        t = float(dist[0, 1])
        assert clusters(dist, t) == [[0, 1]] == scipy_clusters(dist, t)
        assert clusters(dist, np.nextafter(t, 0.0)) == [] == scipy_clusters(dist, np.nextafter(t, 0.0))

    def test_no_near_pairs(self):
        dist = pairwise(np.arange(50.0)[:, None] ** 1.5)
        assert clusters(dist, 0.5) == [] == scipy_clusters(dist, 0.5)

    def test_large_clique_is_one_cluster(self):
        points = np.random.default_rng(3).uniform(0.0, 0.1, (1000, 2))
        dist = pairwise(points)
        assert clusters(dist, 0.2) == [list(range(1000))] == scipy_clusters(dist, 0.2)

    def test_long_chain(self):
        # 3000 rows, each within t of its two neighbours only: one component
        # that is no clique. Labelling it one row scan per step and merging it
        # by the nearest-neighbour chain takes well under a second; a cost in
        # the square of the chain length, in Python steps or in passes over
        # the matrix, takes far longer than the bound.
        rng = np.random.default_rng(4)
        points = (0.6 * np.arange(3000.0) + rng.uniform(0.0, 0.05, 3000))[rng.permutation(3000), None]
        dist = pairwise(points)
        t0 = time.perf_counter()
        got = clusters(dist, 1.0)
        elapsed = time.perf_counter() - t0
        assert got == scipy_clusters(dist, 1.0)
        assert len(got) >= 1000
        assert elapsed < 10.0


def dense_rule3(train, cfg):
    """Rule 3 in dense form, the oracle of the blocked scan: the full Gram
    matrix of the channels rules 1-2 kept, then scipy's complete
    linkage on ``1 - |r|``. Returns the kept channels, each duplicate's
    (evidence, representative), and the number of kept channels within the
    threshold of another."""
    kept = list(prefilter(train, replace(cfg, dedupe_enabled=False)).kept)
    unit = _unit_rows(train.data, kept)
    corr = np.clip(np.abs(unit @ unit.T), 0.0, 1.0)
    dist = 1.0 - corr
    np.fill_diagonal(dist, 0.0)
    t = 1.0 - cfg.dedupe_corr_threshold
    duplicates = {}
    for members in scipy_clusters(dist, t):
        rep = members[0]
        for m in members[1:]:
            duplicates[kept[m]] = (float(corr[m, rep]), kept[rep])
    np.fill_diagonal(dist, np.inf)
    active = int((dist <= t).any(axis=1).sum())
    return tuple(i for i in kept if i not in duplicates), duplicates, active


def assert_rule3_matches(report, expected_kept, expected):
    """The same kept set and representatives, and evidence to round-off: the
    Gram matrix of the rows that can merge sums as the full one does, but
    not always in the same order."""
    got = {r.index: (r.evidence, r.representative) for r in report.removed if r.reason == "duplicate"}
    assert report.kept == expected_kept
    assert {i: rep for i, (_, rep) in got.items()} == {i: rep for i, (_, rep) in expected.items()}
    for i, (evidence, _) in got.items():
        assert abs(evidence - expected[i][0]) <= 4 * np.finfo(float).eps, i


class TestRule3Oracle:
    """Rule 3 against the dense Gram matrix and scipy's complete linkage."""

    @pytest.mark.parametrize("split_name", ["rlc_split", "coupled_split", "wide_split"])
    def test_matches_scipy_linkage(self, split_name, request):
        train, _ = request.getfixturevalue(split_name)
        cfg = PrefilterConfig()
        expected_kept, expected, _ = dense_rule3(train, cfg)
        assert_rule3_matches(prefilter(train, cfg), expected_kept, expected)
        if split_name == "rlc_split":
            assert expected, "the case should exercise a removal"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_planted_groups_and_chains(self, data):
        """Random rows with planted groups of near copies (cliques) and
        chains whose neighbours are near but whose second neighbours are
        not, under any ``ROW_BLOCK``."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        threshold = 0.999
        t = 1.0 - threshold
        steps = 48
        rows = list(rng.standard_normal((data.draw(st.integers(2, 30), label="free"), steps)))
        for _ in range(data.draw(st.integers(0, 4), label="groups")):
            base = rng.standard_normal(steps)
            for _ in range(data.draw(st.integers(2, 5), label="size")):
                # 1 - |r| ~ |noise|^2 / 2: at most t / 8 from the base, t / 2 apart
                noise = rng.standard_normal(steps) * np.sqrt(t / 4) * rng.uniform(0.0, 1.0) / np.sqrt(steps)
                rows.append(rng.choice([-1.0, 1.0]) * (base / np.linalg.norm(base) + noise))
        for _ in range(data.draw(st.integers(0, 3), label="chains")):
            # unit vectors along a circle: neighbours near, second neighbours
            # at about four times their distance, beyond t
            e1, e2 = np.linalg.qr(rng.standard_normal((steps, 2)) - rng.standard_normal((1, 2)))[0].T
            theta = np.arccos(1.0 - t * rng.uniform(0.4, 0.7))
            angles = np.cumsum(theta * rng.uniform(0.85, 1.15, data.draw(st.integers(2, 8), label="length")))
            rows += [np.cos(a) * e1 + np.sin(a) * e2 for a in angles]
        rows = [rng.uniform(0.1, 10.0) * r + rng.uniform(-5.0, 5.0) for r in rows]
        order = rng.permutation(len(rows))
        u = rng.standard_normal(steps)
        manifest = [ChannelMeta("u", "input"), ChannelMeta("y", "output")]
        manifest += [ChannelMeta(f"c{j}", "candidate") for j in range(len(rows))]
        block = np.vstack([u, rng.standard_normal(steps)] + [rows[j] for j in order])
        train = TimeSeriesDataset(0.1, (block,), tuple(manifest))
        cfg = PrefilterConfig(dedupe_corr_threshold=threshold)
        expected_kept, expected, _ = dense_rule3(train, cfg)
        row_block = data.draw(st.sampled_from([1, 3, prefilter_module.ROW_BLOCK, 10**6]), label="ROW_BLOCK")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prefilter_module, "ROW_BLOCK", row_block)
            report = prefilter(train, cfg)
        assert_rule3_matches(report, expected_kept, expected)


class TestRowBlocks:
    """Rules 1 to 3 work through blocks of ``ROW_BLOCK`` rows, and hold one
    unit-row matrix beyond their input, and the Gram matrix of only the rows
    within the dedupe threshold of another, never that of all the kept rows."""

    @staticmethod
    def removed_by_rule(report):
        return {reason: sum(r.reason == reason for r in report.removed)
                for reason in ("near_constant", "input_collinear", "duplicate")}

    @pytest.mark.parametrize("block", [1, 3, 10**6])
    @pytest.mark.parametrize("split_name", ["rlc_split", "wide_csv_split"])
    def test_report_does_not_depend_on_block_size(self, block, split_name, request, monkeypatch, tmp_path):
        train, _ = request.getfixturevalue(split_name)
        write_report_csv(prefilter(train), train, tmp_path / "default.csv")
        monkeypatch.setattr(prefilter_module, "ROW_BLOCK", block)
        report = prefilter(train)
        write_report_csv(report, train, tmp_path / "blocked.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
        if split_name == "wide_csv_split":
            assert all(self.removed_by_rule(report).values()), "every rule should remove some"

    def test_memory_beyond_the_input(self, wide_csv_split):
        """The traced peak stays within one (candidates x samples) matrix, one
        (rows within the threshold of another)^2 matrix, one block of
        ``ROW_BLOCK`` x candidates, and a few hundred bytes of bookkeeping per
        candidate (lists, records and per-candidate vectors)."""
        train, _ = wide_csv_split
        tracemalloc.start()
        try:
            report = prefilter(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        candidates = len(train.candidate_indices)
        _, _, active = dense_rule3(train, PrefilterConfig())
        assert 0 < active < len(report.kept) / 2
        matrices = 8 * (candidates * train.data.shape[1] + active * active + prefilter_module.ROW_BLOCK * candidates)
        assert peak <= matrices + 256 * candidates, peak / matrices
