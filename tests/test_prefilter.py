import numpy as np
import pytest

from statesel.benchgen import RLC_EXPECTED_KEPT
from statesel.datamodel import ChannelMeta, TimeSeriesDataset
from statesel.errors import DatasetError
from statesel.prefilter import (
    PrefilterConfig,
    correlation,
    prefilter,
    write_report_csv,
)


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
        all_idx = set(report.kept) | set(report.removed_indices())
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
