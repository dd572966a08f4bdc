import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesel.cost import (
    ChannelScales,
    RolloutTruth,
    cost,
    pooled_std,
    rollout_cost,
    rollout_traces,
)
from statesel.datamodel import ChannelMeta, TimeSeriesDataset
from statesel.dmdc import fit_model
from statesel.errors import DatasetError
from statesel.selection import SubsetEvaluator

from conftest import (
    per_realization_cost,
    pooled_std_per_realization,
    random_stable_discrete,
    simulate_discrete,
)


def dataset_from_rows(rows_per_real, dt=0.1):
    manifest = (
        ChannelMeta("u", "input"),
        ChannelMeta("y", "output"),
        ChannelMeta("a", "candidate"),
    )
    return TimeSeriesDataset(dt, tuple(np.asarray(r, dtype=float) for r in rows_per_real), manifest)


def make_scales(sx, sy, floor=1e-9):
    return ChannelScales(
        sigma_x=np.maximum(np.asarray(sx, dtype=float), floor),
        sigma_y=np.maximum(np.asarray(sy, dtype=float), floor),
        floor=floor,
    )


class TestComputeScales:
    def test_floor_engages_on_constant(self):
        rows = [np.vstack([np.ones(10), np.ones(10), np.full(10, 3.0)])]
        ds = dataset_from_rows(rows)
        scales = SubsetEvaluator(ds, scale_floor=1e-9).scales_for([2])
        assert scales.sigma_x[0] == 1e-9

    def test_two_point_channel(self):
        rows = [np.vstack([np.ones(2), np.ones(2), np.array([0.0, 2.0])])]
        ds = dataset_from_rows(rows)
        scales = SubsetEvaluator(ds).scales_for([2])
        assert scales.sigma_x[0] == pytest.approx(1.0, abs=0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(1000) * 3.7 + 1.2
        rows = [np.vstack([np.ones(600), np.ones(600), data[:600]]),
                np.vstack([np.ones(400), np.ones(400), data[600:]])]
        ds = dataset_from_rows(rows)
        scales = SubsetEvaluator(ds).scales_for([2])
        mean = sum(data) / len(data)
        var = sum((x - mean) ** 2 for x in data) / len(data)
        assert scales.sigma_x[0] == pytest.approx(np.sqrt(var), rel=1e-12)

    def test_pooled_across_realizations(self):
        rows = [np.vstack([np.ones(3), np.ones(3), np.array([0.0, 0.0, 0.0])]),
                np.vstack([np.ones(3), np.ones(3), np.array([2.0, 2.0, 2.0])])]
        ds = dataset_from_rows(rows)
        assert pooled_std(ds)[2] == pytest.approx(1.0)

    def test_row_blocks_match_the_whole_recording(self, wide_csv_split):
        # 402 channels span several blocks; no temporary is a copy of the split
        train, _ = wide_csv_split
        tracemalloc.start()
        try:
            got = pooled_std(train)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, pooled_std_per_realization(train))
        assert peak <= train.data.nbytes / 2


class TestCost:
    def test_perfect_prediction_is_zero(self):
        x = np.ones((2, 10))
        y = np.ones((1, 10))
        b = cost(x, y, x.copy(), y.copy(), make_scales([1, 1], [1]))
        assert b.J == 0.0
        assert b.J_state == 0.0 and b.J_output == 0.0

    def test_sigma_error_forces_two(self):
        L = 13
        sx, sy = 0.7, 2.3
        true_x = np.zeros((1, L))
        true_y = np.zeros((1, L))
        b = cost(true_x + sx, true_y + sy, true_x, true_y, make_scales([sx], [sy]))
        assert b.J == 2.0
        assert b.J_state == 1.0 and b.J_output == 1.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(9)
        n, p, L = 3, 2, 20
        px, tx = rng.standard_normal((n, L)), rng.standard_normal((n, L))
        py, ty = rng.standard_normal((p, L)), rng.standard_normal((p, L))
        sx, sy = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, p)
        b = cost(px, py, tx, ty, make_scales(sx, sy))
        js = sum(
            ((px[i, k] - tx[i, k]) / sx[i]) ** 2 for i in range(n) for k in range(L)
        ) / (n * L)
        jo = sum(
            ((py[j, k] - ty[j, k]) / sy[j]) ** 2 for j in range(p) for k in range(L)
        ) / (p * L)
        assert b.J_state == pytest.approx(js, rel=1e-12)
        assert b.J_output == pytest.approx(jo, rel=1e-12)
        assert b.J == pytest.approx(js + jo, rel=1e-12)

    def test_breakdown_fields(self):
        b = cost(np.ones((2, 5)), np.ones((3, 5)), np.zeros((2, 5)), np.zeros((3, 5)),
                 make_scales([1, 1], [1, 1, 1]))
        assert (b.n, b.p, b.L) == (2, 3, 5)
        assert b.J == b.J_state + b.J_output

    def test_shape_mismatch(self):
        with pytest.raises(DatasetError):
            cost(np.ones((2, 5)), np.ones((1, 5)), np.ones((2, 4)), np.ones((1, 5)),
                 make_scales([1, 1], [1]))

    def test_scale_invariance_of_pipeline(self):
        rng = np.random.default_rng(10)
        tx = rng.standard_normal((2, 30))
        px = tx + 0.1 * rng.standard_normal((2, 30))
        ty = rng.standard_normal((1, 30))
        py = ty + 0.1 * rng.standard_normal((1, 30))
        sx, sy = tx.std(axis=1), ty.std(axis=1)
        j0 = cost(px, py, tx, ty, make_scales(sx, sy)).J
        alpha = 37.5
        tx2, px2 = tx.copy(), px.copy()
        tx2[0] *= alpha
        px2[0] *= alpha
        sx2 = tx2.std(axis=1)
        j1 = cost(px2, py, tx2, ty, make_scales(sx2, sy)).J
        assert j1 == pytest.approx(j0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_errorwise_shrinkage(self, lam):
        rng = np.random.default_rng(11)
        tx = rng.standard_normal((2, 15))
        ex = rng.standard_normal((2, 15))
        ty = rng.standard_normal((1, 15))
        ey = rng.standard_normal((1, 15))
        scales = make_scales([1.0, 2.0], [0.5])
        j1 = cost(tx + ex, ty + ey, tx, ty, scales).J
        j2 = cost(tx + lam * ex, ty + lam * ey, tx, ty, scales).J
        assert j2 == pytest.approx(lam**2 * j1, rel=1e-9, abs=1e-12)

    def test_concatenation_is_column_weighted_average(self):
        rng = np.random.default_rng(12)
        scales = make_scales([1.0], [1.0])
        parts = []
        for L in (10, 30):
            tx, px = rng.standard_normal((1, L)), rng.standard_normal((1, L))
            ty, py = rng.standard_normal((1, L)), rng.standard_normal((1, L))
            parts.append((px, py, tx, ty))
        j_each = [cost(*p, scales).J for p in parts]
        j_cat = cost(
            np.hstack([p[0] for p in parts]),
            np.hstack([p[1] for p in parts]),
            np.hstack([p[2] for p in parts]),
            np.hstack([p[3] for p in parts]),
            scales,
        ).J
        expected = (10 * j_each[0] + 30 * j_each[1]) / 40
        assert j_cat == pytest.approx(expected, rel=1e-12)


def test_rollout_cost_exact_data_near_zero(rlc_split, rlc_dataset):
    train, test = rlc_split
    idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
    model = fit_model(train, idx)
    scales = SubsetEvaluator(train).scales_for(idx)
    assert rollout_cost(model, train, idx, scales).J < 1e-12
    assert rollout_cost(model, test, idx, scales).J < 1e-12


class TestRolloutCostOracle:
    """``rollout_cost``'s one rollout of every realization against the per-step
    loop run once per realization (conftest ``per_realization_cost``)."""

    @staticmethod
    def dataset(rng):
        """Candidates linear in a 3-state system, realizations of 399, 350 and
        420 steps."""
        Ad, Bd, Cd = random_stable_discrete(rng, 3, 1, 2)
        manifest = (ChannelMeta("u", "input"), ChannelMeta("y0", "output"), ChannelMeta("y1", "output"))
        manifest += tuple(ChannelMeta(f"c{j}", "candidate") for j in range(4))
        M = rng.standard_normal((4, 3))
        reals = []
        for l in (399, 350, 420):
            V = rng.standard_normal((1, l))
            X = simulate_discrete(Ad, Bd, V[:, :-1], rng.standard_normal(3))
            reals.append(np.vstack([V, Cd @ X, M @ X + 0.01 * rng.standard_normal((4, l))]))
        return TimeSeriesDataset(0.1, tuple(reals), manifest)

    def test_matches_per_realization_oracle(self):
        ds = self.dataset(np.random.default_rng(21))
        ev = SubsetEvaluator(ds)
        for subset in ([3], [3, 5], [3, 4, 6], [3, 4, 5, 6]):
            model = fit_model(ds, subset)
            got = rollout_cost(model, ds, subset, ev.scales_for(subset))
            want = per_realization_cost(model, ds, subset, ev.scales_for(subset))
            assert (got.n, got.p, got.L) == (want.n, want.p, want.L) == (len(subset), 2, 399 + 350 + 420 - 3)
            for field in ("J", "J_state", "J_output"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9)

    def test_traces_are_per_realization_blocks(self):
        ds = self.dataset(np.random.default_rng(23))
        subset, ins, outs = [3, 5], list(ds.input_indices), list(ds.output_indices)
        model = fit_model(ds, subset)
        traces = rollout_traces(model, ds)
        assert [r for r, _, _ in traces] == [0, 1, 2]
        for (_, pred, true), arr in zip(traces, ds.realizations):
            X = simulate_discrete(model.Ad, model.Bd, arr[ins, :-1], arr[subset, 0])[:, 1:]
            assert np.array_equal(true, np.vstack([arr[subset, 1:], arr[outs, 1:]]))
            np.testing.assert_allclose(pred, np.vstack([X, model.Cd @ X]), rtol=1e-9, atol=1e-9)

    def test_pool_rows_score_as_the_dataset(self):
        ds = self.dataset(np.random.default_rng(22))
        pool = RolloutTruth.of(ds, [3, 4, 5, 6])
        scales = SubsetEvaluator(ds).scales_for([4, 6])
        model = fit_model(ds, [4, 6])
        assert rollout_cost(model, pool, [4, 6], scales) == rollout_cost(model, ds, [4, 6], scales)
        with pytest.raises(DatasetError):
            rollout_cost(model, RolloutTruth.of(ds, [3, 4, 5]), [4, 6], scales)


def test_scales_validated():
    with pytest.raises(ValueError):
        ChannelScales(sigma_x=np.array([0.0]), sigma_y=np.array([1.0]), floor=1e-9)
