from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statesel.datamodel import ChannelMeta, SplitSpec, TimeSeriesDataset, assemble_snapshots, split
from statesel.dmdc import fit_output_map, truncated_svd
from statesel.errors import DegenerateSnapshots, MergedPoolTooLarge
from statesel.prefilter import prefilter
from statesel.rfe import (
    CrossImport,
    RFEConfig,
    _mean_importance,
    _output_factor,
    count_subsets,
    cross_influence,
    enumerate_subsets,
    importance,
    merged_search,
    rfe_rank,
    rfe_select,
    within_subsystem_rfe,
)
from statesel.selection import SubsetEvaluator, subset_key

from conftest import Drawn, correlation, fit_tol, mean_importance_two_fit, simulate_discrete, svd_solve

# worked two-subsystem example: a high-gain block dominating a low-gain one
GAIN_DISPARITY_CD = np.array(
    [
        [1.00e2, 1.00e1, 1.00e0, 1.00e-4, 1.00e-4, 1.00e-4],
        [1.00e-5, 1.00e-5, 1.00e-5, 1.00e-1, 1.00e-3, 1.00e-4],
    ]
)
EXPECTED_I_A = np.array([1.00, 1.00e-1, 1.00e-2, 0.0, 0.0, 0.0])
EXPECTED_I_B = np.array([0.0, 0.0, 0.0, 1.00, 9.90e-3, 9.00e-4])
EXPECTED_MEAN = np.array([5.00e-1, 5.00e-2, 5.00e-3, 5.00e-1, 4.95e-3, 4.50e-4])


def rel_close(got, expected, rtol):
    got, expected = np.asarray(got), np.asarray(expected)
    scale = np.maximum(np.abs(expected), 1e-300)
    mask = expected != 0
    ok_nonzero = np.all(np.abs(got - expected)[mask] / scale[mask] < rtol)
    ok_zero = np.all(np.abs(got[~mask]) < 1e-12)
    return ok_nonzero and ok_zero


class TestImportance:
    def test_gain_disparity_rows(self):
        im = importance(GAIN_DISPARITY_CD)
        assert rel_close(im.I[0], EXPECTED_I_A, 1e-3)
        assert rel_close(im.I[1], EXPECTED_I_B, 1e-3)

    def test_gain_disparity_means(self):
        im = importance(GAIN_DISPARITY_CD)
        assert rel_close(im.mean, EXPECTED_MEAN, 1e-3)

    def test_low_gain_block_is_overshadowed(self):
        # every low-gain variable except its maximum ranks below every
        # high-gain variable that sits above the high-gain minimum
        mean = importance(GAIN_DISPARITY_CD).mean
        a_scores = mean[:3]
        b_scores = mean[3:]
        a_above_min = np.sort(a_scores)[1:]
        b_except_max = np.sort(b_scores)[:-1]
        assert b_except_max.max() < a_above_min.min()

    def test_unit_row(self):
        im = importance(np.array([[0.0, 1.0]]))
        assert np.array_equal(im.I, [[0.0, 1.0]])

    def test_degenerate_row_is_zero(self):
        im = importance(np.array([[3.0, 3.0], [0.0, 1.0]]))
        assert np.array_equal(im.I[0], [0.0, 0.0])
        assert np.array_equal(im.I[1], [0.0, 1.0])

    def test_signed_entries_not_magnitudes(self):
        # a large negative coefficient maps to 0, not to high importance
        im = importance(np.array([[-10.0, 0.0, 1.0]]))
        assert np.array_equal(im.I, [[0.0, 10.0 / 11.0, 1.0]])

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_rows_attain_extremes(self, p, n, seed):
        Cd = np.random.default_rng(seed).standard_normal((p, n))
        im = importance(Cd)
        for i in range(p):
            assert im.I[i].min() == 0.0
            assert im.I[i].max() == 1.0
        assert np.allclose(im.mean, im.I.mean(axis=0))


class TestCountSubsets:
    @pytest.mark.parametrize("n,expected", [(1, 1), (3, 7), (6, 63), (9, 511), (12, 4095), (15, 32767)])
    def test_values(self, n, expected):
        assert count_subsets(n) == expected

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12))
    def test_matches_enumeration(self, n):
        brute = sum(1 for k in range(1, n + 1) for _ in combinations(range(n), k))
        assert count_subsets(n) == brute

    def test_enumeration_order_and_cap(self):
        subs = enumerate_subsets([5, 2, 9], 2)
        assert subs == [(2,), (5,), (9,), (2, 5), (2, 9), (5, 9)]
        assert len(enumerate_subsets(range(15), 15)) == 32767

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_subsets(0)


def exact_two_state_dataset(n_extra_noise=1, steps=600, seed=0):
    """Two true states driving one output, plus pure-noise candidates."""
    rng = np.random.default_rng(seed)
    Ad = np.array([[0.9, 0.05], [0.0, 0.7]])
    Bd = np.array([[1.0], [0.5]])
    V = np.repeat(rng.standard_normal(steps // 6), 6)[None, :steps]
    X = simulate_discrete(Ad, Bd, V)[:, :steps]
    y = 1.0 * X[0] + 0.4 * X[1]
    manifest = [ChannelMeta("u", "input"), ChannelMeta("y", "output")]
    rows = [V[0], y]
    manifest += [ChannelMeta("x1", "candidate"), ChannelMeta("x2", "candidate")]
    rows += [X[0], X[1]]
    for j in range(n_extra_noise):
        manifest.append(ChannelMeta(f"noise{j + 1}", "candidate"))
        rows.append(rng.standard_normal(steps))
    return TimeSeriesDataset(0.1, (np.vstack(rows),), tuple(manifest))


class TestRfeRank:
    def test_pool_at_cap_untouched(self):
        ds = exact_two_state_dataset(n_extra_noise=0)
        ranking = rfe_rank(SubsetEvaluator(ds), ds.candidate_indices, RFEConfig(max_states=2))
        assert ranking.survivors == tuple(ds.candidate_indices)
        assert ranking.eliminated == ()
        assert ranking.iterations == 0

    def test_noise_channel_eliminated_before_cap(self):
        ds = exact_two_state_dataset(n_extra_noise=2)
        pool = ds.candidate_indices
        ranking = rfe_rank(SubsetEvaluator(ds), pool, RFEConfig(max_states=2))
        noise_idx = {ds.index_of("noise1"), ds.index_of("noise2")}
        assert noise_idx <= set(ranking.eliminated)
        assert set(ranking.survivors) == {ds.index_of("x1"), ds.index_of("x2")}
        # oracle: exhaustive search confirms noise is not in the optimum
        ev = SubsetEvaluator(ds)
        best = min(subset_key(ev.evaluate(s), s) for s in enumerate_subsets(pool, 2))
        assert noise_idx.isdisjoint(best[2])
        assert set(best[2]) == set(ranking.survivors)

    def test_overshadowed_ranking_prefers_high_gain(self, coupled_split, coupled_kept, coupled_dataset):
        train, _ = coupled_split
        ranking = rfe_rank(SubsetEvaluator(train), coupled_kept, RFEConfig(max_states=3))
        labels = [coupled_dataset.manifest[i].subsystem for i in ranking.survivors]
        assert labels.count("A") >= 2

    def test_nested_chain(self, coupled_split, coupled_kept):
        train, _ = coupled_split
        caps = (2, 4, 6)
        survivor_sets = [set(rfe_rank(SubsetEvaluator(train), coupled_kept, RFEConfig(max_states=c)).survivors) for c in caps]
        assert survivor_sets[0] < survivor_sets[1] < survivor_sets[2]

    def test_block_elimination_count(self):
        ds = exact_two_state_dataset(n_extra_noise=8)  # pool of 10
        ranking = rfe_rank(SubsetEvaluator(ds), ds.candidate_indices, RFEConfig(max_states=2, block_fraction=0.2))
        # 10 -> 8 -> 7 -> 6 -> 5 -> 4 -> 3 -> 2: first drop is floor(0.2*10)=2, then 1s
        assert ranking.iterations == 7
        assert len(ranking.survivors) == 2

    def test_scoring_channels_must_be_outputs(self):
        ds = exact_two_state_dataset(n_extra_noise=2)
        with pytest.raises(ValueError, match="not an output"):
            rfe_rank(SubsetEvaluator(ds), ds.candidate_indices, RFEConfig(max_states=2),
                     output_idx=[ds.index_of("x1")])


class TestMeanImportanceOracle:
    """The one-fit elimination score against the two-fit oracle in conftest:
    equal scores, or ``DegenerateSnapshots`` from both. Both fit the output
    map from the same ``_output_factor`` of the candidate pool."""

    @staticmethod
    def dataset(rng, n_cand, n_out, zero_inputs, zero_cands):
        steps = 12
        manifest = [ChannelMeta("u", "input")]
        manifest += [ChannelMeta(f"y{j}", "output") for j in range(n_out)]
        manifest += [ChannelMeta(f"c{j}", "candidate") for j in range(n_cand)]
        u = np.zeros(steps) if zero_inputs else rng.standard_normal(steps)
        cands = rng.standard_normal((n_cand, steps)) * 10 ** rng.uniform(-3, 3, (n_cand, 1))
        cands[list(zero_cands)] = 0.0
        if n_cand > 1:
            cands[-1] = 2.0 * cands[0]  # rank-deficient stack
        rows = np.vstack([u, rng.standard_normal((n_out, steps)), cands])
        return TimeSeriesDataset(0.1, (rows,), tuple(manifest))

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except DegenerateSnapshots:
            return "degenerate"

    def check(self, ds, survivors, y_rows):
        ev = SubsetEvaluator(ds)
        outputs = [ds.output_indices[i] for i in y_rows] if y_rows else list(ds.output_indices)
        pool = list(ds.candidate_indices)
        factor = _output_factor(ds, pool, outputs)
        rows = [pool.index(i) for i in survivors]
        got = self.outcome(lambda: _mean_importance(factor, rows, ev.policy))
        want = self.outcome(lambda: mean_importance_two_fit(ev, survivors, factor, rows))
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)
        return got

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_cand=st.integers(min_value=1, max_value=5),
        n_out=st.integers(min_value=1, max_value=3),
        zero_inputs=st.booleans(),
        data=st.data(),
    )
    def test_matches_two_fit_oracle(self, seed, n_cand, n_out, zero_inputs, data):
        zero_cands = data.draw(st.sets(st.integers(min_value=0, max_value=n_cand - 1)))
        ds = self.dataset(np.random.default_rng(seed), n_cand, n_out, zero_inputs, zero_cands)
        cands = list(ds.candidate_indices)
        survivors = sorted(data.draw(st.sets(st.sampled_from(cands), min_size=1)))
        y_rows = data.draw(st.lists(st.integers(min_value=0, max_value=n_out - 1), unique=True))
        self.check(ds, survivors, y_rows)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_cand=st.integers(min_value=1, max_value=5),
        n_out=st.integers(min_value=1, max_value=3),
        zero_inputs=st.booleans(),
        data=st.data(),
    )
    # outputs that do not depend on the candidates: kappa = 1, tan theta = 2.4e4
    @example(seed=1389, n_cand=3, n_out=1, zero_inputs=False, data=Drawn(set(), {4}, []))
    def test_factor_fit_matches_direct_fit(self, seed, n_cand, n_out, zero_inputs, data):
        # the output map from the pool's factor against the one from the
        # survivors' L-column snapshots, as the fit oracle in test_dmdc: the
        # same DegenerateSnapshots cases, the same truncation rank q, and
        # matrices within fit_tol
        zero_cands = data.draw(st.sets(st.integers(min_value=0, max_value=n_cand - 1)))
        ds = self.dataset(np.random.default_rng(seed), n_cand, n_out, zero_inputs, zero_cands)
        pool = list(ds.candidate_indices)
        survivors = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1)))
        y_rows = data.draw(st.lists(st.integers(min_value=0, max_value=n_out - 1), unique=True))
        y_rows = y_rows or list(range(n_out))
        R11, R12 = _output_factor(ds, pool, [ds.output_indices[i] for i in y_rows])
        X = R11[:, [pool.index(i) for i in survivors]].T
        snaps = assemble_snapshots(ds, survivors)
        policy = SubsetEvaluator(ds).policy
        want = self.outcome(lambda: svd_solve(snaps.X, snaps.Y[y_rows], policy.max_condition))
        got = self.outcome(lambda: (fit_output_map(X, R12.T, policy), truncated_svd(X, policy)[3]))
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        (want, q), (got, got_q) = want, got
        assert got_q == q
        tol = fit_tol(snaps.X, snaps.Y[y_rows], want, q)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    @pytest.mark.parametrize("zero_inputs", [False, True], ids=["nonzero_inputs", "all_zero_stack"])
    def test_all_zero_states_degenerate(self, zero_inputs):
        ds = self.dataset(np.random.default_rng(0), 3, 2, zero_inputs, zero_cands={0, 1, 2})
        assert self.check(ds, list(ds.candidate_indices), []) == "degenerate"


class TestWithinSubsystem:
    def test_single_subsystem_reduces_to_whole_pool(self, rlc_split, rlc_kept):
        train, _ = rlc_split
        cfg = RFEConfig(max_states=4)
        shortlists = within_subsystem_rfe(SubsetEvaluator(train), rlc_kept, cfg)
        assert list(shortlists) == [""]
        direct = rfe_rank(SubsetEvaluator(train), rlc_kept, cfg)
        assert shortlists[""].survivors == direct.survivors
        assert shortlists[""].eliminated == direct.eliminated

    def test_decoupled_blocks_recover_their_states(self, decoupled_split, decoupled_kept, decoupled_dataset):
        train, _ = decoupled_split
        shortlists = within_subsystem_rfe(SubsetEvaluator(train), decoupled_kept, RFEConfig(max_states=4))
        names = decoupled_dataset.names
        assert {names[i] for i in shortlists["A"].survivors} == {"A.x1", "A.x2"}
        assert {names[i] for i in shortlists["B"].survivors} == {"B.x1", "B.x2"}

    def test_empty_subsystem_skipped_with_warning(self):
        # three subsystem labels, one with no candidates in the pool
        rng = np.random.default_rng(3)
        Ad = np.array([[0.9]])
        Bd = np.array([[1.0]])
        manifest, rows = [], []
        for name in ("A", "B", "C"):
            V = rng.standard_normal((1, 300))
            X = simulate_discrete(Ad, Bd, V)[:, :300]
            manifest += [
                ChannelMeta(f"u.{name}", "input", name),
                ChannelMeta(f"y.{name}", "output", name),
                ChannelMeta(f"{name}.x1", "candidate", name),
            ]
            rows += [V[0], X[0] + 0.01 * rng.standard_normal(300), X[0]]
        ds = TimeSeriesDataset(0.1, (np.vstack(rows),), tuple(manifest))
        pool = [i for i in ds.candidate_indices if ds.manifest[i].subsystem != "C"]
        with pytest.warns(UserWarning, match="'C' has no candidates"):
            shortlists = within_subsystem_rfe(SubsetEvaluator(ds), pool, RFEConfig(max_states=3))
        assert sorted(shortlists) == ["A", "B"]


def noise_driven_decoupled_dataset(steps=3000, seed=5):
    """Two decoupled discrete blocks driven by independent white noise."""
    rng = np.random.default_rng(seed)
    Ad = np.array([[0.95, 0.0], [0.1, 0.8]])
    Bd = np.array([[1.0], [0.0]])
    rows, manifest = [], []
    for name in ("A", "B"):
        V = rng.standard_normal((1, steps))
        X = simulate_discrete(Ad, Bd, V)[:, :steps]
        y = X[0] + 0.3 * X[1]
        manifest.append(ChannelMeta(f"u.{name}", "input", name))
        rows.append(V[0])
        manifest.append(ChannelMeta(f"y.{name}", "output", name))
        rows.append(y)
        for j in range(2):
            manifest.append(ChannelMeta(f"{name}.x{j + 1}", "candidate", name))
            rows.append(X[j])
    return TimeSeriesDataset(0.1, (np.vstack(rows),), tuple(manifest))


class TestCrossInfluence:
    def test_decoupled_noise_imports_are_weak(self):
        ds = noise_driven_decoupled_dataset()
        pool = ds.candidate_indices
        cfg = RFEConfig(max_states=2, cross_top_k=2)
        shortlists = {
            "A": [ds.index_of("A.x1")],
            "B": [ds.index_of("B.x1")],
        }
        imports = cross_influence(ds, pool, shortlists, cfg)
        assert set(imports) == {("A", "B"), ("B", "A")}
        for chosen in imports.values():
            assert len(chosen) == 1  # only x2 left unshortlisted per side
            for imp in chosen:
                assert imp.score < 0.2
                assert imp.weak

    def test_coupled_driver_is_imported(self, coupled_split, coupled_kept, coupled_dataset):
        train, _ = coupled_split
        names = coupled_dataset.names
        cfg = RFEConfig(max_states=2, cross_top_k=2)
        shortlists = within_subsystem_rfe(SubsetEvaluator(train), coupled_kept, RFEConfig(max_states=2))
        sl = {k: v.survivors for k, v in shortlists.items()}
        imports = cross_influence(train, coupled_kept, sl, cfg)
        a_to_b = {names[imp.index]: imp for imp in imports[("A", "B")]}
        drivers = {"A.x1", "A.x2", "A.mix"} & set(a_to_b)
        assert drivers, f"no physical driver among imports {set(a_to_b)}"
        assert any(not a_to_b[d].weak for d in drivers)

    def test_zero_top_k_imports_nothing(self, coupled_split, coupled_kept):
        train, _ = coupled_split
        sl = {"A": [coupled_kept[0]], "B": [coupled_kept[-1]]}
        imports = cross_influence(train, coupled_kept, sl, RFEConfig(max_states=2, cross_top_k=0))
        assert all(chosen == () for chosen in imports.values())

    def test_single_subsystem_no_directions(self, rlc_split, rlc_kept):
        train, _ = rlc_split
        imports = cross_influence(train, rlc_kept, {"": rlc_kept[:2]}, RFEConfig(max_states=2))
        assert imports == {}


def cross_influence_oracle(train, pool, shortlists, cfg):
    """``cross_influence`` as the per-pair ``correlation`` loop it replaced."""
    labels = list(shortlists.keys())
    if len(labels) < 2:
        return {}
    data = np.hstack(train.realizations)
    already = {i for sl in shortlists.values() for i in sl}
    by_label = {}
    for idx in pool:
        by_label.setdefault(train.manifest[idx].subsystem, []).append(idx)
    imports = {}
    for src in labels:
        for dst in labels:
            if src == dst:
                continue
            targets = list(shortlists[dst]) + [
                i for i in train.output_indices if train.manifest[i].subsystem == dst
            ]
            scored = []
            for idx in by_label.get(src, []):
                if idx in already:
                    continue
                score = max(
                    (abs(correlation(data[idx], data[t])) for t in targets), default=0.0
                )
                scored.append((idx, score))
            scored.sort(key=lambda t: (-t[1], t[0]))
            imports[(src, dst)] = tuple(
                CrossImport(index=i, score=s, weak=s < cfg.weak_import_threshold)
                for i, s in scored[: cfg.cross_top_k]
            )
    return imports


def two_labels(ds):
    """The dataset with candidates and outputs dealt alternately to subsystems P and Q."""
    manifest = tuple(
        ChannelMeta(c.name, c.role, "PQ"[i % 2] if c.role != "input" else c.subsystem)
        for i, c in enumerate(ds.manifest)
    )
    return TimeSeriesDataset(ds.dt, ds.realizations, manifest)


class TestCrossInfluenceOracle:
    @pytest.mark.parametrize("split_name", ["rlc_split", "coupled_split", "wide_split"])
    def test_matches_correlation_loop(self, split_name, request):
        train, _ = request.getfixturevalue(split_name)
        if split_name == "rlc_split":
            train = two_labels(train)
        pool = prefilter(train).kept
        shortlists = {
            label: [i for i in pool if train.manifest[i].subsystem == label][:2]
            for label in train.subsystems()
        }
        cfg = RFEConfig(max_states=2, cross_top_k=4)
        got = cross_influence(train, pool, shortlists, cfg)
        want = cross_influence_oracle(train, pool, shortlists, cfg)
        assert got.keys() == want.keys() and len(got) >= 2
        for key in want:
            assert [(i.index, i.weak) for i in got[key]] == [(i.index, i.weak) for i in want[key]]
            for g, w in zip(got[key], want[key]):
                assert abs(g.score - w.score) <= 1e-12

    def test_constant_channels_correlate_with_nothing(self):
        # rows of one repeated value whose rounded mean leaves a tiny nonzero
        # centered row; two such rows must not count as perfectly correlated
        rng = np.random.default_rng(3)
        steps = 320
        manifest = (
            ChannelMeta("u", "input"),
            ChannelMeta("y.A", "output", "A"),
            ChannelMeta("y.B", "output", "B"),
            ChannelMeta("A.x", "candidate", "A"),
            ChannelMeta("A.flat", "candidate", "A"),
            ChannelMeta("B.x", "candidate", "B"),
        )
        rows = rng.standard_normal((6, steps))
        rows[2] = 7.7
        rows[4] = 0.3
        ds = TimeSeriesDataset(0.1, (rows,), manifest)
        shortlists = {"A": [3], "B": [5]}
        cfg = RFEConfig(max_states=1, cross_top_k=1)
        got = cross_influence(ds, [3, 4, 5], shortlists, cfg)
        assert got == cross_influence_oracle(ds, [3, 4, 5], shortlists, cfg)
        assert got[("A", "B")] == (CrossImport(index=4, score=0.0, weak=True),)


class TestMergedSearch:
    def test_single_candidate_pool(self):
        ds = exact_two_state_dataset(n_extra_noise=0)
        train, test = split(ds, SplitSpec(0.8))
        res = merged_search(SubsetEvaluator(train), test, [ds.index_of("x1")], RFEConfig(max_states=2))
        assert res.indices == (ds.index_of("x1"),)
        assert res.diagnostics["subsets_examined"] == 1

    def test_matches_independent_brute_force(self, coupled_split, coupled_kept):
        train, test = coupled_split
        cfg = RFEConfig(max_states=3)
        res = merged_search(SubsetEvaluator(train), test, coupled_kept, cfg)
        ev = SubsetEvaluator(train)
        keys = []
        for size in range(1, 4):
            for s in combinations(sorted(coupled_kept), size):
                keys.append(subset_key(ev.evaluate(s), s))
        best = min(keys)
        assert res.indices == best[2]
        assert res.j_train.J == best[0]
        assert res.diagnostics["subsets_examined"] == len(keys)

    def test_pool_too_large(self, coupled_split, coupled_kept):
        train, test = coupled_split
        cfg = RFEConfig(max_states=3, search_limit=4)
        with pytest.raises(MergedPoolTooLarge, match="Lower max_states"):
            merged_search(SubsetEvaluator(train), test, coupled_kept, cfg)

    def test_worker_count_does_not_change_result(self):
        ds = exact_two_state_dataset(n_extra_noise=2)
        train, test = split(ds, SplitSpec(0.8))
        cfg = RFEConfig(max_states=3)
        serial = merged_search(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=1)
        parallel = merged_search(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_tie_breaks_prefer_fewer_then_lexicographic(self):
        assert subset_key(1.0, (2, 3)) < subset_key(1.0, (1, 2, 3))
        assert subset_key(1.0, (1, 3)) < subset_key(1.0, (2, 3))
        assert subset_key(0.5, (9, 10, 11)) < subset_key(1.0, (1,))

    def test_sweep_breaks_ties_by_size_then_lexicographically(self, coupled_split, coupled_kept):
        """Four subsets of two sizes tie at the least cost, the larger listed
        both before and after the smaller in lexicographic order: the sweep
        picks the first single channel of them, not the last tie, not the
        lexicographically least tuple and not the last single channel."""
        train, test = coupled_split
        p = sorted(coupled_kept)[:4]
        tied = {(p[1],), (p[3],), (p[0], p[1]), (p[0], p[2]), (p[2], p[3])}

        class Tied(SubsetEvaluator):
            def costs(self, masks, pool=None, workers=1):
                channels = np.array(self.searched_pool(pool).channels)
                return np.array([0.5 if tuple(channels[m].tolist()) in tied else 1.0 for m in masks])

        for workers in (1, 2):
            res = merged_search(Tied(train), test, p, RFEConfig(max_states=2), workers=workers)
            assert res.indices == (p[1],)
            assert res.diagnostics["subsets_examined"] == 10


class TestRfeSelect:
    def test_coupled_end_to_end(self, coupled_split, coupled_kept, coupled_dataset):
        train, test = coupled_split
        res = rfe_select(SubsetEvaluator(train), test, coupled_kept, RFEConfig(max_states=2))
        labels = {coupled_dataset.manifest[i].subsystem for i in res.indices}
        assert labels == {"A", "B"}
        assert res.method == "rfe"
        assert len(res.indices) <= 2
        # winner matches a brute force over the merged pool
        ev = SubsetEvaluator(train)
        zx = res.diagnostics["merged_pool"]
        best = min(subset_key(ev.evaluate(s), s) for s in enumerate_subsets(zx, 2))
        assert res.indices == best[2]
        assert res.j_train.J == best[0]

    def test_diagnostics_shape(self, coupled_split, coupled_kept):
        train, test = coupled_split
        res = rfe_select(SubsetEvaluator(train), test, coupled_kept, RFEConfig(max_states=2))
        d = res.diagnostics
        assert set(d["shortlists"]) == {"A", "B"}
        assert "A->B" in d["imports"] and "B->A" in d["imports"]
        assert d["subsets_examined"] >= 1
        assert sorted(d["merged_pool"]) == d["merged_pool"]


def test_rfe_config_validation():
    with pytest.raises(ValueError):
        RFEConfig(max_states=0)
    with pytest.raises(ValueError):
        RFEConfig(max_states=2, block_fraction=1.0)
    with pytest.raises(ValueError):
        RFEConfig(max_states=2, cross_top_k=-1)
