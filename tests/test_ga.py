from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesel.datamodel import SplitSpec, split
from statesel.errors import DatasetError
from statesel.ga import GAConfig, ga_select, repair
from statesel.selection import SubsetEvaluator, subset_key

from conftest import make_lti_dataset


@pytest.fixture(scope="module")
def lti_split():
    ds = make_lti_dataset(np.random.default_rng(17), n_junk=2)
    return ds, *split(ds, SplitSpec(0.8))


def small_cfg(**kw):
    defaults = dict(
        max_states=2,
        population_size=20,
        restarts=3,
        seed=5,
        stall_generations=10,
        max_generations=60,
    )
    defaults.update(kw)
    return GAConfig(**defaults)


class TestRepair:
    def test_over_cap_clears_set_bits(self):
        rng = np.random.default_rng(0)
        mask = np.array([1, 1, 0, 1, 1, 1], dtype=bool)
        out = repair(mask, 3, rng)
        assert out.sum() == 3
        assert np.all(mask | ~out)  # only clears, never sets

    def test_empty_gets_one_bit(self):
        rng = np.random.default_rng(1)
        out = repair(np.zeros(5, dtype=bool), 3, rng)
        assert out.sum() == 1

    def test_within_cap_unchanged(self):
        rng = np.random.default_rng(2)
        mask = np.array([1, 0, 1, 0], dtype=bool)
        assert np.array_equal(repair(mask, 3, rng), mask)

    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=16),
        cap=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_invariants(self, bits, cap, seed):
        mask = np.array(bits, dtype=bool)
        out = repair(mask, cap, np.random.default_rng(seed))
        assert 1 <= out.sum() <= cap
        if mask.sum() > cap:
            assert np.all(mask | ~out)
        elif mask.sum() == 0:
            assert out.sum() == 1
        else:
            assert np.array_equal(out, mask)


class TestEvaluate:
    def test_true_state_mask_fits_exactly(self, lti_split):
        ds, train, _ = lti_split
        ev = SubsetEvaluator(train)
        j = ev.evaluate((ds.index_of("x1"), ds.index_of("x2")))
        assert j < 1e-6

    def test_memoized_single_fit(self, lti_split):
        ds, train, _ = lti_split
        ev = SubsetEvaluator(train)
        subset = (ds.index_of("x1"), ds.index_of("x2"))
        j1 = ev.evaluate(subset)
        fits = ev.fit_count
        j2 = ev.evaluate(subset)
        assert j1 == j2
        assert ev.fit_count == fits == 1

    def test_empty_subset_rejected(self, lti_split):
        _, train, _ = lti_split
        ev = SubsetEvaluator(train)
        with pytest.raises(DatasetError):
            ev.evaluate(())


class TestGaSelect:
    def test_matches_brute_force_on_tiny_pool(self, lti_split):
        ds, train, test = lti_split
        pool = ds.candidate_indices
        assert len(pool) == 4
        res = ga_select(SubsetEvaluator(train), test, pool, small_cfg())
        ev = SubsetEvaluator(train)
        keys = [
            subset_key(ev.evaluate(s), s)
            for size in (1, 2)
            for s in combinations(pool, size)
        ]
        assert len(keys) == 10
        best = min(keys)
        assert res.j_train.J == best[0]
        assert res.indices == best[2]

    def test_seeded_determinism(self, lti_split):
        ds, train, test = lti_split
        pool = ds.candidate_indices
        r1 = ga_select(SubsetEvaluator(train), test, pool, small_cfg())
        r2 = ga_select(SubsetEvaluator(train), test, pool, small_cfg())
        assert r1.to_dict() == r2.to_dict()

    def test_different_seed_allowed_to_differ_but_valid(self, lti_split):
        ds, train, test = lti_split
        res = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, small_cfg(seed=99))
        assert 1 <= len(res.indices) <= 2

    def test_best_trace_monotone(self, lti_split):
        ds, train, test = lti_split
        res = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, small_cfg())
        trace = res.diagnostics["trace"]
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_cap_respected(self, lti_split):
        ds, train, test = lti_split
        res = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, small_cfg(max_states=3))
        assert 1 <= len(res.indices) <= 3
        for r in res.diagnostics["restart_best"]:
            assert 1 <= len(r["indices"]) <= 3

    def test_best_of_restarts_dominates_median(self, lti_split):
        ds, train, test = lti_split
        res = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, small_cfg(restarts=5))
        d = res.diagnostics
        assert d["j_restart_best"] <= d["j_restart_median"]
        assert res.j_train.J == d["j_restart_best"]

    def test_worker_count_does_not_change_result(self, lti_split):
        ds, train, test = lti_split
        cfg = small_cfg(restarts=4)
        serial = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=1)
        parallel = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=2)
        assert serial.to_dict() == parallel.to_dict()

    def test_empty_pool_rejected(self, lti_split):
        _, train, test = lti_split
        with pytest.raises(DatasetError):
            ga_select(SubsetEvaluator(train), test, (), small_cfg())

    def test_generation_cap_stops_search(self, lti_split):
        ds, train, test = lti_split
        res = ga_select(
            SubsetEvaluator(train), test, ds.candidate_indices, small_cfg(max_generations=3, restarts=2)
        )
        for r in res.diagnostics["restart_best"]:
            assert r["generations"] <= 3
        assert len(res.diagnostics["trace"]) <= 4  # initial best plus three generations


class TestGAConfig:
    def test_resolution_rules(self):
        cfg = GAConfig(max_states=4)
        r = cfg.resolve(genome=545)
        assert cfg.population_size == 480
        assert r.elite_count == 24
        assert r.max_generations == 54500
        assert r.mutation_rate == pytest.approx(1 / 545)

    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(max_states=0)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, population_size=10, elite_count=10)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, crossover_fraction=1.5)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, restarts=0)
