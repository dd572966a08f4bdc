from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesel import ga
from statesel.datamodel import SplitSpec, split
from statesel.errors import DatasetError, DegenerateSnapshots
from statesel.ga import GAConfig, ga_select, repair
from statesel.rfe import enumerate_subsets
from statesel.selection import SubsetEvaluator, evaluate_subsets, subset_key

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


class TestMatrixRepair:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=10)
        ),
        cap=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_row_invariants(self, rows, cap, seed):
        masks = np.array(rows, dtype=bool)
        out = repair(masks, cap, np.random.default_rng(seed))
        assert out.shape == masks.shape
        for mask, row in zip(masks, out):
            assert 1 <= row.sum() <= cap
            if mask.sum() > cap:
                assert row.sum() == cap
                assert np.all(mask | ~row)
            elif mask.sum() == 0:
                assert row.sum() == 1
            else:
                assert np.array_equal(row, mask)
        one = repair(masks[:1], cap, np.random.default_rng(seed))
        assert np.array_equal(one[0], repair(masks[0], cap, np.random.default_rng(seed)))

    def test_input_not_modified(self):
        masks = np.ones((3, 5), dtype=bool)
        repair(masks, 2, np.random.default_rng(0))
        assert masks.all()

    def test_kept_bits_are_uniform(self):
        out = repair(np.ones((4000, 6), dtype=bool), 3, np.random.default_rng(3))
        assert np.all(out.sum(axis=1) == 3)
        assert np.all(np.abs(out.mean(axis=0) - 0.5) < 0.05)
        empty = repair(np.zeros((6000, 3), dtype=bool), 2, np.random.default_rng(4))
        assert np.all(np.abs(empty.mean(axis=0) - 1 / 3) < 0.05)


class TestRank:
    @settings(max_examples=100, deadline=None)
    @given(
        genome=st.integers(min_value=1, max_value=20),
        size=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_subset_key_sort(self, genome, size, seed):
        rng = np.random.default_rng(seed)
        population = rng.random((size, genome)) < rng.uniform(0.1, 0.9)
        population[rng.integers(0, size, size // 3)] = population[0]  # repeated masks
        fitness = rng.choice([0.25, 0.5, 1.0, np.inf], size=size)  # tied costs
        pool = np.sort(rng.choice(1000, size=genome, replace=False))
        keys = [subset_key(fitness[i], tuple(pool[population[i]].tolist())) for i in range(size)]
        assert ga._rank(population, fitness).tolist() == sorted(range(size), key=keys.__getitem__)


class CountingEvaluator:
    """Evaluator stub: a fixed cost per subset, and a log of every batch
    query, as the subsets of its bit rows over the sorted pool."""

    def __init__(self, cost=lambda s: 1.0 / (1 + sum(s)) + len(s)):
        self.cost = cost
        self.calls = []

    def costs(self, masks, pool):
        subsets = [tuple(np.array(pool)[m].tolist()) for m in masks]
        self.calls.append(subsets)
        return np.array([self.cost(s) for s in subsets])


class TestScoring:
    def test_one_batch_query_each_generation(self, monkeypatch):
        # the batch holds every row, repeats included: the evaluator fits
        # each distinct subset once (test_selection)
        ev = CountingEvaluator()
        pool = (2, 3, 5, 7, 11, 13)
        repeats = []  # rows per generation whose mask an earlier row already has
        fitness_of = ga._fitness

        def checked(population, pool_arr, evaluator):
            before = len(ev.calls)
            fitness = fitness_of(population, pool_arr, evaluator)
            subsets = [tuple(pool_arr[row].tolist()) for row in population]
            (batch,) = ev.calls[before:]
            assert batch == subsets
            assert fitness.tolist() == [ev.cost(s) for s in subsets]
            repeats.append(len(population) - len(set(subsets)))
            return fitness

        monkeypatch.setattr(ga, "_fitness", checked)
        cfg = small_cfg(max_states=3, population_size=30, restarts=1, max_generations=15)
        _, trace = ga._run_restart(0, pool, cfg, ev)
        assert len(repeats) == len(trace)  # the initial population, then each generation
        assert sum(repeats) > 0

    def test_never_feasible_restart_stalls(self):
        ev = CountingEvaluator(cost=lambda s: float("inf"))
        cfg = GAConfig(max_states=2, population_size=20, restarts=2, seed=5, stall_generations=10)
        assert cfg.max_generations is None  # so the cap is 400 generations, far past the stall
        _, trace = ga._run_restart(0, (0, 1, 2, 3), cfg, ev)
        assert trace == [float("inf")] * (cfg.stall_generations + 1)  # the initial best, then 10
        with pytest.raises(DegenerateSnapshots):
            ga_select(ev, None, (0, 1, 2, 3), cfg)


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
        ev = SubsetEvaluator(train)
        res = ga_select(ev, test, ds.candidate_indices, small_cfg(restarts=5))
        d = res.diagnostics
        assert d["j_restart_best"] <= d["j_restart_median"]
        # the search's cost of the winner, fitted from the pool's reduction
        assert ev.evaluate(res.indices, ds.candidate_indices) == d["j_restart_best"]
        # the reported cost, of the winner's model fitted from its own snapshots
        assert res.j_train == SubsetEvaluator(train).breakdown(res.indices)

    def test_worker_count_does_not_change_result(self, lti_split):
        ds, train, test = lti_split
        cfg = small_cfg(restarts=4)
        serial = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=1)
        parallel = ga_select(SubsetEvaluator(train), test, ds.candidate_indices, cfg, workers=2)
        assert serial.to_dict() == parallel.to_dict()
        # the pool of evaluate_subsets, built by the same helper as the GA's
        subsets = enumerate_subsets(ds.candidate_indices, 2)
        one, two = SubsetEvaluator(train), SubsetEvaluator(train)
        assert evaluate_subsets(subsets, one, workers=1) == evaluate_subsets(subsets, two, workers=2)
        assert one.fit_count == len(subsets) and two.fit_count == 0
        assert all(one.breakdown(s) == two.breakdown(s) for s in subsets)

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
    def test_resolution_rules(self, monkeypatch):
        """Left unset, the elite count is 5% of the population, the mutation
        rate 1/genome and the generation cap 100 * genome: a restart runs as
        it does with those values set, and not as with others."""
        populations = []
        fitness_of = ga._fitness

        def recorded(population, pool_arr, evaluator):
            populations.append(population.tobytes())
            return fitness_of(population, pool_arr, evaluator)

        monkeypatch.setattr(ga, "_fitness", recorded)

        def run(cfg, pool=tuple(range(40))):
            populations.clear()
            _, trace = ga._run_restart(0, pool, cfg, CountingEvaluator())
            return trace, list(populations)

        cfg = GAConfig(max_states=4, restarts=1, max_generations=5)
        assert cfg.population_size == 480
        assert run(cfg) == run(replace(cfg, elite_count=24, mutation_rate=1 / 40))
        assert run(cfg) != run(replace(cfg, elite_count=23))
        assert run(cfg) != run(replace(cfg, mutation_rate=1 / 41))
        # never stalled, a restart over 4 candidates stops after generation 400
        endless = GAConfig(max_states=2, population_size=8, restarts=1, stall_generations=1000)
        assert len(run(endless, (0, 1, 2, 3))[0]) == 401

    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(max_states=0)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, population_size=10, elite_count=10)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, crossover_fraction=1.5)
        with pytest.raises(ValueError):
            GAConfig(max_states=2, restarts=0)

    def test_generation_limits_validated(self):
        # a stall window below 1 would index past the best-cost trace
        with pytest.raises(ValueError, match="stall_generations"):
            GAConfig(max_states=2, stall_generations=0)
        with pytest.raises(ValueError, match="stall_generations"):
            GAConfig(max_states=2, stall_generations=-1)
        with pytest.raises(ValueError, match="max_generations"):
            GAConfig(max_states=2, max_generations=-1)
        GAConfig(max_states=2, max_generations=0, stall_generations=1)
