"""One ``SubsetEvaluator`` shared by the selectors and the worker pool."""

import math
import warnings

import numpy as np

from statesel import dmdc, selection
from statesel.datamodel import ChannelMeta, TimeSeriesDataset
from statesel.dmdc import StateSpaceModel
from statesel.ga import GAConfig, ga_select
from statesel.rfe import RFEConfig, enumerate_subsets, rfe_select
from statesel.selection import SubsetEvaluator, evaluate_subsets


def small_ga(**kw):
    defaults = dict(
        max_states=3,
        population_size=16,
        restarts=3,
        seed=9,
        stall_generations=8,
        max_generations=40,
    )
    defaults.update(kw)
    return GAConfig(**defaults)


def test_ga_after_rfe_fits_only_its_winner(coupled_split, coupled_kept):
    train, test = coupled_split
    ev = SubsetEvaluator(train)
    rfe = rfe_select(ev, test, coupled_kept, RFEConfig(max_states=3))
    pool = rfe.diagnostics["merged_pool"]
    fits = ev.fit_count
    ga = ga_select(ev, test, pool, small_ga())
    # every subset of the merged pool up to the cap is already cached by the
    # RFE sweep, so the only new fit is the model of the GA's winner
    assert ev.fit_count - fits == 1
    alone = ga_select(SubsetEvaluator(train), test, pool, small_ga())
    assert ga.to_dict() == alone.to_dict()


def test_a_later_search_reads_only_its_own_pools_costs(coupled_split, coupled_kept):
    """After a GA search, serial or in workers, a search of another pool
    writes what it writes on a fresh evaluator: it reads no cost fitted from
    the first search's pool."""
    train, test = coupled_split
    later = lambda ev: ga_select(ev, test, coupled_kept[:5], small_ga(max_states=2))
    alone = later(SubsetEvaluator(train)).to_dict()
    for workers in (1, 2):
        ev = SubsetEvaluator(train)
        ga_select(ev, test, coupled_kept, small_ga(), workers=workers)
        assert later(ev).to_dict() == alone
        assert ev.pool_key(coupled_kept[:5]) in {pool for pool, _ in ev._cache}


def test_costs_are_cached_per_pool(coupled_split, coupled_kept):
    train, _ = coupled_split
    pools = (coupled_kept[:6], coupled_kept[:3], None)
    subset = coupled_kept[:2]
    ev = SubsetEvaluator(train)
    js = [ev.evaluate(subset, pool) for pool in pools]
    assert ev.fit_count == 3  # one fit per pool: no query read another pool's cost
    assert js == [SubsetEvaluator(train).evaluate(subset, pool) for pool in pools]
    # the same pool named in another order, or by its key, reads the cached cost
    assert ev.evaluate(subset[::-1], list(pools[0][::-1])) == js[0]
    assert ev.evaluate(subset, ev.pool_key(pools[1])) == js[1]
    assert ev.fit_count == 3


def test_pool_breakdowns_land_in_the_callers_cache(coupled_split, coupled_kept):
    train, _ = coupled_split
    subsets = enumerate_subsets(coupled_kept[:6], 2)
    ev = SubsetEvaluator(train)
    scores = evaluate_subsets(subsets + subsets[::-1], ev, workers=2)
    assert ev.fit_count == 0  # every fit ran in a worker
    fresh = SubsetEvaluator(train)
    for s, j in zip(subsets, scores):
        assert ev.breakdown(s) == fresh.breakdown(s)
        assert j == fresh.evaluate(s)
    assert scores == scores[: len(subsets)] + scores[: len(subsets)][::-1]
    assert ev.fit_count == 0


def test_pool_workers_fit_from_the_parents_factor(coupled_split, coupled_kept, monkeypatch):
    train, _ = coupled_split
    pool = coupled_kept[:6]
    subsets = enumerate_subsets(pool, 2)
    serial = evaluate_subsets(subsets, SubsetEvaluator(train), pool=pool)
    ev = SubsetEvaluator(train)
    ev.searched_pool(pool)

    def no_factor(*args, **kwargs):
        raise AssertionError("a pool was factored again")

    monkeypatch.setattr(dmdc, "triangular_factor", no_factor)
    assert evaluate_subsets(subsets, ev, workers=2, pool=pool) == serial
    assert ev.fit_count == 0


def test_wide_pools_are_not_reduced(coupled_split, coupled_kept, monkeypatch):
    """A pool wider than ``REDUCED_POOL_MAX`` gets no reduction: its subsets
    are fitted from their own snapshots and score exactly as with no pool."""
    train, _ = coupled_split
    pool = coupled_kept[:6]
    monkeypatch.setattr(selection, "REDUCED_POOL_MAX", len(pool) - 1)
    ev = SubsetEvaluator(train)
    assert ev.searched_pool(pool) is None
    subsets = enumerate_subsets(pool, 2)
    alone = SubsetEvaluator(train)
    assert evaluate_subsets(subsets, ev, pool=pool) == [alone.evaluate(s) for s in subsets]
    assert not ev._pools
    assert ev.searched_pool(pool[:-1]) is not None


def test_cached_subsets_start_no_pool(coupled_split, coupled_kept, monkeypatch):
    train, _ = coupled_split
    subsets = enumerate_subsets(coupled_kept[:4], 2)
    ev = SubsetEvaluator(train)
    serial = [ev.evaluate(s) for s in subsets]
    fits = ev.fit_count

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for cached subsets")

    monkeypatch.setattr(selection, "ProcessPoolExecutor", no_pool)
    assert evaluate_subsets(subsets, ev, workers=2) == serial
    assert ev.fit_count == fits


def test_unexcited_unstable_mode_scores_as_diverged(monkeypatch):
    # a fitted mode of gain 1e10 that neither x0 nor the input reaches: the
    # rollout's Ad^32 overflows, so the subset is infeasible, without a
    # RuntimeWarning and without a finite or infinite J
    manifest = tuple(
        ChannelMeta(name, role)
        for name, role in (("u", "input"), ("y", "output"), ("a", "candidate"), ("b", "candidate"))
    )
    rows = np.vstack([np.ones(100), np.ones(100), np.zeros(100), np.ones(100)])
    ev = SubsetEvaluator(TimeSeriesDataset(0.1, (rows,), manifest))
    model = StateSpaceModel(
        Ad=np.diag([1e10, 0.5]),
        Bd=np.array([[0.0], [1.0]]),
        Cd=np.array([[0.0, 1.0]]),
        state_names=("a", "b"),
        input_names=("u",),
        output_names=("y",),
        dt=0.1,
    )
    monkeypatch.setattr(ev, "fit", lambda subset, pool=None: model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev.breakdown([2, 3]) is None
    assert ev.evaluate([3, 2]) == math.inf


def test_overflow_in_one_realization_scores_as_diverged(monkeypatch):
    # realizations of 399, 350 and 420 steps and a mode of gain 5.7: the
    # rollout overflows in the longest only, and the squared errors of the
    # others overflow in the cost; the subset is infeasible, without a
    # RuntimeWarning
    manifest = tuple(
        ChannelMeta(name, role) for name, role in (("u", "input"), ("y", "output"), ("a", "candidate"))
    )
    rng = np.random.default_rng(3)
    reals = tuple(rng.standard_normal((3, l)) for l in (399, 350, 420))
    ev = SubsetEvaluator(TimeSeriesDataset(0.1, reals, manifest))
    model = StateSpaceModel(
        Ad=np.array([[5.7]]), Bd=np.array([[1.0]]), Cd=np.array([[1.0]]),
        state_names=("a",), input_names=("u",), output_names=("y",), dt=0.1,
    )
    monkeypatch.setattr(ev, "fit", lambda subset, pool=None: model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev.breakdown([2], pool=[2]) is None
    assert ev.evaluate([2]) == math.inf
