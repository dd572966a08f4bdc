"""One ``SubsetEvaluator`` shared by the selectors and the worker pool."""

import math
import tracemalloc
import warnings

import numpy as np

from statesel import dmdc, selection
from statesel.cost import CostBreakdown, RolloutTruth
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
        assert ev.searched_pool(coupled_kept[:5]) is not ev.searched_pool(coupled_kept)
        assert ev.searched_pool(coupled_kept[:5]).costs


def test_costs_are_cached_per_pool(coupled_split, coupled_kept):
    train, _ = coupled_split
    pools = (coupled_kept[:6], coupled_kept[:3], None)
    subset = coupled_kept[:2]
    ev = SubsetEvaluator(train)
    js = [ev.evaluate(subset, pool) for pool in pools]
    assert ev.fit_count == 3  # one fit per pool: no query read another pool's cost
    assert js == [SubsetEvaluator(train).evaluate(subset, pool) for pool in pools]
    assert [len(ev.searched_pool(pool).costs) for pool in pools] == [1, 1, 1]
    # the same pool named in another order, or as a sorted tuple, reads the cached cost
    assert ev.evaluate(subset[::-1], list(pools[0][::-1])) == js[0]
    assert ev.evaluate(subset, tuple(sorted(pools[1]))) == js[1]
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
    record = ev.searched_pool(pool)
    assert record.reduction is not None and record.truth is not None

    def no_factor(*args, **kwargs):
        raise AssertionError("a pool was factored again")

    monkeypatch.setattr(dmdc, "triangular_factor", no_factor)
    assert evaluate_subsets(subsets, ev, workers=2, pool=pool) == serial
    assert ev.fit_count == 0
    # the workers' breakdowns land in the record the parent factored
    assert ev.searched_pool(pool) is record and set(record.costs) == set(subsets)


def test_wide_pools_are_not_reduced(coupled_split, coupled_kept, monkeypatch):
    """A pool wider than ``REDUCED_POOL_MAX`` gets no reduction: its subsets
    are fitted from their own snapshots. It has a record and a truth of its
    own, sliced once for all its subsets, and every subset scores exactly as
    with no pool."""
    train, _ = coupled_split
    pool = coupled_kept[:6]
    monkeypatch.setattr(selection, "REDUCED_POOL_MAX", len(pool) - 1)
    subsets = enumerate_subsets(pool, 2)
    alone = SubsetEvaluator(train)
    want = [alone.evaluate(s) for s in subsets]
    ev = SubsetEvaluator(train)

    class NoReduction:
        @staticmethod
        def of(*args):
            raise AssertionError("a wide pool was reduced")

    of, truths = RolloutTruth.of.__func__, []

    def counted(cls, *args):
        truths.append(of(cls, *args))
        return truths[-1]

    with monkeypatch.context() as m:
        m.setattr(selection, "PoolReduction", NoReduction)
        m.setattr(RolloutTruth, "of", classmethod(counted))
        assert evaluate_subsets(subsets, ev, pool=pool) == want
    wide = ev.searched_pool(pool)
    assert len(truths) == 1 and wide.truth is truths[0]
    assert wide.truth.channels == tuple(sorted(pool))
    assert wide is not ev.searched_pool(None) and not ev.searched_pool(None).costs
    assert wide.reduction is None and set(wide.costs) == set(subsets)
    assert ev.searched_pool(pool[:-1]).reduction is not None


def test_cached_subsets_start_no_pool(coupled_split, coupled_kept, monkeypatch):
    train, _ = coupled_split
    subsets = enumerate_subsets(coupled_kept[:4], 2)
    ev = SubsetEvaluator(train)
    serial = [ev.evaluate(s) for s in subsets]
    fits = ev.fit_count

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started for cached subsets")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
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


def test_a_cost_is_stored_under_the_callers_sorted_tuple(coupled_split, coupled_kept):
    """A sorted tuple is the key itself, serial or from workers; any other
    query is stored under a sorted copy."""
    train, _ = coupled_split
    pool = tuple(coupled_kept[:6])
    subsets = enumerate_subsets(pool, 2)
    for workers in (1, 2):
        ev = SubsetEvaluator(train)
        evaluate_subsets(subsets, ev, workers=workers, pool=pool)
        stored = {key: key for key in ev.searched_pool(pool).costs}
        assert all(stored[s] is s for s in subsets)
    unsorted = (pool[3], pool[0], pool[1])
    ev.evaluate(unsorted, pool)
    ev.evaluate(list(pool[3:]), pool)
    stored = {key: key for key in ev.searched_pool(pool).costs}
    assert stored[tuple(sorted(unsorted))] is not unsorted
    assert type(stored[pool[3:]]) is tuple


def test_a_cached_cost_holds_no_copy_of_its_pool_or_subset(monkeypatch):
    """Scoring 4 047 distinct subsets of an 18-channel pool, with the fit and
    the rollout stubbed, leaves at most 250 bytes per cached cost: the cost
    and its dict slot, but no copy of the pool or of the caller's subset."""
    manifest = tuple(
        ChannelMeta(f"c{j}", ("input", "output")[j] if j < 2 else "candidate") for j in range(20)
    )
    rng = np.random.default_rng(0)
    ev = SubsetEvaluator(TimeSeriesDataset(0.1, (rng.standard_normal((20, 60)),), manifest))
    pool = tuple(range(2, 20))
    subsets = enumerate_subsets(pool, 4)
    assert len(subsets) == 4047
    monkeypatch.setattr(ev, "fit", lambda subset, pool=None: None)
    monkeypatch.setattr(
        selection,
        "rollout_cost",
        lambda model, data, subset, scales: CostBreakdown(
            J=len(subset) / 7, J_state=len(subset) / 11, J_output=len(subset) / 13, n=len(subset), p=1, L=59
        ),
    )
    ev.evaluate(subsets[0], pool)  # the pool's reduction, made once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in subsets[1:]:
            ev.evaluate(s, pool)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / (len(subsets) - 1) < 250
