"""One ``SubsetEvaluator`` shared by the selectors and the worker pool."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesel import dmdc, selection
from statesel.cost import RolloutTruth
from statesel.datamodel import ChannelMeta, TimeSeriesDataset
from statesel.dmdc import StateSpaceModel
from statesel.errors import DatasetError
from statesel.ga import GAConfig, ga_select
from statesel.rfe import RFEConfig, enumerate_subsets, rfe_select
from statesel.selection import SubsetEvaluator, evaluate_subsets

from conftest import chain_breakdown, random_stable_discrete, simulate_discrete


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


def test_pool_costs_land_in_the_callers_cache(coupled_split, coupled_kept):
    train, _ = coupled_split
    subsets = enumerate_subsets(coupled_kept[:6], 2)
    ev = SubsetEvaluator(train)
    scores = evaluate_subsets(subsets + subsets[::-1], ev, workers=2)
    assert ev.fit_count == 0  # every fit ran in a worker
    fresh = SubsetEvaluator(train)
    for s, j in zip(subsets, scores):
        assert ev.evaluate(s) == fresh.evaluate(s)
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
    # the workers' costs land in the record the parent factored
    assert ev.searched_pool(pool) is record and set(record.costs) == set(record.keys(record.masks(subsets)))


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
    assert wide.reduction is None and set(wide.costs) == set(wide.keys(wide.masks(subsets)))
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


def fitted(model):
    """The model's matrices as ``fit_stack`` returns them, a stack of one."""
    return model.Ad[None], model.Bd[None], model.Cd[None]


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
    monkeypatch.setattr(selection, "fit_stack", lambda *args: (*fitted(model), np.array([True])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev.evaluate([2, 3]) == math.inf
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
    monkeypatch.setattr(selection, "fit_stack", lambda *args: (*fitted(model), np.array([True])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev.evaluate([2], pool=[2]) == math.inf
    assert ev.evaluate([2]) == math.inf


def test_a_cost_is_stored_under_its_packed_bit_row(coupled_split, coupled_kept):
    """A subset's key is its bit row over the pool's sorted channels, packed
    into bytes, serial or from workers: a query names the subset by its
    channels in any order and reads the one cost stored."""
    train, _ = coupled_split
    pool = tuple(coupled_kept[:6])
    subsets = enumerate_subsets(pool, 2)
    for workers in (1, 2):
        ev = SubsetEvaluator(train)
        evaluate_subsets(subsets, ev, workers=workers, pool=pool[::-1])
        record = ev.searched_pool(pool)
        assert record.channels == tuple(sorted(pool))
        want = [bytes([sum(0x80 >> record.channels.index(c) for c in s)]) for s in subsets]
        assert record.keys(record.masks(subsets)) == want and set(record.costs) == set(want)
    fits = ev.fit_count
    assert ev.evaluate((pool[3], pool[0]), pool) == ev.evaluate((pool[0], pool[3]), pool)
    assert ev.fit_count == fits


def test_a_batch_is_aligned_with_its_input(coupled_split, coupled_kept):
    """A batch query scores unsorted and repeated subsets as single queries
    of a fresh evaluator do, in the caller's order, each distinct subset
    fitted once; a subset that names a channel outside the pool, none or one
    twice is refused."""
    train, _ = coupled_split
    pool = coupled_kept[:5]
    subsets = [(pool[2], pool[0]), (pool[4],), (pool[0], pool[2]), (pool[1], pool[3], pool[0]), (pool[4],)]
    ev = SubsetEvaluator(train)
    record = ev.searched_pool(pool)
    js = ev.costs(record.masks(subsets), pool)
    alone = SubsetEvaluator(train)
    assert js.tolist() == [alone.evaluate(s, pool) for s in subsets]
    assert ev.fit_count == 3 and len(record.costs) == 3
    assert evaluate_subsets(subsets[::-1], ev, pool=pool) == js[::-1].tolist()
    for bad in ([coupled_kept[5]], [], [pool[0], pool[0]]):
        with pytest.raises(DatasetError):
            record.masks([bad])


def test_a_cached_cost_holds_no_copy_of_its_pool_or_subset(monkeypatch):
    """Scoring 4 047 distinct subsets of an 18-channel pool in one batch,
    with the stacks' scoring stubbed, leaves under 128 bytes per cached
    cost: the float, its packed key and its dict slot, but no copy of the
    pool or of the caller's subset."""
    manifest = tuple(
        ChannelMeta(f"c{j}", ("input", "output")[j] if j < 2 else "candidate") for j in range(20)
    )
    rng = np.random.default_rng(0)
    ev = SubsetEvaluator(TimeSeriesDataset(0.1, (rng.standard_normal((20, 60)),), manifest))
    pool = tuple(range(2, 20))
    subsets = enumerate_subsets(pool, 4)
    assert len(subsets) == 4047
    monkeypatch.setattr(ev, "_score_stack", lambda record, pos: [len(s) / 7 for s in pos])
    ev.evaluate(subsets[0], pool)  # the pool's reduction, made once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_subsets(subsets[1:], ev, pool=pool)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ev.searched_pool(pool).costs) == len(subsets)
    assert held / (len(subsets) - 1) < 128


def test_a_record_keeps_one_float_per_subset(coupled_split, coupled_kept):
    """Every cost a record keeps is a Python float, and ``breakdown`` scores
    a subset bit for bit as the record does, with one fit, without reading
    or filling the record."""
    train, _ = coupled_split
    for pool in (coupled_kept[:6], None):
        subsets = enumerate_subsets(coupled_kept[:6], 2)
        ev = SubsetEvaluator(train)
        js = evaluate_subsets(subsets, ev, pool=pool)
        record = ev.searched_pool(pool)
        assert all(type(j) is float for j in record.costs.values())
        kept, fits = dict(record.costs), ev.fit_count
        for s, j in zip(subsets, js):
            b = ev.breakdown(s[::-1], pool)
            assert (math.inf if b is None else b.J) == j
        assert record.costs == kept and ev.fit_count == fits + len(subsets)


def chain_dataset(rng, c):
    """A stable 3-state system with 1 input and 2 outputs over a realization
    of 30 steps and 1 or 2 of 300 to 450, seen through ``c`` candidates:
    random mixtures of its states, except that the second is twice the
    first (so the subsets holding both truncate), the third is identically
    zero (degenerate) and the fourth grows as ``10^k`` over the short
    realization and is noise elsewhere (its fits diverge)."""
    Ad, Bd, Cd = random_stable_discrete(rng, 3, 1, 2)
    reals = []
    for r, steps in enumerate([30] + rng.integers(300, 450, rng.integers(1, 3)).tolist()):
        V = rng.standard_normal((1, steps))
        X = simulate_discrete(Ad, Bd, V[:, :-1], rng.standard_normal(3))
        cand = rng.standard_normal((c, 3)) @ X
        if c > 1:
            cand[1] = 2.0 * cand[0]
        if c > 2:
            cand[2] = 0.0
        if c > 3:
            cand[3] = 10.0 ** np.arange(steps) if r == 0 else rng.standard_normal(steps)
        reals.append(np.vstack([V, Cd @ X, cand]))
    manifest = [ChannelMeta("u", "input"), ChannelMeta("y0", "output"), ChannelMeta("y1", "output")]
    manifest += [ChannelMeta(f"c{j}", "candidate") for j in range(c)]
    return TimeSeriesDataset(0.1, tuple(reals), tuple(manifest))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    c=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(["reduced", "wide", "none"]),
)
def test_stacked_costs_match_the_per_subset_chain(seed, c, mode):
    """Subsets of every size of a pool, scored in one batch query, cost bit
    for bit what the per-subset chain gives each alone: from the pool's
    reduction, from their own snapshots when the pool is too wide to be
    reduced, or with no pool named."""
    rng = np.random.default_rng(seed)
    train = chain_dataset(rng, c)
    pool = list(train.candidate_indices)
    subsets = [
        tuple(rng.choice(pool, size, replace=False).tolist())
        for size in range(1, c + 1)
        for _ in range(min(4, math.comb(c, size)))
    ]
    named = None if mode == "none" else pool
    with pytest.MonkeyPatch.context() as m:
        if mode == "wide":
            m.setattr(selection, "REDUCED_POOL_MAX", 0)
        ev = SubsetEvaluator(train)
        js = evaluate_subsets(subsets, ev, pool=named)
        assert (ev.searched_pool(named).reduction is None) == (mode != "reduced")
        for s, j in zip(subsets, js):
            want = chain_breakdown(ev, s, named)
            assert ev.breakdown(s, named) == want, s
            assert j == (math.inf if want is None else want.J), s
    special = [chain_breakdown(ev, [i], named) for i in pool[2:4]]
    assert special == [None] * len(special)  # the zero channel is degenerate, the growing one diverges
