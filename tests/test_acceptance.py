"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import time

import numpy as np
import pytest

from statesel.benchgen import RlcParams
from statesel.cost import ChannelScales, cost, rollout_cost
from statesel.datamodel import SnapshotSet
from statesel.dmdc import c2d_zoh, fit_dynamics, fit_model, fit_output_map, rollout
from statesel.ga import GAConfig, ga_select
from statesel.prefilter import correlation, prefilter
from statesel.rfe import (
    RFEConfig,
    count_subsets,
    enumerate_subsets,
    importance,
    merged_search,
    rfe_rank,
    rfe_select,
)
from statesel.selection import SubsetEvaluator, subset_key

from conftest import random_stable_discrete, simulate_discrete


def report(criterion: int, detail: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {detail}")


def rel_err(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    err = np.zeros_like(expected)
    nz = expected != 0
    err[nz] = np.abs(got[nz] - expected[nz]) / np.abs(expected[nz])
    err[~nz] = np.abs(got[~nz])
    return err.max()


def test_criterion_1_importance_tables():
    t0 = time.time()
    Cd = np.array(
        [
            [1.00e2, 1.00e1, 1.00e0, 1.00e-4, 1.00e-4, 1.00e-4],
            [1.00e-5, 1.00e-5, 1.00e-5, 1.00e-1, 1.00e-3, 1.00e-4],
        ]
    )
    im = importance(Cd)
    expected_a = [1.00, 1.00e-1, 1.00e-2, 0.0, 0.0, 0.0]
    expected_b = [0.0, 0.0, 0.0, 1.00, 9.90e-3, 9.00e-4]
    expected_mean = [5.00e-1, 5.00e-2, 5.00e-3, 5.00e-1, 4.95e-3, 4.50e-4]
    assert rel_err(im.I[0], expected_a) < 1e-3
    assert rel_err(im.I[1], expected_b) < 1e-3
    assert rel_err(im.mean, expected_mean) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"importance rows and means reproduced to 1e-3 in {elapsed:.3f}s")


@pytest.mark.slow
def test_criterion_2_rlc_end_to_end(rlc_dataset, rlc_split):
    t0 = time.time()
    train, test = rlc_split
    kept = prefilter(train).kept
    assert len(kept) == 8

    rfe_res = rfe_select(SubsetEvaluator(train), test, kept, RFEConfig(max_states=8))
    ga_res = ga_select(
        SubsetEvaluator(train), test, kept, GAConfig(max_states=8, population_size=48, restarts=3, seed=11)
    )
    assert len(rfe_res.indices) == 2
    assert len(ga_res.indices) == 2

    # analytic ZOH states of the circuit equations
    params = RlcParams()
    A, B = params.continuous()
    Ad, Bd = c2d_zoh(A, B, params.dt)
    vs_idx = rlc_dataset.index_of("source.v")
    for res in (rfe_res, ga_res):
        for idx in res.indices:
            channel = np.hstack([arr[idx] for arr in rlc_dataset.realizations])
            best = 0.0
            for state_row in range(2):
                analytic = []
                for arr in rlc_dataset.realizations:
                    X = simulate_discrete(Ad, Bd, arr[vs_idx][None, :-1])
                    analytic.append(X[state_row])
                r = abs(correlation(channel, np.hstack(analytic)))
                best = max(best, r)
            assert best >= 0.999999, f"{rlc_dataset.names[idx]} not tied to an analytic state"

    # rollout accuracy on the test split, per channel relative RMSE
    model = fit_model(train, list(rfe_res.indices))
    for arr in test.realizations:
        state_idx = list(rfe_res.indices)
        Xh, Yh = rollout(model, arr[state_idx, 0], arr[[vs_idx], :-1])
        pred = np.vstack([Xh, Yh])
        truth = np.vstack([arr[state_idx, 1:], arr[list(test.output_indices), 1:]])
        for c in range(pred.shape[0]):
            denom = np.sqrt(np.mean(truth[c] ** 2))
            rmse = np.sqrt(np.mean((pred[c] - truth[c]) ** 2))
            assert rmse / denom <= 1e-3

    elapsed = time.time() - t0
    assert elapsed < 120.0
    assert rfe_res.names == ga_res.names
    report(
        2,
        f"prefilter kept 8/43; both methods selected {rfe_res.names} "
        f"with exact state correlation; test RMSE within 1e-3; {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_3_ga_stability(rlc_split):
    t0 = time.time()
    train, test = rlc_split
    kept = prefilter(train).kept
    res = ga_select(
        SubsetEvaluator(train), test, kept, GAConfig(max_states=8, population_size=48, restarts=100, seed=123)
    )
    selections = {tuple(r["indices"]) for r in res.diagnostics["restart_best"]}
    assert len(selections) == 1
    assert len(res.indices) == 2
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(3, f"100 GA restarts (population 48) all selected {res.names}; {elapsed:.0f}s")


def test_criterion_4_dmdc_recovery():
    rng = np.random.default_rng(2024)
    cases = [(2, 1, 1), (3, 2, 2), (4, 1, 3), (5, 2, 3), (5, 2, 1)]
    for n, m, p in cases:
        Ad, Bd, Cd = random_stable_discrete(rng, n, m, p)
        L = 20 * (n + m) + 40
        V = rng.standard_normal((m, L))
        X = simulate_discrete(Ad, Bd, V, x0=rng.standard_normal(n))
        snaps = SnapshotSet(X=X[:, :-1], Xp=X[:, 1:], V=V, Y=np.zeros((1, L)))
        Ad_hat, Bd_hat = fit_dynamics(snaps)
        assert np.max(np.abs(Ad_hat - Ad)) < 1e-6
        assert np.max(np.abs(Bd_hat - Bd)) < 1e-6
        Cd_hat = fit_output_map(X[:, :-1], Cd @ X[:, :-1])
        assert np.max(np.abs(Cd_hat - Cd)) < 1e-6
    report(4, f"dynamics and output maps recovered to 1e-6 on {len(cases)} random systems")


def test_criterion_5_cost_oracle_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        L = int(rng.integers(1, 40))
        px, tx = rng.standard_normal((n, L)), rng.standard_normal((n, L))
        py, ty = rng.standard_normal((p, L)), rng.standard_normal((p, L))
        sx = rng.uniform(0.3, 3.0, n)
        sy = rng.uniform(0.3, 3.0, p)
        scales = ChannelScales(sigma_x=sx, sigma_y=sy, floor=1e-9)
        got = cost(px, py, tx, ty, scales)
        js = 0.0
        for i in range(n):
            for k in range(L):
                js += ((px[i, k] - tx[i, k]) / sx[i]) ** 2
        js /= n * L
        jo = 0.0
        for j in range(p):
            for k in range(L):
                jo += ((py[j, k] - ty[j, k]) / sy[j]) ** 2
        jo /= p * L
        assert abs(got.J - (js + jo)) <= 1e-12 * max(1.0, abs(js + jo))

    ones = ChannelScales(sigma_x=np.array([1.0]), sigma_y=np.array([1.0]), floor=1e-9)
    zero = cost(np.ones((1, 7)), np.ones((1, 7)), np.ones((1, 7)), np.ones((1, 7)), ones)
    assert zero.J == 0.0
    sx, sy = 0.6, 1.7
    scales = ChannelScales(sigma_x=np.array([sx]), sigma_y=np.array([sy]), floor=1e-9)
    two = cost(
        np.full((1, 9), sx), np.full((1, 9), sy), np.zeros((1, 9)), np.zeros((1, 9)), scales
    )
    assert two.J == 2.0
    report(5, "cost matches the double-loop oracle on 100 cases; J=0 and J=2 hold exactly")


def test_criterion_6_subset_counting():
    expected = {3: 7, 6: 63, 9: 511, 12: 4095, 15: 32767}
    for cap, value in expected.items():
        assert count_subsets(cap) == value
    # the closed form 2^18 - 1; see the decisions ledger for the source table note
    assert count_subsets(18) == 262143
    report(6, "subset counts match 2^n - 1 for caps 3..15; cap 18 returns 262143")


def test_criterion_7_overshadowing_mitigation(coupled_dataset, coupled_split, coupled_kept):
    t0 = time.time()
    train, test = coupled_split
    names = coupled_dataset.names
    labels = coupled_dataset.manifest

    # (a) naive whole-pool elimination at cap 2 stays inside the high-gain block
    naive = rfe_rank(SubsetEvaluator(train), coupled_kept, RFEConfig(max_states=2))
    naive_subsystems = {labels[i].subsystem for i in naive.survivors}
    assert naive_subsystems == {"A"}

    evaluator = SubsetEvaluator(train)
    best = min(
        subset_key(evaluator.evaluate(s), s) for s in enumerate_subsets(coupled_kept, 2)
    )
    def j_test(subset):
        model = evaluator.fit(subset)
        return rollout_cost(model, test, subset, evaluator.scales_for(subset)).J
    jt_naive = j_test(tuple(naive.survivors))
    jt_opt = j_test(best[2])
    assert jt_naive > 10.0 * jt_opt

    # (b) the three-step workflow recovers the cross-subsystem optimum
    res = rfe_select(SubsetEvaluator(train), test, coupled_kept, RFEConfig(max_states=2))
    zx = res.diagnostics["merged_pool"]
    assert len(zx) <= 10
    assert {labels[i].subsystem for i in res.indices} == {"A", "B"}
    brute = min(subset_key(evaluator.evaluate(s), s) for s in enumerate_subsets(zx, 2))
    assert res.j_train.J == brute[0]
    assert res.indices == brute[2]

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        7,
        f"naive picked {tuple(names[i] for i in naive.survivors)} (J_test {jt_naive:.3g}, "
        f"{jt_naive / jt_opt:.0f}x optimum); workflow picked {res.names}; {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_parallel_determinism(coupled_split, coupled_kept):
    train, test = coupled_split
    merged = [
        merged_search(SubsetEvaluator(train), test, coupled_kept, RFEConfig(max_states=3), workers=w).to_dict()
        for w in (1, 4, 8)
    ]
    assert merged[0] == merged[1] == merged[2]
    cfg = GAConfig(
        max_states=3,
        population_size=16,
        restarts=3,
        seed=9,
        stall_generations=8,
        max_generations=40,
    )
    ga = [ga_select(SubsetEvaluator(train), test, coupled_kept, cfg, workers=w).to_dict() for w in (1, 4, 8)]
    assert ga[0] == ga[1] == ga[2]
    report(8, "merged_search and ga_select bit-identical for worker counts 1, 4, 8")


@pytest.mark.slow
def test_criterion_9_cost_vs_cap_trend(coupled_split, coupled_kept):
    train, test = coupled_split
    caps = (3, 6, 9, 12)
    results = {c: rfe_select(SubsetEvaluator(train), test, coupled_kept, RFEConfig(max_states=c)) for c in caps}
    j_train = [results[c].j_train.J for c in caps]
    assert all(a >= b - 1e-15 for a, b in zip(j_train, j_train[1:]))
    counts = {c: len(results[c].indices) for c in caps}
    assert counts[9] < 9
    assert counts[12] < 12
    assert counts[9] == counts[12]
    report(
        9,
        "J_train non-increasing over caps "
        + ", ".join(f"{c}:{results[c].j_train.J:.3g}(n={counts.get(c, len(results[c].indices))})" for c in caps),
    )
