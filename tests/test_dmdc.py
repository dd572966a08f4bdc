import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statesel import dmdc
from statesel.benchgen import RlcParams
from statesel.datamodel import ChannelMeta, SnapshotSet, TimeSeriesDataset, assemble_snapshots
from statesel.dmdc import (
    PoolReduction,
    StateSpaceModel,
    TruncationPolicy,
    c2d_zoh,
    fit_dynamics,
    fit_model,
    fit_output_map,
    load_model,
    real_schur,
    rollout,
    rollout_stack,
    save_model,
    truncated_svd,
)
from statesel.errors import DegenerateSnapshots

from conftest import direct_fit, fit_tol, random_stable_discrete, scan_alone, simulate_discrete


def make_model(Ad, Bd, Cd, dt=0.1):
    n, m = Bd.shape
    p = Cd.shape[0]
    return StateSpaceModel(
        Ad=Ad,
        Bd=Bd,
        Cd=Cd,
        state_names=tuple(f"x{i}" for i in range(n)),
        input_names=tuple(f"u{i}" for i in range(m)),
        output_names=tuple(f"y{i}" for i in range(p)),
        dt=dt,
    )


class TestTruncatedSvd:
    def test_condition_cap(self):
        M = np.diag([1.0, 1e-3, 1e-12])
        _, s, _, q = truncated_svd(M, TruncationPolicy(1e9))
        assert q == 2
        assert np.allclose(s, [1.0, 1e-3])

    def test_identity(self):
        _, s, _, q = truncated_svd(np.eye(3), TruncationPolicy())
        assert q == 3
        assert np.allclose(s, 1.0)

    def test_known_rank_by_construction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 40))
        *_, q = truncated_svd(M, TruncationPolicy())
        assert q == 4

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateSnapshots):
            truncated_svd(np.zeros((3, 5)), TruncationPolicy())

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((5, 20))
        U, s, W, q = truncated_svd(M, TruncationPolicy())
        assert q == 5
        assert np.allclose(U @ np.diag(s) @ W.T, M)

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            TruncationPolicy(0.5)


class TestFitDynamics:
    def test_recovers_random_stable_system(self):
        rng = np.random.default_rng(11)
        Ad, Bd, _ = random_stable_discrete(rng, n=3, m=1, p=1)
        V = rng.standard_normal((1, 200))
        X = simulate_discrete(Ad, Bd, V, x0=rng.standard_normal(3))
        snaps = SnapshotSet(X=X[:, :-1], Xp=X[:, 1:], V=V, Y=np.zeros((1, 200)))
        Ad_hat, Bd_hat = fit_dynamics(snaps)
        assert np.max(np.abs(Ad_hat - Ad)) < 1e-8
        assert np.max(np.abs(Bd_hat - Bd)) < 1e-8

    def test_identity_dynamics(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((2, 200))
        V = rng.standard_normal((1, 200))
        snaps = SnapshotSet(X=X, Xp=X.copy(), V=V, Y=np.zeros((1, 200)))
        Ad_hat, Bd_hat = fit_dynamics(snaps)
        assert np.max(np.abs(Ad_hat - np.eye(2))) < 1e-10
        assert np.max(np.abs(Bd_hat)) < 1e-10

    def test_rlc_matches_zoh_oracle(self, rlc_split, rlc_dataset):
        train, _ = rlc_split
        idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
        snaps = assemble_snapshots(train, idx)
        Ad_hat, Bd_hat = fit_dynamics(snaps)
        params = RlcParams()
        A, B = params.continuous()
        Ad, Bd = c2d_zoh(A, B, params.dt)
        assert np.max(np.abs(Ad_hat - Ad)) < 1e-6
        assert np.max(np.abs(Bd_hat - Bd)) < 1e-6

    def test_residual_matches_dense_reference(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((3, 60))
        V = rng.standard_normal((2, 60))
        Xp = rng.standard_normal((3, 60))
        snaps = SnapshotSet(X=X, Xp=Xp, V=V, Y=np.zeros((1, 60)))
        Ad_hat, Bd_hat = fit_dynamics(snaps)
        res = np.linalg.norm(Xp - Ad_hat @ X - Bd_hat @ V)
        omega = np.vstack([X, V])
        G_ref, *_ = np.linalg.lstsq(omega.T, Xp.T, rcond=None)
        res_ref = np.linalg.norm(Xp - G_ref.T @ omega)
        assert res <= res_ref * (1 + 1e-9)

    def test_truncation_monotonicity(self):
        rng = np.random.default_rng(14)
        # badly scaled states force the cap to bite
        X = rng.standard_normal((4, 120)) * np.array([1.0, 1e-4, 1e-7, 1e-10])[:, None]
        V = rng.standard_normal((1, 120))
        Xp = rng.standard_normal((4, 120))
        snaps = SnapshotSet(X=X, Xp=Xp, V=V, Y=np.zeros((1, 120)))
        residuals = []
        for cap in (1e2, 1e5, 1e8, 1e12):
            Ad_hat, Bd_hat = fit_dynamics(snaps, TruncationPolicy(cap))
            residuals.append(np.linalg.norm(Xp - Ad_hat @ X - Bd_hat @ V))
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))


class TestFitOutputMap:
    def test_doubling_map(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((3, 50))
        Cd = fit_output_map(X, 2.0 * X)
        assert np.max(np.abs(Cd - 2.0 * np.eye(3))) < 1e-12

    def test_recovers_known_map(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((4, 100))
        C0 = rng.standard_normal((2, 4))
        Cd = fit_output_map(X, C0 @ X)
        assert np.max(np.abs(Cd - C0)) < 1e-10

    def test_rlc_output_map(self, rlc_split, rlc_dataset):
        train, _ = rlc_split
        idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
        snaps = assemble_snapshots(train, idx)
        Cd = fit_output_map(snaps.X, snaps.Y)
        R = RlcParams().R
        assert np.max(np.abs(Cd - np.array([[1.0, 0.0], [0.0, R]]))) < 1e-6

    def test_minimum_norm_property(self):
        rng = np.random.default_rng(23)
        # rank-deficient states: two directions never excited
        basis = rng.standard_normal((4, 2))
        X = basis @ rng.standard_normal((2, 80))
        Y = rng.standard_normal((2, 4)) @ X
        Cd = fit_output_map(X, Y)
        base_res = np.linalg.norm(Y - Cd @ X)
        # any row-null-space direction of X leaves the residual, grows the norm
        _, _, vh = np.linalg.svd(X.T, full_matrices=True)
        null_dir = vh[-1]
        assert np.max(np.abs(X.T @ null_dir)) < 1e-10
        perturbed = Cd + 0.5 * np.outer(np.ones(2), null_dir)
        assert np.linalg.norm(Y - perturbed @ X) == pytest.approx(base_res, abs=1e-9)
        assert np.linalg.norm(perturbed) > np.linalg.norm(Cd)

    def test_column_mismatch(self):
        with pytest.raises(Exception):
            fit_output_map(np.ones((2, 5)), np.ones((1, 4)))


class TestRollout:
    def test_zero_dynamics(self):
        model = make_model(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
        Xh, Yh = rollout(model, np.array([3.0, -1.0]), np.zeros((1, 5)))
        assert np.all(Xh == 0)
        assert np.all(Yh == 0)

    def test_identity_holds_state(self):
        model = make_model(np.eye(2), np.zeros((2, 1)), np.eye(2))
        x0 = np.array([1.5, -2.5])
        Xh, _ = rollout(model, x0, np.zeros((1, 7)))
        assert np.allclose(Xh, x0[:, None])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(31)
        Ad, Bd, Cd = random_stable_discrete(rng, n=4, m=2, p=3)
        model = make_model(Ad, Bd, Cd)
        x0 = rng.standard_normal(4)
        V = rng.standard_normal((2, 50))
        Xh, Yh = rollout(model, x0, V)
        x = x0.copy()
        for k in range(50):
            x = Ad @ x + Bd @ V[:, k]
            assert np.max(np.abs(Xh[:, k] - x)) < 1e-12
            assert np.max(np.abs(Yh[:, k] - Cd @ x)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(32)
        Ad, Bd, Cd = random_stable_discrete(rng, n=3, m=1, p=2)
        model = make_model(Ad, Bd, Cd)
        x0 = rng.standard_normal(3)
        V = rng.standard_normal((1, 30))
        alpha = 2.75
        X1, Y1 = rollout(model, x0, V)
        X2, Y2 = rollout(model, alpha * x0, alpha * V)
        assert np.allclose(X2, alpha * X1, rtol=1e-12)
        assert np.allclose(Y2, alpha * Y1, rtol=1e-12)

    def test_dimension_mismatch(self):
        model = make_model(np.eye(2), np.zeros((2, 1)), np.eye(2))
        with pytest.raises(ValueError):
            rollout(model, np.ones(3), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            rollout(model, np.ones(2), np.zeros((2, 4)))


class TestSegmentedRollout:
    """Several realizations rolled out in one call, each against the per-step
    loop run on its own."""

    LENGTHS = (399, 350, 420)

    def segments(self, rng, n, m):
        x0 = rng.standard_normal((n, len(self.LENGTHS)))
        Vs = [rng.standard_normal((m, l)) for l in self.LENGTHS]
        starts = np.cumsum((0,) + self.LENGTHS[:-1])
        return x0, Vs, starts

    @pytest.mark.parametrize("kind", ["stable", "rotation", "jordan"])
    def test_unequal_lengths_match_loop(self, kind):
        rng = np.random.default_rng(8)
        Ad, Bd, Cd = draw_ad(kind, 4, rng), rng.standard_normal((4, 2)), rng.standard_normal((3, 4))
        x0, Vs, starts = self.segments(rng, 4, 2)
        Xh, Yh = rollout(make_model(Ad, Bd, Cd), x0, np.hstack(Vs), starts)
        assert Xh.shape == (4, sum(self.LENGTHS)) and Yh.shape == (3, sum(self.LENGTHS))
        for r, (a, V) in enumerate(zip(starts, Vs)):
            X = simulate_discrete(Ad, Bd, V, x0[:, r])[:, 1:]
            tol = SCAN_TOL * transient_growth(Ad, V.shape[1]) * max(1.0, np.max(np.abs(X)))
            assert np.max(np.abs(Xh[:, a : a + V.shape[1]] - X)) <= tol
            assert np.max(np.abs(Yh[:, a : a + V.shape[1]] - Cd @ X)) <= tol * np.abs(Cd).sum(axis=1).max()

    def test_overflow_stays_in_its_realization(self):
        # 5.7^420 overflows, 5.7^350 and 5.7^399 do not
        model = make_model(np.array([[5.7]]), np.array([[1.0]]), np.array([[1.0]]))
        x0, Vs, starts = self.segments(np.random.default_rng(9), 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Xh, _ = rollout(model, x0, np.hstack(Vs), starts)
        assert np.all(np.isfinite(Xh[:, : starts[2]]))
        assert not np.all(np.isfinite(Xh[:, starts[2] :]))

    def test_starts_validated(self):
        model = make_model(np.eye(2), np.zeros((2, 1)), np.eye(2))
        for starts in ((1, 3), (0, 3, 3), (0, 6), (0,)):
            with pytest.raises(ValueError):
                rollout(model, np.ones((2, 2)), np.zeros((1, 6)), starts)


# rollout scan vs the plain loop: horizons around every power of two
SCAN_HORIZONS = sorted({0, 1, 2, 3, 3000} | {2**j + d for j in range(2, 12) for d in (-1, 0, 1)})
# relative to max(1, max|x|) times the transient growth max ||Ad^s||, which
# is 1 for a normal Ad of spectral radius at most 1
SCAN_TOL = 1e-11


def draw_ad(kind, n, rng):
    """Transition matrix of a named family. Jordan blocks are defective and
    random ones non-normal; the others are normal, since the orthogonal
    similarity applied last keeps normality. The defective families are
    several Jordan blocks sharing one eigenvalue ("shared"), the same with one
    corner entry off by 1e-16 to 1e-6, which splits the eigenvalue into a
    cluster of real and complex ones ("near"), a nilpotent Jordan block, and
    a Jordan chain of one complex pair repeated ("pairs", plus a real
    eigenvalue for odd ``n``). "scaled-" before a kind scales row ``i`` by
    ``d_i`` and column ``i`` by ``1 / d_i``, with ``d_i`` log-uniform over
    1e-6 to 1e6, as channels of very different magnitudes couple."""
    if kind.startswith("scaled-"):
        d = 10.0 ** rng.uniform(-6, 6, n)
        return draw_ad(kind[7:], n, rng) * d[:, None] / d
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n)
    if kind in ("stable", "unstable"):
        A = rng.standard_normal((n, n))
        radius = rng.uniform(0.1, 0.99) if kind == "stable" else rng.uniform(1.01, 3.0)
        return A * radius / max(abs(np.linalg.eigvals(A)))
    if kind == "jordan":
        J = rng.uniform(-1.05, 1.05) * np.eye(n) + np.eye(n, k=1)
    elif kind == "nilpotent":
        J = np.eye(n, k=1)
    elif kind in ("shared", "near"):
        J = rng.uniform(-1.1, 1.1) * np.eye(n) + np.diag(rng.integers(0, 2, n - 1).astype(float), 1)
        if kind == "near":
            J[-1, 0] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -6)
    elif kind == "pairs":
        r, th = rng.uniform(0.5, 1.1), rng.uniform(0, np.pi)
        C = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        J = np.diag(rng.uniform(-1, 1, n))
        J[: n - n % 2, : n - n % 2] = np.kron(np.eye(n // 2), C) + np.eye(n - n % 2, k=2)
    else:  # "complex" pairs of any radius, or "rotation" pairs on the unit circle
        J = np.diag(rng.choice([-1.0, 1.0], n) if kind == "rotation" else rng.uniform(-1, 1, n))
        for i in range(0, n - 1, 2):
            r = 1.0 if kind == "rotation" else rng.uniform(0.5, 1.1)
            th = rng.uniform(0, np.pi)
            J[i : i + 2, i : i + 2] = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ J @ Q.T


def first_overflow(Ad, K):
    """Smallest ``s = 2^j < K`` whose power ``T^s`` of the Schur factor of
    ``Ad``, squared as the scan squares it, is not finite; else ``K``."""
    n = len(Ad)
    P, s = make_model(Ad, np.zeros((n, 0)), np.zeros((0, n)))._schur[0], 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < K and np.all(np.isfinite(P)):
            P, s = P @ P, 2 * s
    return min(s, K)


def transient_growth(Ad, K):
    """``max ||Ad^s||`` (Frobenius) over ``0 <= s < K``, at least 1."""
    P, g = np.eye(len(Ad)), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(K - 1):
            P = Ad @ P
            g = max(g, float(np.linalg.norm(P)))
    return g


def schur_error(Ad, T, Q):
    """``||Q T Q' - Ad||_F / ||Ad||_F``, 0 for ``Ad = 0 = T``; both scaled by
    ``max |Ad|`` first, so that the norms of large matrices do not overflow."""
    scale = np.max(np.abs(Ad), initial=0.0) or 1.0
    err = np.linalg.norm((Q @ T @ Q.T - Ad) / scale)
    return err / np.linalg.norm(Ad / scale) if err else 0.0


class TestSchur:
    """The model's numpy real Schur factors, with ``scipy.linalg.schur`` held
    to the same backward error bound."""

    KINDS = ["stable", "unstable", "jordan", "complex", "rotation", "zero", "identity",
             "shared", "near", "nilpotent", "pairs", "scaled-jordan", "scaled-near", "scaled-pairs"]

    def assert_real_schur(self, Ad):
        n = len(Ad)
        T, Q = make_model(Ad, np.zeros((n, 0)), np.zeros((0, n)))._schur
        assert T.shape == Q.shape == (n, n)
        assert np.max(np.abs(Q.T @ Q - np.eye(n)), initial=0.0) <= 1e-13
        assert schur_error(Ad, T, Q) <= 1e-13
        assert schur_error(Ad, *scipy.linalg.schur(Ad)) <= 1e-13
        assert np.all(np.tril(T, -2) == 0)
        # a nonzero subdiagonal entry opens a 2 x 2 block of a complex pair
        opens = np.flatnonzero(np.diag(T, -1))
        assert np.all(np.diff(opens) > 1)
        for i in opens:
            assert np.all(np.linalg.eigvals(T[i : i + 2, i : i + 2]).imag != 0), (i, T)
        return T, Q

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(min_value=1, max_value=10),
        scale=st.sampled_from([1e-200, 1e-50, 1.0, 1e50, 1e200]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scipy_bound(self, kind, n, scale, seed):
        self.assert_real_schur(draw_ad(kind, n, np.random.default_rng(seed)) * scale)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_near_defective_clusters(self, n):
        # the eigenvectors of a cluster are often too close to deflate all at
        # once, and one draw in a few dozen leaves a pair block whose own
        # eigenvalues are real in round-off, which must then be split
        rng = np.random.default_rng(n)
        for _ in range(300):
            self.assert_real_schur(draw_ad("near", n, rng))

    def test_block_count(self):
        # two complex pairs and a real eigenvalue; one state is its own form
        T, _ = self.assert_real_schur(draw_ad("pairs", 5, np.random.default_rng(4)))
        assert np.count_nonzero(np.diag(T, -1)) == 2
        T, Q = self.assert_real_schur(np.array([[0.7]]))
        assert T[0, 0] == 0.7 and Q[0, 0] == 1.0


class TestRolloutScan:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["stable", "unstable", "jordan", "complex", "rotation", "zero", "identity"]),
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=0, max_value=2),
        K=st.sampled_from(SCAN_HORIZONS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_loop_oracle(self, kind, n, m, K, seed):
        rng = np.random.default_rng(seed)
        Ad = draw_ad(kind, n, rng)
        Bd = rng.standard_normal((n, m))
        x0 = rng.standard_normal(n)
        V = rng.standard_normal((m, K))
        Xh, Yh = rollout(make_model(Ad, Bd, np.ones((1, n))), x0, V)
        assert Xh.shape == (n, K) and Yh.shape == (1, K)
        with np.errstate(over="ignore", invalid="ignore"):
            X = simulate_discrete(Ad, Bd, V, x0)[:, 1:]
        h = first_overflow(Ad, K)
        # columns before the first overflowing power agree wherever the
        # oracle stays finite with room to spare
        big = np.flatnonzero(~(np.abs(X[:, :h]) <= 1e250).all(axis=0))
        c = big[0] if big.size else h
        scale = max(1.0, float(np.max(np.abs(X[:, :c]), initial=0.0)))
        tol = SCAN_TOL * transient_growth(Ad, c) * scale
        assert np.max(np.abs(Xh[:, :c] - X[:, :c]), initial=0.0) <= tol
        assert not np.any(np.isfinite(Xh[:, h:]))

    @pytest.mark.parametrize("lam", [0.9, -0.9, 0.99])
    def test_defective_block_matches_loop(self, lam):
        # a Jordan block of size 8 seen through a rotation: its powers grow
        # by orders of magnitude before they decay, and squaring them outside
        # the Schur basis loses most of the digits
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Ad = Q @ (lam * np.eye(8) + np.eye(8, k=1)) @ Q.T
        Bd, x0, V = rng.standard_normal((8, 1)), rng.standard_normal(8), rng.standard_normal((1, 1500))
        Xh, _ = rollout(make_model(Ad, Bd, np.ones((1, 8))), x0, V)
        X = simulate_discrete(Ad, Bd, V, x0)[:, 1:]
        tol = SCAN_TOL * transient_growth(Ad, 1500) * max(1.0, np.max(np.abs(X)))
        assert np.max(np.abs(Xh - X)) <= tol

    def test_unexcited_unstable_mode_diverges(self):
        # the first state is never excited, so the plain loop keeps it at 0,
        # but T^32 = Ad^32 overflows and the scan meets inf * 0
        model = make_model(np.diag([1e10, 0.5]), np.array([[0.0], [1.0]]), np.eye(2))
        x0, V = np.array([0.0, 1.0]), np.ones((1, 100))
        loop = simulate_discrete(model.Ad, model.Bd, V, x0)[:, 1:]
        assert np.all(np.isfinite(loop))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Xh, Yh = rollout(model, x0, V)
        assert np.max(np.abs(Xh[:, :32] - loop[:, :32])) < 1e-15
        assert np.all(np.isnan(Xh[:, 32:])) and np.all(np.isnan(Yh[:, 32:]))


class TestStacks:
    """A stack of models is factored and rolled out bit for bit as each
    model is alone: by ``_deflate`` and by ``scan_alone`` (conftest)."""

    @settings(max_examples=300, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(TestSchur.KINDS), min_size=1, max_size=6),
        n=st.integers(min_value=1, max_value=8),
        scale=st.sampled_from([1e-200, 1.0, 1e200]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_schur_matches_each_model_alone(self, kinds, n, scale, seed):
        rng = np.random.default_rng(seed)
        Ad = np.stack([draw_ad(kind, n, rng) * scale for kind in kinds])
        T, Q = real_schur(Ad)
        for A, Tk, Qk in zip(Ad, T, Q):
            want = dmdc._deflate(A)
            assert np.array_equal(Tk, want[0]) and np.array_equal(Qk, want[1])

    def test_defective_models_are_factored_alone(self, monkeypatch):
        # the first deflation step fails near a defective eigenvalue, and
        # only those models go to _deflate; a model's own _schur is the
        # stack of one
        rng = np.random.default_rng(7)
        kinds = ["stable", "complex", "unstable"] * 3 + ["jordan", "near", "nilpotent", "pairs"] * 5
        Ad = np.stack([draw_ad(kind, 4, rng) for kind in kinds])
        deflate, alone = dmdc._deflate, []
        monkeypatch.setattr(dmdc, "_deflate", lambda A: alone.append(A) or deflate(A))
        T, Q = real_schur(Ad)
        assert 0 < len(alone) <= 20 and not any(np.array_equal(A, a) for A in Ad[:9] for a in alone)
        assert all(np.array_equal(T[k], make_model(A, np.zeros((4, 0)), np.zeros((0, 4)))._schur[0])
                   for k, A in enumerate(Ad))

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["stable", "unstable", "jordan", "complex", "rotation", "zero"]),
                       min_size=1, max_size=5),
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=0, max_value=2),
        lengths=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rollout_matches_each_model_alone(self, kinds, n, m, lengths, seed):
        rng = np.random.default_rng(seed)
        N, p = len(kinds), int(rng.integers(1, 3))
        Ad = np.stack([draw_ad(kind, n, rng) for kind in kinds])
        Bd, Cd = rng.standard_normal((N, n, m)), rng.standard_normal((N, p, n))
        x0, V = rng.standard_normal((N, n, len(lengths))), rng.standard_normal((m, sum(lengths)))
        starts = np.cumsum([0] + lengths[:-1]).tolist()
        T, Q = real_schur(Ad)
        Xh, Yh = rollout_stack(T, Q, Bd, Cd, x0, V, starts)
        for k in range(N):
            want = scan_alone(T[k], Q[k], Bd[k], Cd[k], x0[k], V, starts)
            alone = rollout(make_model(Ad[k], Bd[k], Cd[k]), x0[k], V, starts)
            for got, w, a in zip((Xh[k], Yh[k]), want, alone):
                assert np.array_equal(got, w, equal_nan=True) and np.array_equal(a, w, equal_nan=True)


def reduced_fit(ds, pool, subset, policy):
    """``direct_fit``'s result, computed from the reduction of ``pool``."""
    s = PoolReduction.of(ds, pool).snapshots(subset)
    out = {}
    try:
        q = truncated_svd(np.vstack([s.X, s.V]), policy)[3]
        out["dynamics"] = (*fit_dynamics(s, policy), q)
    except DegenerateSnapshots:
        out["dynamics"] = "degenerate"
    try:
        out["output"] = (fit_output_map(s.X, s.Y, policy), truncated_svd(s.X, policy)[3])
    except DegenerateSnapshots:
        out["output"] = "degenerate"
    return out


class TestReducedFit:
    """The fit from a pool's reduction against ``direct_fit``, the fit from
    the ``L``-column snapshots in conftest: the same ``DegenerateSnapshots``
    cases, the same truncation rank ``q`` and matrices within ``fit_tol``."""

    @staticmethod
    def dataset(rng, kind, log_cond):
        """An exact 3-state LTI system with 1 input and 2 outputs, seen
        through candidates that are linear in its states:

        * ``rank``: 4 to 6 random mixtures, the last twice the first;
        * ``zero``: 1 to 4 random mixtures, the first identically zero;
        * ``ill``: 3 mixtures of condition ``10**log_cond``, plus 2 noise
          channels in the pool only;
        * ``wide``: 4 to 8 noise channels over one realization of 3 to 5
          steps, so the pool is wider than the ``L`` snapshot pairs.
        """
        n, m, p = 3, 1, 2
        Ad, Bd, Cd = random_stable_discrete(rng, n, m, p)
        if kind == "ill":
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            W, _ = np.linalg.qr(rng.standard_normal((n, n)))
            M = U @ np.diag(np.logspace(0, -log_cond, n)) @ W.T
        elif kind != "wide":
            M = rng.standard_normal((int(rng.integers(4, 7)) if kind == "rank" else int(rng.integers(1, 5)), n))
            M[-1 if kind == "rank" else 0] = 2.0 * M[0] if kind == "rank" else 0.0
        c_noise = {"ill": 2, "wide": int(rng.integers(4, 9))}.get(kind, 0)
        lengths = [int(rng.integers(3, 6))] if kind == "wide" else rng.integers(20, 60, rng.integers(1, 4))
        reals = []
        for l in lengths:
            V = rng.standard_normal((m, int(l)))
            X = simulate_discrete(Ad, Bd, V[:, :-1], rng.standard_normal(n))
            rows = [V, Cd @ X] + ([] if kind == "wide" else [M @ X])
            reals.append(np.vstack(rows + [rng.standard_normal((c_noise, int(l)))]))
        c = reals[0].shape[0] - m - p
        manifest = [ChannelMeta("u", "input")] + [ChannelMeta(f"y{j}", "output") for j in range(p)]
        manifest += [ChannelMeta(f"c{j}", "candidate") for j in range(c)]
        return TimeSeriesDataset(0.1, tuple(reals), tuple(manifest))

    def check(self, ds, pool, subset, policy):
        want, got = direct_fit(ds, subset, policy), reduced_fit(ds, pool, subset, policy)
        snaps = assemble_snapshots(ds, subset)
        problems = {"dynamics": (np.vstack([snaps.X, snaps.V]), snaps.Xp), "output": (snaps.X, snaps.Y)}
        for part in ("dynamics", "output"):
            w, g = want[part], got[part]
            if isinstance(w, str) or isinstance(g, str):
                assert w == g, part
                continue
            assert g[-1] == w[-1], part  # truncation rank
            tol = fit_tol(*problems[part], np.hstack(w[:-1]), w[-1])
            for a, b in zip(w[:-1], g[:-1]):
                assert np.linalg.norm(a - b) <= tol * np.linalg.norm(a), part
        return want

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["rank", "zero", "ill", "wide"]),
        log_cond=st.floats(min_value=4.5, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        qr_columns=st.sampled_from([1, 5, 16, dmdc.QR_COLUMNS]),
        data=st.data(),
    )
    def test_matches_direct_fit(self, kind, log_cond, seed, qr_columns, data):
        ds = self.dataset(np.random.default_rng(seed), kind, log_cond)
        pool = list(ds.candidate_indices)
        if kind == "ill":
            subset = pool[:3]
            sv = np.linalg.svd(assemble_snapshots(ds, subset).X, compute_uv=False)
            assume(1e4 <= sv[0] / sv[-1] <= 1e9)  # the states' own spread moves it a little
        else:
            subset = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1)))
        if kind == "wide":
            assert assemble_snapshots(ds, pool).L < len(pool) + 1
        # a cap that truncates nothing on the ill-conditioned stacks, the
        # default elsewhere
        policy = TruncationPolicy(1e12 if kind == "ill" else 1e9)
        default, dmdc.QR_COLUMNS = dmdc.QR_COLUMNS, qr_columns  # the QR in blocks of any width
        try:
            self.check(ds, pool, subset, policy)
        finally:
            dmdc.QR_COLUMNS = default

    def test_zero_channel_stays_exactly_zero(self):
        ds = self.dataset(np.random.default_rng(4), "zero", 0.0)
        pool = list(ds.candidate_indices)
        R = PoolReduction.of(ds, pool).R
        assert not np.any(R[:, 0]) and not np.any(R[:, len(pool) + 1])  # its X and Xp columns
        want = self.check(ds, pool, pool[:1], TruncationPolicy())
        assert want["output"] == "degenerate" and want["dynamics"] != "degenerate"

    def test_all_zero_stack_is_degenerate(self):
        manifest = (ChannelMeta("u", "input"), ChannelMeta("y", "output"), ChannelMeta("a", "candidate"),
                    ChannelMeta("b", "candidate"))
        rows = np.vstack([np.zeros(30), np.ones(30), np.zeros(30), np.arange(30.0)])
        ds = TimeSeriesDataset(0.1, (rows,), manifest)
        want = self.check(ds, [2, 3], [2], TruncationPolicy())
        assert want == {"dynamics": "degenerate", "output": "degenerate"}

    def test_fit_model_fits_from_the_reduction(self, rlc_split, rlc_dataset):
        train, _ = rlc_split
        idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
        pool = sorted(idx + [rlc_dataset.index_of("inductor.i")])
        reduction = PoolReduction.of(train, pool)
        got = reduced_fit(train, pool, idx, TruncationPolicy())
        model = fit_model(train, idx, reduction=reduction)
        assert np.array_equal(model.Ad, got["dynamics"][0]) and np.array_equal(model.Cd, got["output"][0])
        alone = fit_model(train, idx)  # the reduction of the subset itself
        assert np.allclose(alone.Ad, model.Ad, rtol=0, atol=1e-9)


class TestC2d:
    def test_zero_dynamics(self):
        B = np.array([[2.0], [1.0]])
        Ad, Bd = c2d_zoh(np.zeros((2, 2)), B, 0.25)
        assert np.allclose(Ad, np.eye(2))
        assert np.allclose(Bd, 0.25 * B)

    def test_scalar_decay(self):
        Ad, _ = c2d_zoh(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
        assert Ad[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_rlc_matches_eigendecomposition(self):
        params = RlcParams()
        A, B = params.continuous()
        Ad, Bd = c2d_zoh(A, B, params.dt)
        # closed form through diagonalization of the augmented block
        n, m = 2, 1
        block = np.zeros((n + m, n + m))
        block[:n, :n] = A
        block[:n, n:] = B
        w, P = np.linalg.eig(block * params.dt)
        E = (P @ np.diag(np.exp(w)) @ np.linalg.inv(P)).real
        assert np.max(np.abs(Ad - E[:n, :n])) / np.max(np.abs(Ad)) < 1e-10
        assert np.max(np.abs(Bd - E[:n, n:])) / np.max(np.abs(Bd)) < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            c2d_zoh(np.ones((2, 3)), np.ones((2, 1)), 0.1)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            c2d_zoh(np.eye(2), np.ones((2, 1)), 0.0)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        Ad, Bd, Cd = random_stable_discrete(rng, n=3, m=2, p=2)
        model = make_model(Ad, Bd, Cd, dt=0.05)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.Ad, model.Ad)
        assert np.array_equal(back.Bd, model.Bd)
        assert np.array_equal(back.Cd, model.Cd)
        assert back.state_names == model.state_names
        assert back.dt == model.dt

    def test_schema_fields(self, tmp_path):
        model = make_model(np.eye(2) * 0.5, np.ones((2, 1)), np.eye(2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dt", "state_names", "input_names", "output_names", "Ad", "Bd", "Cd"}

    def test_validation(self):
        with pytest.raises(ValueError):
            make_model(np.eye(2), np.ones((3, 1)), np.eye(2))
        with pytest.raises(ValueError):
            make_model(np.array([[np.inf, 0], [0, 1.0]]), np.ones((2, 1)), np.eye(2))


def test_fit_model_binds_names(rlc_split, rlc_dataset):
    train, _ = rlc_split
    idx = [rlc_dataset.index_of("capacitor.v"), rlc_dataset.index_of("capacitor.p.i")]
    model = fit_model(train, idx)
    assert model.state_names == ("capacitor.v", "capacitor.p.i")
    assert model.input_names == ("source.v",)
    assert model.output_names == ("monitor.v_C", "monitor.v_R")
    assert model.dt == rlc_dataset.dt
    # no feedthrough: the outputs are Cd times the states, whatever the inputs
    Xh, Yh = rollout(model, np.zeros(2), np.ones((1, 5)))
    assert np.array_equal(Yh, model.Cd @ Xh)
