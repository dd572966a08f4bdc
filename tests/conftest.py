import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from statesel.benchgen import (
    Coupling,
    ExtraChannel,
    SubsystemSpec,
    SynthSystemSpec,
    default_coupled_spec,
    simulate_rlc,
    simulate_synth,
)
from statesel.datamodel import (
    ChannelMeta,
    SplitSpec,
    TimeSeriesDataset,
    assemble_snapshots,
    emit,
    ingest,
    split,
)
from statesel.cost import CostBreakdown, RolloutTruth, cost
from statesel.dmdc import (
    PoolReduction,
    TruncationPolicy,
    _deflate,
    c2d_zoh,
    channel_rows,
    fit_dynamics,
    fit_output_map,
)
from statesel.errors import DatasetError, DegenerateSnapshots, DuplicateChannel
from statesel.prefilter import prefilter
from statesel.rfe import importance


def default_decoupled_spec() -> SynthSystemSpec:
    """The coupled spec's two blocks without the coupling, with equal gains
    and the same positive output row.

    Extras are nonlinear (products and squares), so elimination should rank
    the true states above them within each subsystem.
    """
    coupled = default_coupled_spec()
    blocks = tuple(
        replace(
            s,
            C=((1.0, 0.3),),
            output_gain=1.0,
            extras=(
                ExtraChannel(name=f"{s.name}.prod", kind="product", weights=(0, 1)),
                ExtraChannel(name=f"{s.name}.sq", kind="square", weights=(0,)),
            ),
        )
        for s in coupled.subsystems
    )
    return replace(coupled, subsystems=blocks, couplings=())


@pytest.fixture(scope="session", autouse=True)
def parse_cache(tmp_path_factory):
    """Every ``ingest`` of the session, and every command a test starts,
    keeps its parse cache in a temporary directory, not the user's
    ``~/.cache``. Returns the cache's ``statesel/csv-v1`` directory."""
    with pytest.MonkeyPatch.context() as mp:
        base = tmp_path_factory.mktemp("xdg_cache")
        mp.setenv("XDG_CACHE_HOME", str(base))
        yield base / "statesel" / "csv-v1"


@pytest.fixture(scope="session")
def rlc_dataset():
    return simulate_rlc()


@pytest.fixture(scope="session")
def rlc_split(rlc_dataset):
    return split(rlc_dataset, SplitSpec(0.8))


@pytest.fixture(scope="session")
def rlc_kept(rlc_split):
    train, _ = rlc_split
    return prefilter(train).kept


@pytest.fixture(scope="session")
def coupled_dataset():
    return simulate_synth(default_coupled_spec())


@pytest.fixture(scope="session")
def coupled_split(coupled_dataset):
    return split(coupled_dataset, SplitSpec(0.8))


@pytest.fixture(scope="session")
def coupled_kept(coupled_split):
    train, _ = coupled_split
    return prefilter(train).kept


@pytest.fixture(scope="session")
def decoupled_dataset():
    return simulate_synth(default_decoupled_spec())


@pytest.fixture(scope="session")
def decoupled_split(decoupled_dataset):
    return split(decoupled_dataset, SplitSpec(0.8))


@pytest.fixture(scope="session")
def decoupled_kept(decoupled_split):
    train, _ = decoupled_split
    return prefilter(train).kept



@pytest.fixture(scope="session")
def wide_split():
    """A small stand-in for a wide system: three chained blocks with 18
    derived channels each, plus per block two scaled copies of its input, one
    with noise of 0.1 % of the input's spread (input-collinear) and one with
    noise of 100 % (kept by rule 2)."""
    rng = np.random.default_rng(5)
    blocks = []
    for name, gain in (("A", 1e3), ("B", 1.0), ("C", 1e-2)):
        scale = lambda: 10 ** rng.uniform(-1.0, 1.0)
        extras = [
            ExtraChannel(f"{name}.mix{j}", "mixture", tuple(rng.standard_normal(2)), scale())
            for j in range(8)
        ]
        extras += [ExtraChannel(f"{name}.prod{j}", "product", (0, 1), scale()) for j in range(3)]
        extras += [ExtraChannel(f"{name}.sq{j}", "square", (j % 2,), scale()) for j in range(3)]
        extras += [ExtraChannel(f"{name}.noise{j}", "noise", (), scale()) for j in range(4)]
        blocks.append(
            SubsystemSpec(
                name=name,
                A=((-0.35, 0.0), (0.6, -1.2)),
                B=(1.0, 0.0),
                C=((1.0, 0.3),),
                output_gain=gain,
                extras=tuple(extras),
            )
        )
    K = ((0.4, 0.2), (0.0, 0.15))
    spec = SynthSystemSpec(
        subsystems=tuple(blocks),
        couplings=(Coupling("A", "B", K), Coupling("B", "C", K)),
        noise_level=1e-3,
        duration=40.0,
        seed=3,
    )
    ds = simulate_synth(spec)
    manifest, extra_rows = list(ds.manifest), []
    for u in ds.input_indices:
        label = ds.manifest[u].subsystem
        for k, noise in enumerate((1e-3, 1.0)):
            manifest.append(ChannelMeta(f"{label}.ucopy{k}", "candidate", label))
            extra_rows.append((u, noise))
    reals = tuple(
        np.vstack(
            [arr]
            + [2.5 * (arr[u] + noise * arr[u].std() * rng.standard_normal(arr.shape[1]))
               for u, noise in extra_rows]
        )
        for arr in ds.realizations
    )
    return split(TimeSeriesDataset(ds.dt, reals, tuple(manifest)), SplitSpec(0.8))

def correlation(a, b):
    """Pearson correlation of two vectors by the textbook formula; constant
    vectors count as uncorrelated (0). The oracle for the prefilter's and
    cross-influence's correlations from unit rows."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise DatasetError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] < 2:
        raise DatasetError("correlation needs at least 2 samples")
    if a.max() == a.min() or b.max() == b.min():
        return 0.0
    da = a - a.mean()
    db = b - b.mean()
    na = np.sqrt(np.sum(da * da))
    nb = np.sqrt(np.sum(db * db))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(da, db) / (na * nb))


@pytest.fixture(scope="session")
def wide_csv(tmp_path_factory):
    """A wide recording written as CSV files, small enough to read in a
    fraction of a second: 1 input, 1 output and 400 random-walk candidates
    over 2 realizations of 300 steps. Every tenth candidate is a scaled copy
    of the next (duplicates), every fiftieth a noisy copy of the input
    (input-collinear) and every hundredth constant (near-constant), so each
    prefilter rule removes some. Returns the directory; its manifest is
    ``manifest.json``."""
    rng = np.random.default_rng(11)
    n, steps = 400, 300
    manifest = [ChannelMeta("u", "input"), ChannelMeta("y", "output")]
    manifest += [ChannelMeta(f"c{j}", "candidate") for j in range(n)]
    reals = []
    for _ in range(2):
        u = np.cumsum(rng.standard_normal(steps))
        cand = np.cumsum(rng.standard_normal((n, steps)), axis=1)
        cand[::10] = 3.0 * cand[1::10] + 1.0
        cand[5::50] = 2.0 * u + 1e-3 * rng.standard_normal((n // 50, steps))
        cand[7::100] = 4.2
        reals.append(np.vstack([u, u + rng.standard_normal(steps), cand]))
    out = tmp_path_factory.mktemp("wide_csv")
    emit(TimeSeriesDataset(0.1, tuple(reals), tuple(manifest)), out)
    return out


@pytest.fixture(scope="session")
def wide_csv_split(wide_csv):
    return split(ingest(wide_csv, wide_csv / "manifest.json"), SplitSpec(0.8))


def random_stable_discrete(rng, n, m, p, radius=0.9):
    """Random discrete (Ad, Bd, Cd) with spectral radius scaled below 1."""
    Ad = rng.standard_normal((n, n))
    Ad *= radius / max(abs(np.linalg.eigvals(Ad)))
    Bd = rng.standard_normal((n, m))
    Cd = rng.standard_normal((p, n))
    return Ad, Bd, Cd


def simulate_discrete(Ad, Bd, V, x0=None):
    """Plain recurrence used as the independent data generator in tests."""
    n, steps = Ad.shape[0], V.shape[1]
    X = np.empty((n, steps + 1))
    X[:, 0] = np.zeros(n) if x0 is None else x0
    for k in range(steps):
        X[:, k + 1] = Ad @ X[:, k] + Bd @ V[:, k]
    return X


def make_lti_dataset(rng, n_junk=2, steps=800, dt=0.1, n_realizations=2):
    """Small exact-LTI dataset: 2 true states, junk candidates, 1 input, 1 output.

    Junk channels are quadratic in the states, so no subset containing them
    fits exactly. Used by selector tests where speed matters.
    """
    A = np.array([[-0.4, 0.0], [0.5, -1.1]])
    B = np.array([[1.0], [0.0]])
    Ad, Bd = c2d_zoh(A, B, dt)
    manifest = [ChannelMeta("u", "input"), ChannelMeta("y", "output")]
    manifest += [ChannelMeta(f"x{j + 1}", "candidate") for j in range(2)]
    manifest += [ChannelMeta(f"junk{j + 1}", "candidate") for j in range(n_junk)]
    reals = []
    for _ in range(n_realizations):
        V = np.repeat(rng.standard_normal(steps // 8), 8)[None, :steps]
        X = simulate_discrete(Ad, Bd, V)[:, :steps]
        y = X[0] + 0.3 * X[1]
        rows = [V[0], y, X[0], X[1]]
        rows += [X[j % 2] ** 2 + 0.1 * rng.standard_normal(steps) for j in range(n_junk)]
        reals.append(np.vstack(rows))
    return TimeSeriesDataset(dt=dt, realizations=tuple(reals), manifest=tuple(manifest))


def read_csv_oracle(path, manifest):
    """Cell-by-cell ``csv`` + ``float`` reader of one data CSV: the reference
    that ``ingest``'s one-call parse must match bit for bit, diagnostics
    included. Returns ``channels x steps``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dup = next(h for h in header if header.count(h) > 1)
            raise DuplicateChannel(f"{path}: duplicate column {dup!r}")
        wanted = [c.name for c in manifest]
        missing = [n for n in wanted if n not in header]
        if missing:
            raise DatasetError(f"{path}: missing channel(s) {missing}")
        extra = [n for n in header if n not in wanted]
        if extra:
            raise DatasetError(f"{path}: unknown channel(s) {extra}")
        order = [header.index(n) for n in wanted]
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            try:
                vals = [float(row[j]) for j in order]
            except ValueError as exc:
                raise DatasetError(f"{path}: row {lineno}: {exc}") from exc
            for name, v in zip(wanted, vals):
                if not math.isfinite(v):
                    raise DatasetError(f"{path}: row {lineno}: non-finite value in {name!r}")
            rows.append(vals)
    if len(rows) < 2:
        raise DatasetError(f"{path}: needs at least 2 sample rows")
    return np.array(rows, dtype=float).T


def mean_importance_two_fit(evaluator, survivors, factor, rows):
    """RFE elimination score with a dynamics fit run only for its
    ``DegenerateSnapshots``: the reference for ``rfe._mean_importance``. The
    dynamics are fitted from the survivors' own ``L``-column snapshots; the
    output map from ``rows`` of ``factor``, an ``rfe._output_factor``."""
    fit_dynamics(assemble_snapshots(evaluator.train, survivors), evaluator.policy)
    R11, R12 = factor
    Cd = fit_output_map(R11[:, rows].T, R12.T, evaluator.policy)
    return importance(Cd).mean


# A fit from a reduction is within FIT_TOL * eps * (kappa + kappa^2 tan theta)
# (relative, Frobenius) of the direct fit; ``fit_tol`` computes it. Both
# solve the same least-squares problem with a backward stable method, so they
# differ by the problem's own sensitivity (Golub & Van Loan, Matrix
# Computations, Thm 5.3.1): kappa = sigma_1 / sigma_q of the direct fit's
# stack, and tan theta the ratio of the direct fit's residual to its fitted
# part. The kappa term bounds an exact or nearly exact regression; the
# residual term a regression on candidates its target does not depend on,
# where tan theta reaches 1e4 and more. Over 4 000 random cases of each
# oracle test, the largest ratio of the distance to this bound was 0.064
# (test_dmdc) and 3e-4 (test_rfe); to FIT_TOL * eps * kappa alone, 0.085.
# A Gram-matrix fit loses eps * kappa^2 instead: all of its digits at
# kappa = 1e8.
FIT_TOL = 1e4


def fit_tol(stack, target, solution, q):
    """The relative (Frobenius) distance ``FIT_TOL`` allows between a fit
    from a reduction and ``solution``, the direct fit of ``target`` by
    ``solution @ stack`` truncated at rank ``q``. A zero ``solution``
    allows no distance at all."""
    sv = np.linalg.svd(stack, compute_uv=False)
    kappa = sv[0] / sv[q - 1]
    fitted = solution @ stack
    tan_theta = np.linalg.norm(target - fitted) / np.linalg.norm(fitted) if np.any(fitted) else 0.0
    return FIT_TOL * np.finfo(float).eps * (kappa + kappa**2 * tan_theta)


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` returns
    the next of ``values``, starting over after the last."""

    def __init__(self, *values):
        self.values, self.drawn = values, 0

    def draw(self, strategy, label=None):
        self.drawn += 1
        return self.values[(self.drawn - 1) % len(self.values)]


def svd_solve(M, B, max_condition):
    """``B M^+`` through the SVD of ``M`` cut where ``sigma_1 / sigma_q``
    reaches ``max_condition``: ``(solution, q)``."""
    if M.size == 0 or not np.any(M):
        raise DegenerateSnapshots("matrix is identically zero")
    U, s, Wt = np.linalg.svd(M, full_matrices=False)
    q = int(np.sum((s > 0) & (s[0] < max_condition * s)))
    if q == 0:
        raise DegenerateSnapshots("no singular values survive the condition cap")
    return B @ (Wt[:q].T / s[:q]) @ U[:, :q].T, q


def direct_fit(ds, state_idx, policy=None):
    """The fit from the ``L``-column snapshots of ``state_idx``, each map by
    its own truncated SVD: the oracle for the fit from a pool's reduction.
    Returns ``{"dynamics": (Ad, Bd, q), "output": (Cd, q)}``, with the string
    ``"degenerate"`` for a map whose SVD raises ``DegenerateSnapshots``."""
    cap = (policy or TruncationPolicy()).max_condition
    s = assemble_snapshots(ds, state_idx)
    n = len(state_idx)
    out = {}
    try:
        AB, q = svd_solve(np.vstack([s.X, s.V]), s.Xp, cap)
        out["dynamics"] = (AB[:, :n], AB[:, n:], q)
    except DegenerateSnapshots:
        out["dynamics"] = "degenerate"
    try:
        out["output"] = svd_solve(s.X, s.Y, cap)
    except DegenerateSnapshots:
        out["output"] = "degenerate"
    return out


def per_realization_cost(model, ds, state_idx, scales):
    """The cost from the per-step loop ``simulate_discrete``, run once per
    realization with its true initial state and recorded inputs, the
    trajectories concatenated: the oracle for ``rollout_cost``'s one rollout
    of every realization."""
    state_idx = list(state_idx)
    parts = []
    for arr in ds.realizations:
        V = arr[list(ds.input_indices), :-1]
        X = simulate_discrete(model.Ad, model.Bd, V, arr[state_idx, 0])[:, 1:]
        parts.append((X, model.Cd @ X, arr[state_idx, 1:], arr[list(ds.output_indices), 1:]))
    return cost(*(np.hstack([p[k] for p in parts]) for k in range(4)), scales)


def snapshots_per_realization(ds, state_idx):
    """``(X, Xp, V, Y)`` built one realization at a time and stacked: the
    oracle for ``assemble_snapshots``."""
    idx, ins, outs = list(state_idx), list(ds.input_indices), list(ds.output_indices)
    parts = [(a[idx, :-1], a[idx, 1:], a[ins, :-1], a[outs, :-1]) for a in ds.realizations]
    return tuple(np.hstack([p[k] for p in parts]) for k in range(4))


def rollout_truth_per_realization(ds, state_idx):
    """``(x0, V, Xp, Yp, starts)`` built one realization at a time and
    stacked: the oracle for ``RolloutTruth.of``."""
    idx, ins, outs = list(state_idx), list(ds.input_indices), list(ds.output_indices)
    reals = ds.realizations
    lengths = [a.shape[1] - 1 for a in reals]
    return (
        np.column_stack([a[idx, 0] for a in reals]),
        np.hstack([a[ins, :-1] for a in reals]),
        np.hstack([a[idx, 1:] for a in reals]),
        np.hstack([a[outs, 1:] for a in reals]),
        tuple(np.cumsum([0] + lengths[:-1]).tolist()),
    )


def pooled_std_per_realization(ds):
    """Every channel's population standard deviation over each realization
    copied C-ordered and stacked: the oracle for ``pooled_std``. A row
    reduction over an F-ordered stack sums in another order and rounds
    differently once a row holds more than a few columns."""
    return np.hstack([np.ascontiguousarray(a) for a in ds.realizations]).std(axis=1)


def scan_alone(T, Q, Bd, Cd, x0, V, starts):
    """One model's rollout by the doubling scan in its Schur basis, with
    no stack axis: the oracle for ``dmdc.rollout_stack``, which must give
    each model of a stack exactly these columns."""
    bounds = [int(a) for a in starts] + [V.shape[1]]
    spans = list(zip(bounds, bounds[1:]))
    BV = (Q.T @ Bd) @ V
    Z = np.zeros((len(spans), len(T), max(b - a for a, b in spans)))
    for r, (a, b) in enumerate(spans):
        Z[r, :, : b - a] = BV[:, a:b]
    Z[:, :, :1] += (T @ (Q.T @ x0)).T[:, :, None]
    P, s = T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < Z.shape[2]:
            Z[:, :, s:] += P @ Z[:, :, :-s]
            P, s = P @ P, 2 * s
        Xh = Q @ np.concatenate([Z[r, :, : b - a] for r, (a, b) in enumerate(spans)], axis=1)
        return Xh, Cd @ Xh


def chain_breakdown(evaluator, subset, pool=None):
    """The training cost of one subset by the per-subset chain, each step
    on its own: ``fit_dynamics`` and ``fit_output_map`` on the snapshots of
    ``pool``'s reduction (or of the subset's own), ``_deflate``'s Schur
    factors, ``scan_alone`` and the cost's formula; None if the fit is
    degenerate or the rollout diverges. The oracle for the evaluator's
    stacks, which must match it bit for bit."""
    key = sorted(subset)
    record = evaluator.searched_pool(pool)
    snaps = (record.reduction or PoolReduction.of(evaluator.train, key)).snapshots(key)
    try:
        Ad, Bd = fit_dynamics(snaps, evaluator.policy)
        Cd = fit_output_map(snaps.X, snaps.Y, evaluator.policy)
    except DegenerateSnapshots:
        return None
    truth = record.truth or RolloutTruth.of(evaluator.train, key)
    rows = channel_rows(truth.channels, key)
    Xh, Yh = scan_alone(*_deflate(Ad), Bd, Cd, truth.x0[rows], truth.V, truth.starts)
    scales = evaluator.scales_for(key)
    with np.errstate(over="ignore", invalid="ignore"):
        ex = (Xh - truth.Xp[rows]) / scales.sigma_x[:, None]
        ey = (Yh - truth.Yp) / scales.sigma_y[:, None]
        j_state = float(np.sum(ex * ex) / ex.size)
        j_output = float(np.sum(ey * ey) / ey.size)
    if not math.isfinite(j_state + j_output):
        return None
    return CostBreakdown(j_state + j_output, j_state, j_output, len(key), len(Yh), Yh.shape[1])
