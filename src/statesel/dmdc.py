"""Discrete-time state-space identification by truncated-SVD regression.

Given snapshot matrices ``X``, ``Xp``, ``V`` the one-step operator
``[Ad, Bd]`` is the least-squares solution of ``Xp ~ Ad X + Bd V`` computed
through the pseudoinverse of the stacked matrix ``[X; V]``. The pseudoinverse
is formed from a truncated SVD whose rank is capped by the condition number of
the retained singular values. The output map ``Cd`` is the minimum-norm
least-squares solution of ``Y ~ Cd X`` through the truncated pseudoinverse of
``X``. Direct input-to-output feedthrough is fixed to zero. Open-loop rollout
over ``K`` steps is a prefix scan in the Schur basis of ``Ad``: about
``2 log2 K`` small matrix products, no step loop. A model's real Schur
factorization is computed by its first rollout and reused by the rest.

``scipy.linalg`` is imported by the code that needs it (the Schur
factorization and ``c2d_zoh``), so commands that neither roll out nor
discretize do not load scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .datamodel import SnapshotSet, TimeSeriesDataset, assemble_snapshots
from .errors import DatasetError, DegenerateSnapshots


@dataclass(frozen=True)
class TruncationPolicy:
    """Keeps the leading singular triplets whose condition number stays below the cap."""

    max_condition: float = 1e9

    def __post_init__(self):
        if not self.max_condition > 1:
            raise ValueError(f"max_condition must exceed 1, got {self.max_condition}")


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete-time model ``x(k+1) = Ad x(k) + Bd v(k)``, ``y(k) = Cd x(k)``.

    Feedthrough is identically zero. Channel names bind the matrix rows and
    columns to dataset channels.
    """

    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    dt: float

    def __post_init__(self):
        Ad = np.asarray(self.Ad, dtype=float)
        Bd = np.asarray(self.Bd, dtype=float)
        Cd = np.asarray(self.Cd, dtype=float)
        n = Ad.shape[0]
        if Ad.shape != (n, n):
            raise ValueError(f"Ad must be square, got {Ad.shape}")
        if Bd.shape[0] != n or Cd.shape[1] != n:
            raise ValueError("Ad, Bd, Cd dimensions are inconsistent")
        if len(self.state_names) != n:
            raise ValueError("state_names length must match Ad")
        if len(self.input_names) != Bd.shape[1]:
            raise ValueError("input_names length must match Bd columns")
        if len(self.output_names) != Cd.shape[0]:
            raise ValueError("output_names length must match Cd rows")
        for name, M in (("Ad", Ad), ("Bd", Bd), ("Cd", Cd)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, M)

    @property
    def n_states(self) -> int:
        return self.Ad.shape[0]

    @property
    def Dd(self) -> np.ndarray:
        return np.zeros((self.Cd.shape[0], self.Bd.shape[1]))

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Schur factors ``(T, Q)`` of ``Ad``, computed once per model."""
        import scipy.linalg

        return scipy.linalg.schur(self.Ad)


def truncated_svd(M: np.ndarray, policy: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """SVD of ``M`` restricted to the first ``q`` triplets.

    ``q`` is the largest rank such that ``sigma_1 / sigma_q`` stays strictly
    below the policy cap and ``sigma_q > 0``. Equal singular values at the
    truncation edge are kept or dropped together, so the result does not
    depend on the ordering of tied triplets.

    Returns ``(U, s, W, q)`` with ``M ~ U @ diag(s) @ W.T``.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0 or not np.any(M):
        raise DegenerateSnapshots("matrix is identically zero")
    U, s, Wt = np.linalg.svd(M, full_matrices=False)
    q = int(np.sum((s > 0) & (s[0] < policy.max_condition * s)))
    if q == 0:
        raise DegenerateSnapshots("no singular values survive the condition cap")
    return U[:, :q], s[:q], Wt[:q].T, q


def fit_dynamics(s: SnapshotSet, policy: TruncationPolicy | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares one-step operator split into state and input maps.

    Solves ``Xp ~ [Ad, Bd] @ [X; V]`` through the truncated pseudoinverse of
    the stacked snapshot matrix and splits the result at the state count.
    """
    policy = policy or TruncationPolicy()
    n = s.X.shape[0]
    omega = np.vstack([s.X, s.V])
    U, sv, W, _ = truncated_svd(omega, policy)
    P = s.Xp @ (W / sv)
    Ad = P @ U[:n].T
    Bd = P @ U[n:].T
    return Ad, Bd


def fit_output_map(X: np.ndarray, Y: np.ndarray, policy: TruncationPolicy | None = None) -> np.ndarray:
    """Minimum-Frobenius-norm solution of ``Y ~ Cd X`` via the truncated pseudoinverse."""
    policy = policy or TruncationPolicy()
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[1] != Y.shape[1]:
        raise DatasetError(f"X has {X.shape[1]} columns but Y has {Y.shape[1]}")
    U, sv, W, _ = truncated_svd(X, policy)
    return Y @ (W / sv) @ U.T


def fit_model(
    ds: TimeSeriesDataset,
    state_idx: list[int] | tuple[int, ...],
    policy: TruncationPolicy | None = None,
) -> StateSpaceModel:
    """Assemble snapshots for the chosen states and fit the full model."""
    snaps = assemble_snapshots(ds, state_idx)
    Ad, Bd = fit_dynamics(snaps, policy)
    Cd = fit_output_map(snaps.X, snaps.Y, policy)
    names = ds.names
    return StateSpaceModel(
        Ad=Ad,
        Bd=Bd,
        Cd=Cd,
        state_names=tuple(names[i] for i in state_idx),
        input_names=tuple(names[i] for i in ds.input_indices),
        output_names=tuple(names[i] for i in ds.output_indices),
        dt=ds.dt,
    )


def rollout(model: StateSpaceModel, x0: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop prediction over ``K = V.shape[1]`` steps.

    The recursion starts from ``x(0) = x0`` and uses the input column ``k``
    to advance from step ``k`` to ``k + 1``. Returned trajectories cover
    steps ``1..K``; the initial condition itself is not included.

    With ``Ad = Q T Q'`` (real Schur), column ``k`` of ``Z`` starts as
    ``Q' Bd v(k)`` (plus ``T Q' x0`` at ``k = 0``); for ``s = 1, 2, 4, ... < K``
    it adds ``T^s`` times column ``k - s``, and ``Xh = Q Z``. The factors
    are the model's, so rolling one model out over several realizations
    factors ``Ad`` once. Squaring the
    triangular ``T``, not ``Ad``, keeps a non-normal ``Ad`` accurate. Once
    ``T^s`` overflows the model has diverged: every state is NaN or inf from
    column ``s`` on, even if a mode no input reaches keeps the loop finite.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    V = np.asarray(V, dtype=float)
    if x0.shape[0] != model.n_states:
        raise ValueError(f"x0 has length {x0.shape[0]}, model has {model.n_states} states")
    if V.ndim != 2 or V.shape[0] != model.Bd.shape[1]:
        raise ValueError(f"V must be {model.Bd.shape[1]} x K, got {V.shape}")
    T, Q = model._schur
    Z = (Q.T @ model.Bd) @ V
    Z[:, :1] += T @ (Q.T @ x0)[:, None]
    P, s = T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < Z.shape[1]:
            Z[:, s:] += P @ Z[:, :-s]
            P, s = P @ P, 2 * s
        Xh = Q @ Z
        Yh = model.Cd @ Xh
    return Xh, Yh


def c2d_zoh(A: np.ndarray, B: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of continuous ``(A, B)``.

    Computed from the matrix exponential of the augmented block
    ``[[A, B], [0, 0]] * dt``, which yields ``Ad = exp(A dt)`` and
    ``Bd = (integral of exp(A tau) d tau) B`` in one call. Used as the
    verification oracle for the identification path.
    """
    import scipy.linalg

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n, m = A.shape[0], B.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = A
    block[:n, n:] = B
    E = scipy.linalg.expm(block * dt)
    return E[:n, :n], E[:n, n:]


def save_model(model: StateSpaceModel, path: str | Path) -> None:
    """Write the model as a JSON document with row-major matrices."""
    doc = {
        "dt": model.dt,
        "state_names": list(model.state_names),
        "input_names": list(model.input_names),
        "output_names": list(model.output_names),
        "Ad": model.Ad.tolist(),
        "Bd": model.Bd.tolist(),
        "Cd": model.Cd.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> StateSpaceModel:
    doc = json.loads(Path(path).read_text())
    names = {k: tuple(doc[k]) for k in ("state_names", "input_names", "output_names")}
    return StateSpaceModel(Ad=doc["Ad"], Bd=doc["Bd"], Cd=doc["Cd"], dt=float(doc["dt"]), **names)
