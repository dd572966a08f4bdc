"""Discrete-time state-space identification by truncated-SVD regression.

Given snapshot matrices ``X``, ``Xp``, ``V`` the one-step operator
``[Ad, Bd]`` is the least-squares solution of ``Xp ~ Ad X + Bd V`` computed
through the pseudoinverse of the stacked matrix ``[X; V]``. The pseudoinverse
is formed from a truncated SVD whose rank is capped by the condition number of
the retained singular values. The output map ``Cd`` is the minimum-norm
least-squares solution of ``Y ~ Cd X`` through the truncated pseudoinverse of
``X``. Direct input-to-output feedthrough is fixed to zero.

Every model is fitted from a ``PoolReduction``: one Householder QR of a
pool's stacked snapshots, ``Q`` never formed, whose triangular factor holds,
for every subset of the pool, a snapshot set of ``min(L, pool + inputs)``
columns with the singular values and least-squares solutions of the
``L``-column one. A fit then costs the same whatever ``L`` is, and no Gram
matrix is formed. ``fit_model`` fits a subset from the reduction of a pool
that holds it, by default the subset itself. The same subset fitted from two
pools agrees to round-off, not bit for bit. The QR takes the stack
``QR_COLUMNS`` columns at a time, so it makes no copy of the whole stack.

Open-loop rollout of every realization is one call: a prefix scan in the
Schur basis of ``Ad`` over all realizations side by side, about
``2 log2 K`` small batched matrix products and no step loop. A model's real
Schur factorization is computed by its first rollout and reused by the rest;
it is built with numpy alone, by orthogonal deflation from the eigenvectors
of ``Ad``.

Only ``c2d_zoh`` needs scipy (``scipy.linalg.expm``) and imports it itself,
so fitting and rolling out load no scipy module; only the generators do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .datamodel import SnapshotSet, TimeSeriesDataset, assemble_snapshots, read_json, write_json
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
        if Ad.ndim != 2 or Ad.shape[0] != Ad.shape[1]:
            raise ValueError(f"Ad must be square, got {Ad.shape}")
        n = Ad.shape[0]
        if Bd.ndim != 2 or Cd.ndim != 2 or Bd.shape[0] != n or Cd.shape[1] != n:
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

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Real Schur factors ``(T, Q)`` of ``Ad``, computed once per model:
        ``Ad = Q T Q'``, ``Q`` orthogonal, ``T`` upper quasi-triangular.

        Orthogonal deflation (Golub & Van Loan, 7.4), with numpy alone. The
        eigenvectors of a diagonal block of ``T`` (``Ad`` at first), in
        LAPACK's order, make a basis whose leading columns span invariant
        subspaces: ``Re v`` for a real eigenvalue, ``Re v`` and ``Im v`` for a
        complex pair. QR turns it into an orthogonal ``H``, applied to ``T``
        and ``Q``. If every entry below the 1 x 1 and pair blocks is then at
        most ``4 n eps max|Ad|``, they are set to 0: one ``eig`` and one QR
        for most models. Otherwise, near a defective eigenvalue, only the
        first eigenvector's block is deflated and the rest is factored again,
        as is a 2 x 2 block whose eigenvalues are real. The 2 x 2 blocks are
        not put into LAPACK's standardized form, which the rollout's scan
        does not need.
        """
        n = self.n_states
        T, Q, todo = self.Ad.copy(), np.eye(n), [(0, n)]
        tol = 4 * n * np.finfo(float).eps * np.abs(T).max(initial=0.0)
        while todo:
            k, e = todo.pop()
            if e - k == 2:
                a, b, c, d = T[k:e, k:e].ravel().tolist()
                s = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
                if ((a - d) / s) ** 2 + 4 * (b / s) * (c / s) < -1e-12:
                    continue  # a complex pair
            elif e - k < 2:
                continue
            # LAPACK returns the eigenvalues in the order of its own Schur form
            # of the balanced block, so the first j eigenvectors span invariant
            # subspaces, and the first is that form's first Schur vector
            w, v = np.linalg.eig(T[k:e, k:e])
            if e - k == 2 and w[0].imag:
                continue  # a complex pair
            H = np.linalg.qr(np.where(w.imag < 0, v.imag, v.real))[0]
            T[k:e, k:] = H.T @ T[k:e, k:]
            T[:e, k:e] = T[:e, k:e] @ H
            Q[:, k:e] = Q[:, k:e] @ H
            i, W = np.arange(e - k), T[k:e, k:e]
            below = i[:, None] > i + (w.imag > 0)  # below the 1 x 1 and pair blocks
            if np.abs(W[below]).max() <= tol:  # every eigenvector deflates
                W[below] = 0.0
                todo += [(k + j, k + j + 2) for j in np.flatnonzero(w.imag > 0).tolist()]
            else:  # the first one always does
                f = k + 1 + int(w[0].imag > 0)
                T[f:e, k:f] = 0.0
                todo += [(k, f), (f, e)]
        return T, Q


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


# Columns of a stack factored per QR call. One call on the whole stack makes
# two L-column copies of it (the stacked blocks and LAPACK's working copy):
# with L = 7197 it raised the peak RSS of a 2-worker select of 8 coupled-block
# channels from 64.2-64.3 MB to 65.0-65.3 MB.
QR_COLUMNS = 1024


def triangular_factor(blocks: Sequence[np.ndarray], k: int) -> np.ndarray:
    """The first ``k`` rows of ``R`` in the Householder QR ``M^T = Q R`` of the
    row blocks ``M = [blocks]``, each with ``L`` columns; ``Q`` is not formed.

    ``QR_COLUMNS`` columns of ``M`` at a time are factored together with the
    ``R`` so far, so the QR makes no ``L``-column copy of ``M``. A zero column
    of ``M`` stays exactly zero in ``R``.
    """
    L = blocks[0].shape[1]
    R = np.zeros((0, sum(len(b) for b in blocks)))
    for a in range(0, L, QR_COLUMNS):
        chunk = np.vstack([b[:, a : a + QR_COLUMNS] for b in blocks]).T
        R = np.linalg.qr(np.vstack([R, chunk]), mode="r")
    return R[:k]


def channel_rows(channels: Sequence[int], state_idx: Sequence[int]) -> list[int]:
    """Position of each of the channels ``state_idx`` in ``channels``."""
    row = {c: r for r, c in enumerate(channels)}
    missing = [i for i in state_idx if i not in row]
    if missing:
        raise DatasetError(f"channel(s) {missing} are not in the pool {list(channels)}")
    return [row[i] for i in state_idx]


@dataclass(frozen=True)
class PoolReduction:
    """The triangular factor every subset of a pool of channels is fitted from.

    For the pool's ``c`` states, ``m`` inputs and ``p`` outputs over ``L``
    snapshot pairs, the Householder QR of the ``L x (2c + m + p)`` matrix
    ``[X; V; Xp; Y]^T`` has, on its first ``k = min(L, c + m)`` rows, ``R11``
    with ``[X; V]^T = Q1 R11`` and ``R12 = Q1^T [Xp; Y]^T``. Any subset ``S``
    of the pool has ``[X_S; V]^T = Q1 R11[:, S + inputs]``, so the
    ``k``-column snapshot set ``R11[:, S]^T``, ``R12[:, S]^T``,
    ``R11[:, inputs]^T``, ``R12[:, outputs]^T`` has the singular values and
    least-squares solutions of the ``L``-column one: the same truncation
    rank, the same ``DegenerateSnapshots`` cases, and matrices equal to
    round-off.
    """

    channels: tuple[int, ...]
    n_inputs: int
    R: np.ndarray

    @classmethod
    def of(cls, ds: TimeSeriesDataset, pool: Sequence[int]) -> "PoolReduction":
        s = assemble_snapshots(ds, pool)
        R = triangular_factor([s.X, s.V, s.Xp, s.Y], len(s.X) + len(s.V))
        return cls(tuple(pool), len(s.V), R)

    def snapshots(self, state_idx: Sequence[int]) -> SnapshotSet:
        """The ``k``-column snapshot set of the pool channels ``state_idx``."""
        c, m, R = len(self.channels), self.n_inputs, self.R
        rows = channel_rows(self.channels, state_idx)
        return SnapshotSet(
            X=R[:, rows].T,
            Xp=R[:, [c + m + r for r in rows]].T,
            V=R[:, c : c + m].T,
            Y=R[:, 2 * c + m :].T,
        )


def fit_model(
    ds: TimeSeriesDataset,
    state_idx: Sequence[int],
    policy: TruncationPolicy | None = None,
    reduction: PoolReduction | None = None,
) -> StateSpaceModel:
    """Fit the full model of the chosen states from the reduction of a pool
    that holds them; by default the pool is ``state_idx`` itself."""
    state_idx = list(state_idx)
    reduction = reduction or PoolReduction.of(ds, state_idx)
    snaps = reduction.snapshots(state_idx)
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


def rollout(
    model: StateSpaceModel, x0: np.ndarray, V: np.ndarray, starts: Sequence[int] = (0,)
) -> tuple[np.ndarray, np.ndarray]:
    """Open-loop prediction over ``K = V.shape[1]`` steps, in segments.

    Segment ``r`` runs from column ``starts[r]`` to the next start (or ``K``);
    its recursion starts from ``x(0) = x0[:, r]`` (``x0`` may be a vector for
    one segment) and uses the input column ``k`` to advance from step ``k``
    to ``k + 1``. Returned trajectories cover steps ``1..l`` of each segment;
    the initial conditions are not included. Rolling several realizations out
    in one call gives each the columns it would get on its own to round-off
    only: the batched products run on arrays of another shape, so about one
    cell in a hundred can differ, by a few parts in 1e15.

    With ``Ad = Q T Q'`` (real Schur), the segments are laid side by side in
    a ``segments x n x longest`` array ``Z``, zero past each segment's end;
    column ``k`` of a segment starts as ``Q' Bd v(k)`` (plus ``T Q' x0`` at
    ``k = 0``); for ``s = 1, 2, 4, ...`` below the longest segment every
    segment adds ``T^s`` times its column ``k - s``, in one batched product,
    and ``Xh = Q Z``. Padding only ever feeds later padding. The factors are
    the model's, so ``Ad`` is factored once per model. Squaring the
    triangular ``T``, not ``Ad``, keeps a non-normal ``Ad`` accurate. Once
    ``T^s`` overflows the model has diverged: every state of a segment is NaN
    or inf from its column ``s`` on, even if a mode no input reaches keeps the
    loop finite; a segment of ``s`` steps or fewer is not touched.
    """
    x0 = np.asarray(x0, dtype=float)
    x0 = x0[:, None] if x0.ndim == 1 else x0
    V = np.asarray(V, dtype=float)
    if x0.ndim != 2 or x0.shape[0] != model.n_states:
        raise ValueError(f"x0 has {x0.shape[0]} rows, model has {model.n_states} states")
    if V.ndim != 2 or V.shape[0] != model.Bd.shape[1]:
        raise ValueError(f"V must be {model.Bd.shape[1]} x K, got {V.shape}")
    K = V.shape[1]
    bounds = [int(a) for a in starts] + [K]
    spans = list(zip(bounds, bounds[1:]))
    if x0.shape[1] != len(spans) or K and (bounds[0] != 0 or any(a >= b for a, b in spans)):
        raise ValueError(f"starts {bounds[:-1]} must rise from 0 below {K}, one per x0 column")
    T, Q = model._schur
    BV = (Q.T @ model.Bd) @ V
    Z = np.zeros((len(spans), model.n_states, max(b - a for a, b in spans)))
    for r, (a, b) in enumerate(spans):
        Z[r, :, : b - a] = BV[:, a:b]
    Z[:, :, :1] += (T @ (Q.T @ x0)).T[:, :, None]  # empty when K = 0
    P, s = T, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < Z.shape[2]:
            Z[:, :, s:] += P @ Z[:, :, :-s]
            P, s = P @ P, 2 * s
        Xh = Q @ np.concatenate([Z[r, :, : b - a] for r, (a, b) in enumerate(spans)], axis=1)
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
    write_json(path, doc)


def load_model(path: str | Path) -> StateSpaceModel:
    """The model ``save_model`` wrote to ``path``; a malformed document is named."""
    doc = read_json(path)
    try:
        names = {k: doc[k] for k in ("state_names", "input_names", "output_names")}
        if not all(isinstance(v, list) and all(isinstance(n, str) for n in v) for v in names.values()):
            raise ValueError("channel names must be lists of strings")
        names = {k: tuple(v) for k, v in names.items()}
        return StateSpaceModel(Ad=doc["Ad"], Bd=doc["Bd"], Cd=doc["Cd"], dt=float(doc["dt"]), **names)
    except KeyError as exc:
        raise DatasetError(f"malformed model {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"malformed model {path}: {exc}") from exc
