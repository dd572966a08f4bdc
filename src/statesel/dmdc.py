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
matrix is formed. The same subset fitted from two pools agrees to round-off,
not bit for bit. The QR gathers the stack ``QR_COLUMNS`` columns at a time
straight from the recording, so it makes no copy of the whole stack.

Subsets are fitted, factored and rolled out in stacks of one size:
``fit_stack`` fits a stack from one pool's factor, or from each subset's
own (``pool_factor`` of a stack, one stacked QR), with one stacked SVD of
``[X; V]`` and one of ``X``; ``real_schur`` factors the stack's ``Ad``;
``rollout_stack`` rolls every realization of every model out in one prefix
scan in the Schur basis, about ``2 log2 K`` batched matrix products and no
step loop. Every product runs per model on operands of the shape and
strides it has alone, so each model of a stack is bit for bit what it is
alone. ``fit_model`` and ``rollout`` are the stacks of one.
The Schur factors are built with numpy alone, by orthogonal deflation from
the eigenvectors of ``Ad``.

Only ``c2d_zoh`` needs scipy (``scipy.linalg.expm``) and imports it itself,
so fitting and rolling out load no scipy module; only the generators do.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datamodel import SnapshotSet, TimeSeriesDataset, check_states, read_json, write_json
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


# A 2 x 2 diagonal block is a complex pair when its discriminant over its
# largest entry squared is below _PAIR_EDGE. The stacked step reads that in
# numpy, whose square may round apart from Python's ``** 2`` by about 1e-15,
# so it leaves a block within _PAIR_GUARD of the edge to _deflate.
_PAIR_EDGE = -1e-12
_PAIR_GUARD = 1e-14


def _pair_discriminant(a, b, c, d):
    """``((a - d)^2 + 4 b c) / s^2`` of the blocks ``[[a, b], [c, d]]``, with
    ``s`` their largest absolute entry, or 1 for a zero block."""
    s = np.maximum.reduce([np.abs(a), np.abs(b), np.abs(c), np.abs(d)])
    s = np.where(s == 0, 1.0, s)
    return ((a - d) / s) ** 2 + 4 * (b / s) * (c / s)


def _deflate(Ad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur factors ``(T, Q)`` of one ``Ad`` by orthogonal deflation
    (Golub & Van Loan, 7.4), with numpy alone. The eigenvectors of a diagonal
    block of ``T`` (``Ad`` at first), in LAPACK's order, make a basis whose
    leading columns span invariant subspaces: ``Re v`` for a real eigenvalue,
    ``Re v`` and ``Im v`` for a complex pair. QR turns it into an orthogonal
    ``H``, applied to ``T`` and ``Q``. If every entry below the 1 x 1 and pair
    blocks is then at most ``4 n eps max|Ad|``, they are set to 0: one ``eig``
    and one QR for most models. Otherwise, near a defective eigenvalue, only
    the first eigenvector's block is deflated and the rest is factored again,
    as is a 2 x 2 block whose eigenvalues are real. The 2 x 2 blocks are not
    put into LAPACK's standardized form, which the rollout's scan does not
    need.
    """
    n = len(Ad)
    T, Q, todo = Ad.copy(), np.eye(n), [(0, n)]
    tol = 4 * n * np.finfo(float).eps * np.abs(T).max(initial=0.0)
    while todo:
        k, e = todo.pop()
        if e - k == 2:
            a, b, c, d = T[k:e, k:e].ravel().tolist()
            s = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
            if ((a - d) / s) ** 2 + 4 * (b / s) * (c / s) < _PAIR_EDGE:
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


def real_schur(Ad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur factors ``(T, Q)`` of each matrix of an ``N x n x n`` stack:
    ``Ad[i] = Q[i] T[i] Q[i]'``, ``Q[i]`` orthogonal, ``T[i]`` upper
    quasi-triangular; each is bit for bit what ``_deflate`` gives alone.

    ``_deflate``'s first step, on the whole of ``Ad``, is taken for the stack
    at once: one ``eig``, one QR and the products ``H' Ad H`` and ``I H``,
    each stacked. A matrix is finished there when that step deflates every
    eigenvector and leaves each pair block clearly complex, as it does for
    most; any other is factored again alone by ``_deflate``.
    """
    N, n = Ad.shape[:2]
    T, Q = Ad.copy(), np.tile(np.eye(n), (N, 1, 1))
    if n < 2:
        return T, Q
    tol = 4 * n * np.finfo(float).eps * np.abs(Ad).max(axis=(1, 2))
    alone, i = np.zeros(N, dtype=bool), np.arange(N)
    if n == 2:  # _deflate first asks whether Ad is a complex pair
        disc = _pair_discriminant(Ad[:, 0, 0], Ad[:, 0, 1], Ad[:, 1, 0], Ad[:, 1, 1])
        alone = np.abs(disc - _PAIR_EDGE) < _PAIR_GUARD
        i = np.flatnonzero(disc >= _PAIR_EDGE + _PAIR_GUARD)
    w, v = np.linalg.eig(Ad[i])
    if n == 2:  # which eig may still find
        real = w[:, 0].imag == 0
        i, w, v = i[real], w[real], v[real]
    H = np.linalg.qr(np.where(w.imag[:, None, :] < 0, v.imag, v.real))[0]
    Ti = np.swapaxes(H, 1, 2) @ Ad[i] @ H
    Q[i] = np.eye(n) @ H
    pairs = w.imag > 0
    below = np.arange(n)[:, None] > np.arange(n) + pairs[:, None, :]
    done = np.where(below, np.abs(Ti), 0.0).max(axis=(1, 2)) <= tol[i]
    Ti[below] = 0.0
    m, j = np.nonzero(pairs)
    disc = _pair_discriminant(Ti[m, j, j], Ti[m, j, j + 1], Ti[m, j + 1, j], Ti[m, j + 1, j + 1])
    done[m[disc >= _PAIR_EDGE - _PAIR_GUARD]] = False
    T[i] = Ti
    alone[i[~done]] = True
    for k in np.flatnonzero(alone).tolist():
        T[k], Q[k] = _deflate(Ad[k])
    return T, Q


def _truncation_rank(s: np.ndarray, policy: TruncationPolicy) -> np.ndarray:
    """``truncated_svd``'s ``q`` for each row of singular values ``s``."""
    return np.sum((s > 0) & (s[..., :1] < policy.max_condition * s), axis=-1)


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
    q = int(_truncation_rank(s, policy))
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


def triangular_factor(
    ds: TimeSeriesDataset, rows: np.ndarray, k: int, step: int | np.ndarray = 0
) -> np.ndarray:
    """The first ``k`` rows of ``R`` in the Householder QR ``M^T = Q R`` of
    the snapshot rows ``M[i] = data[rows[i], pairs + step[i]]`` of ``ds``
    (``step`` 0 or 1 per row); ``Q`` is not formed. For a stack of rows
    ``(N, r)``, each row set is factored alone, in one stacked QR.

    ``QR_COLUMNS`` columns of ``M`` at a time are gathered straight from the
    recording and factored together with the ``R`` so far, so the QR makes
    no ``L``-column copy of ``M``. A zero column of ``M`` stays exactly zero
    in ``R``.
    """
    rows = np.asarray(rows)
    windows = np.lib.stride_tricks.sliding_window_view(ds.data, 2, axis=1)  # [c, t, s] = data[c, t + s]
    R = np.zeros(rows.shape[:-1] + (0, rows.shape[-1]))
    for a in range(0, len(ds.pairs), QR_COLUMNS):
        chunk = windows[rows[..., None, :], ds.pairs[a : a + QR_COLUMNS, None], step]
        R = np.linalg.qr(np.concatenate([R, chunk], axis=-2) if R.shape[-2] else chunk, mode="r")
    return R[..., :k, :]


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
        pool = check_states(ds, pool)
        return cls(tuple(pool), len(ds.input_indices), pool_factor(ds, np.array(pool)))


def pool_factor(ds: TimeSeriesDataset, pools: np.ndarray) -> np.ndarray:
    """``PoolReduction.R`` of the pool ``pools`` (``c`` channels), or of each
    pool of a stack ``(N, c)``, in one stacked QR."""
    c, ins, outs = pools.shape[-1], ds.input_indices, ds.output_indices
    each = lambda channels: np.broadcast_to(channels, pools.shape[:-1] + (len(channels),))
    rows = [pools, each(ins), pools, each(outs)]
    step = np.repeat([0, 0, 1, 0], [c, len(ins), c, len(outs)])
    return triangular_factor(ds, np.concatenate(rows, axis=-1), c + len(ins), step)


def fit_stack(
    R: np.ndarray, c: int, m: int, rows: np.ndarray | None, policy: TruncationPolicy | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The models of a stack of subsets of ``n`` states, fitted as
    ``fit_dynamics`` and ``fit_output_map`` fit each alone, bit for bit.

    The snapshots are slices of a factor ``R`` laid out as
    ``PoolReduction.R``: of one pool's ``R`` (``k x (2c + m + p)``) for the
    pool rows ``rows`` (``N x n``), or, with ``rows`` None, of each subset's
    own ``R[i]`` (``N x k x (2n + m + p)``) for all its ``c = n`` states.
    For state rows ``j`` they are ``X = R[:, j]^T``, ``Xp = R[:, c + m +
    j]^T``, ``V = R[:, c : c + m]^T`` and ``Y = R[:, 2c + m :]^T``. Returns
    ``(Ad, Bd, Cd, fitted)``; a subset not ``fitted`` is degenerate (its
    ``[X; V]`` or ``X`` truncates to rank 0) and its matrices are zero.

    The two SVDs are stacked. The products are taken per group of equal
    truncation rank, so each has the shape it has alone, on operands with
    the strides they have alone: BLAS rounds differently for other shapes,
    leading dimensions or transpositions.
    """
    policy = policy or TruncationPolicy()
    cols = np.arange(c) if rows is None else rows
    pick = (lambda j: np.swapaxes(R[..., j], 1, 2)) if rows is None else (lambda j: R.T[j])
    X, Xp = (np.ascontiguousarray(pick(j)) for j in (cols, c + m + cols))
    N, n, k = X.shape
    V = np.swapaxes(R[..., c : c + m], -1, -2)
    omega = np.concatenate([X, np.broadcast_to(V, (N, m, k))], axis=1)
    U, s, Wt = np.linalg.svd(omega, full_matrices=False)
    Ux, sx, Wtx = np.linalg.svd(X, full_matrices=False)
    q, qx = _truncation_rank(s, policy), _truncation_rank(sx, policy)
    fitted = (q > 0) & (qx > 0) & omega.any(axis=(1, 2)) & X.any(axis=(1, 2))
    y = slice(2 * c + m, None)
    Ad, Bd, Cd = np.zeros((N, n, n)), np.zeros((N, n, m)), np.zeros((N, R.shape[-1] - y.start, n))
    for r in sorted(set(q[fitted].tolist())):
        g = np.flatnonzero(fitted & (q == r))
        P = Xp[g] @ (np.swapaxes(Wt[g][:, :r], 1, 2) / s[g, None, :r])
        Ug = U[g][:, :, :r]
        Ad[g] = P @ np.swapaxes(Ug[:, :n], 1, 2)
        Bd[g] = P @ np.swapaxes(Ug[:, n:], 1, 2)
    for r in sorted(set(qx[fitted].tolist())):
        g = np.flatnonzero(fitted & (qx == r))
        Y = np.swapaxes((R if rows is not None else R[g])[..., y], -1, -2)
        Cd[g] = Y @ (np.swapaxes(Wtx[g][:, :r], 1, 2) / sx[g, None, :r]) @ np.swapaxes(Ux[g][:, :, :r], 1, 2)
    for name, M in (("Ad", Ad), ("Bd", Bd), ("Cd", Cd)):
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} contains non-finite entries")
    return Ad, Bd, Cd, fitted


def fit_model(
    ds: TimeSeriesDataset,
    state_idx: Sequence[int],
    policy: TruncationPolicy | None = None,
    reduction: PoolReduction | None = None,
) -> StateSpaceModel:
    """Fit the full model of the chosen states from the reduction of a pool
    that holds them; by default the pool is ``state_idx`` itself. A stack of
    one for ``fit_stack``."""
    state_idx = list(state_idx)
    reduction = reduction or PoolReduction.of(ds, state_idx)
    rows = np.array([channel_rows(reduction.channels, state_idx)])
    Ad, Bd, Cd, fitted = fit_stack(reduction.R, len(reduction.channels), reduction.n_inputs, rows, policy)
    if not fitted[0]:
        raise DegenerateSnapshots("the snapshots are identically zero or truncate to rank 0")
    names = ds.names
    return StateSpaceModel(
        Ad=Ad[0],
        Bd=Bd[0],
        Cd=Cd[0],
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
    cell in a hundred can differ, by a few parts in 1e15. The model's stack
    of one for ``rollout_stack``.
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
    T, Q = real_schur(model.Ad[None])
    Xh, Yh = rollout_stack(T, Q, model.Bd[None], model.Cd[None], x0[None], V, starts)
    return Xh[0], Yh[0]


def rollout_stack(
    T: np.ndarray,
    Q: np.ndarray,
    Bd: np.ndarray,
    Cd: np.ndarray,
    x0: np.ndarray,
    V: np.ndarray,
    starts: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """``rollout`` of each model of a stack, from the real Schur factors
    ``Ad[i] = Q[i] T[i] Q[i]'``, its ``Bd[i]``, ``Cd[i]`` and its initial
    states ``x0[i]`` (``N x n x segments``), all driven by ``V``; returns
    ``(N x n x K, N x p x K)``. Each model's columns are bit for bit those of
    its stack of one: every product runs per model, on operands of the
    shape and strides it has alone.

    The segments of every model are laid side by side in an ``N x segments x
    n x longest`` array ``Z``, zero past each segment's end; column ``k`` of
    a segment starts as ``Q' Bd v(k)`` (plus ``T Q' x0`` at ``k = 0``); for
    ``s = 1, 2, 4, ...`` below the longest segment every segment adds
    ``T^s`` times its column ``k - s``, in one batched product, and ``Xh =
    Q Z``. Padding only ever feeds later padding. Squaring the triangular
    ``T``, not ``Ad``, keeps a non-normal ``Ad`` accurate. Once ``T^s``
    overflows the model has diverged: every state of a segment is NaN or inf
    from its column ``s`` on, even if a mode no input reaches keeps the loop
    finite; a segment of ``s`` steps or fewer is not touched.
    """
    bounds = [int(a) for a in starts] + [V.shape[1]]
    spans = list(zip(bounds, bounds[1:]))
    Qt = np.swapaxes(Q, 1, 2)
    BV = (Qt @ Bd) @ V
    Z = np.zeros((len(T), len(spans), T.shape[1], max(b - a for a, b in spans)))
    for r, (a, b) in enumerate(spans):
        Z[:, r, :, : b - a] = BV[..., a:b]
    del BV
    Z[..., :1] += np.swapaxes(T @ (Qt @ x0), 1, 2)[..., None]  # empty when K = 0
    P, s = T[:, None], 1
    with np.errstate(over="ignore", invalid="ignore"):
        while s < Z.shape[-1]:
            Z[..., s:] += P @ Z[..., :-s]
            P, s = P @ P, 2 * s
        Xh = Q @ np.concatenate([Z[:, r, :, : b - a] for r, (a, b) in enumerate(spans)], axis=-1)
        Yh = Cd @ Xh
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
