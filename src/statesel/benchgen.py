"""Truth-known benchmark dataset generators.

Two families:

* a series RLC circuit whose two analytic states (capacitor voltage and loop
  current) are buried in a 43-channel pool of derived measurements, aliases,
  input-tied channels, and constants, sized so the default prefilter keeps
  exactly 8 candidates;
* synthetic coupled LTI block systems with per-subsystem output gains, used
  to study ranking bias between subsystems.

Both simulate the continuous dynamics exactly under a zero-order hold, so the
recorded data satisfies the discrete recursion to machine precision and every
fitted quantity has a closed-form reference. A truth document records the
generating matrices and each derived channel's formula.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .datamodel import ChannelMeta, TimeSeriesDataset
from .dmdc import c2d_zoh


@dataclass(frozen=True)
class SquareWaveSpec:
    """Ideal square wave: ``offset + amplitude`` for the first ``duty`` fraction
    of each period (measured from ``phase``), ``offset`` otherwise."""

    offset: float
    amplitude: float
    period: float
    duty: float = 0.5
    phase: float = 0.0

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")


def square_wave(spec: SquareWaveSpec, t: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the wave at time(s) ``t``; exact, no band-limiting."""
    pos = np.mod(np.asarray(t, dtype=float) - spec.phase, spec.period) / spec.period
    val = np.where(pos < spec.duty, spec.offset + spec.amplitude, spec.offset)
    if np.isscalar(t):
        return float(val)
    return val


def _zoh_response(
    A: np.ndarray, B: np.ndarray, dt: float, V: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Exact sampled state trajectory under zero-order-hold inputs.

    ``V`` is inputs x steps; the returned states have the same step count and
    satisfy ``x(k+1) = Ad x(k) + Bd v(k)`` with the discretized matrices.
    """
    Ad, Bd = c2d_zoh(A, B, dt)
    steps = V.shape[1]
    X = np.empty((A.shape[0], steps))
    x = np.asarray(x0, dtype=float)
    X[:, 0] = x
    BV = Bd @ V
    for k in range(1, steps):
        x = Ad @ x + BV[:, k - 1]
        X[:, k] = x
    return X


# --- series RLC benchmark ----------------------------------------------------


@dataclass(frozen=True)
class RlcParams:
    """Series RLC circuit: states are capacitor voltage and loop current."""

    R: float = 1.0
    L: float = 1e-3
    C: float = 1e-3
    dt: float = 1e-3
    duration: float = 8.0

    def __post_init__(self):
        for name in ("R", "L", "C", "dt", "duration"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def continuous(self) -> tuple[np.ndarray, np.ndarray]:
        """State matrices for x = (v_C, i) driven by the source voltage."""
        A = np.array([[0.0, 1.0 / self.C], [-1.0 / self.L, -self.R / self.L]])
        B = np.array([[0.0], [-1.0 / self.L]])
        return A, B


def default_rlc_excitations() -> tuple[SquareWaveSpec, ...]:
    """Five square waves spanning low and high source levels.

    Periods sit near the circuit's natural response time so the states keep
    slewing instead of parking at plateaus tied to the source level.
    """
    return (
        SquareWaveSpec(offset=0.0, amplitude=1.0, period=0.005, phase=0.000),
        SquareWaveSpec(offset=2.0, amplitude=1.0, period=0.007, phase=0.003),
        SquareWaveSpec(offset=-1.0, amplitude=0.5, period=0.009, phase=0.005),
        SquareWaveSpec(offset=0.5, amplitude=2.0, period=0.011, phase=0.002),
        SquareWaveSpec(offset=3.0, amplitude=1.5, period=0.012, phase=0.007),
    )


# Candidate pool: (name, formula label, function of (vc, i, vs, params)).
# Ordering matters: the intended representative of every duplicate cluster
# comes first so that dedupe keeps it.
def _rlc_channel_table(p: RlcParams) -> list[tuple[str, str, Callable]]:
    R, L, C = p.R, p.L, p.C
    vl = lambda vc, i, vs: -(vs + R * i + vc)
    return [
        # survivors of the default prefilter
        ("capacitor.v", "v_C", lambda vc, i, vs: vc),
        ("capacitor.p.i", "i", lambda vc, i, vs: i),
        ("inductor.v", "-(v_S + R*i + v_C)", vl),
        ("capacitor.energy", "0.5*C*v_C^2", lambda vc, i, vs: 0.5 * C * vc**2),
        ("inductor.energy", "0.5*L*i^2", lambda vc, i, vs: 0.5 * L * i**2),
        ("capacitor.power", "v_C*i", lambda vc, i, vs: vc * i),
        ("inductor.power", "v_L*i", lambda vc, i, vs: vl(vc, i, vs) * i),
        ("source.power", "v_S*i", lambda vc, i, vs: vs * i),
        # aliases of the capacitor voltage
        ("capacitor.q", "C*v_C", lambda vc, i, vs: C * vc),
        ("capacitor.n.v", "-v_C", lambda vc, i, vs: -vc),
        ("bus.v", "v_C + 0.5", lambda vc, i, vs: vc + 0.5),
        ("tap.v", "3*v_C - 1", lambda vc, i, vs: 3 * vc - 1),
        ("shunt.v", "0.1*v_C", lambda vc, i, vs: 0.1 * vc),
        ("stored.q.mC", "1000*C*v_C", lambda vc, i, vs: 1000 * C * vc),
        ("capacitor.v.mV", "1000*v_C", lambda vc, i, vs: 1000 * vc),
        # aliases of the loop current
        ("inductor.i", "i", lambda vc, i, vs: i),
        ("resistor.i", "i", lambda vc, i, vs: i),
        ("resistor.v", "R*i", lambda vc, i, vs: R * i),
        ("branch.i", "-i", lambda vc, i, vs: -i),
        ("winding.i", "1.2*i", lambda vc, i, vs: 1.2 * i),
        ("sense.i.mA", "1000*i", lambda vc, i, vs: 1000 * i),
        ("coil.flux", "L*i", lambda vc, i, vs: L * i),
        ("probe.i.scaled", "2.5*i", lambda vc, i, vs: 2.5 * i),
        ("resistor.p.v", "-R*i", lambda vc, i, vs: -R * i),
        # aliases of other survivors
        ("inductor.v.neg", "-v_L", lambda vc, i, vs: -vl(vc, i, vs)),
        ("resistor.power", "R*i^2", lambda vc, i, vs: R * i**2),
        ("meter.p_R.kW", "0.001*R*i^2", lambda vc, i, vs: 0.001 * R * i**2),
        ("inductor.energy.scaled", "L*i^2", lambda vc, i, vs: L * i**2),
        ("tank.energy", "1.5*C*v_C^2", lambda vc, i, vs: 1.5 * C * vc**2),
        ("drain.power", "2*v_C*i", lambda vc, i, vs: 2 * vc * i),
        ("loop.power", "-v_L*i", lambda vc, i, vs: -vl(vc, i, vs) * i),
        ("aux.power", "0.5*v_S*i", lambda vc, i, vs: 0.5 * vs * i),
        # channels affinely tied to the source voltage
        ("source.v.meas", "v_S", lambda vc, i, vs: vs),
        ("source.v.gain", "2*v_S", lambda vc, i, vs: 2 * vs),
        ("source.v.offset", "v_S + 10", lambda vc, i, vs: vs + 10),
        ("source.v.neg", "-v_S", lambda vc, i, vs: -vs),
        ("supply.rail", "0.5*v_S - 2", lambda vc, i, vs: 0.5 * vs - 2),
        ("ctrl.setpoint", "1.1*v_S", lambda vc, i, vs: 1.1 * vs),
        # constants
        ("ambient.T", "293.15", lambda vc, i, vs: np.full_like(vc, 293.15)),
        ("ground.v", "0", lambda vc, i, vs: np.zeros_like(vc)),
        ("ref.one", "1", lambda vc, i, vs: np.ones_like(vc)),
        ("board.T", "300.0", lambda vc, i, vs: np.full_like(vc, 300.0)),
        ("cal.offset", "-7.5", lambda vc, i, vs: np.full_like(vc, -7.5)),
    ]


RLC_TRUE_STATES = ("capacitor.v", "capacitor.p.i")
RLC_EXPECTED_KEPT = (
    "capacitor.v",
    "capacitor.p.i",
    "inductor.v",
    "capacitor.energy",
    "inductor.energy",
    "capacitor.power",
    "inductor.power",
    "source.power",
)


def simulate_rlc(
    params: RlcParams | None = None,
    excitations: Sequence[SquareWaveSpec] | None = None,
) -> TimeSeriesDataset:
    """Exact ZOH simulation of the series RLC with the derived channel pool.

    One realization per excitation spec, all starting at rest. Outputs are
    the capacitor voltage and the resistor voltage.
    """
    params = params or RlcParams()
    excitations = tuple(excitations or default_rlc_excitations())
    A, B = params.continuous()
    steps = int(round(params.duration / params.dt))
    t = np.arange(steps) * params.dt
    table = _rlc_channel_table(params)
    manifest = [ChannelMeta("source.v", "input")]
    manifest += [ChannelMeta("monitor.v_C", "output"), ChannelMeta("monitor.v_R", "output")]
    manifest += [ChannelMeta(name, "candidate") for name, _, _ in table]
    reals = []
    for spec in excitations:
        vs = square_wave(spec, t)
        X = _zoh_response(A, B, params.dt, vs.reshape(1, -1), np.zeros(2))
        vc, i = X[0], X[1]
        rows = [vs, vc, params.R * i]
        rows += [fn(vc, i, vs) for _, _, fn in table]
        reals.append(np.vstack(rows))
    return TimeSeriesDataset(dt=params.dt, realizations=tuple(reals), manifest=tuple(manifest))


def rlc_truth(params: RlcParams | None = None, excitations=None) -> dict:
    """Machine-readable record of everything the RLC generator knows."""
    params = params or RlcParams()
    excitations = tuple(excitations or default_rlc_excitations())
    A, B = params.continuous()
    table = _rlc_channel_table(params)
    return {
        "kind": "rlc",
        "params": asdict(params),
        "A": A.tolist(),
        "B": B.tolist(),
        "output_map": [[1.0, 0.0], [0.0, params.R]],
        "true_states": list(RLC_TRUE_STATES),
        "expected_kept": list(RLC_EXPECTED_KEPT),
        "channel_formulas": {name: formula for name, formula, _ in table},
        "excitations": [asdict(s) for s in excitations],
    }


# --- synthetic coupled block systems ------------------------------------------


def _rows(matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(r) for r in matrix)


def _cast(doc: dict, **casts) -> dict:
    """``doc`` with each key named in ``casts`` passed through its cast.

    The spec readers normalize outside JSON this way (lists to tuples,
    integers to floats) and leave absent keys to the field defaults.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {doc!r}")
    return {k: casts[k](v) if k in casts else v for k, v in doc.items()}


@dataclass(frozen=True)
class ExtraChannel:
    """Derived candidate channel over one subsystem's states.

    Kinds: ``mixture`` (weighted sum of states), ``product`` (product of two
    states by index), ``square`` (one state squared), ``noise`` (seeded
    standard normal, independent of the dynamics). ``scale`` multiplies the
    result.
    """

    name: str
    kind: str
    weights: tuple[float, ...] = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("mixture", "product", "square", "noise"):
            raise ValueError(f"unknown extra-channel kind {self.kind!r}")

    def fits(self, n_states: int) -> bool:
        """Whether the weights address a block of ``n_states`` states: one
        weight per state for a mixture, two state indices for a product, one
        for a square."""
        if self.kind == "noise":
            return True
        if self.kind == "mixture":
            return len(self.weights) == n_states
        arity = 2 if self.kind == "product" else 1
        return len(self.weights) == arity and all(
            float(w).is_integer() and 0 <= w < n_states for w in self.weights
        )

    def formula(self, state_names: Sequence[str]) -> str:
        if self.kind == "mixture":
            terms = " + ".join(
                f"{w}*{n}" for w, n in zip(self.weights, state_names) if w != 0
            )
            return f"{self.scale}*({terms})"
        if self.kind == "product":
            a, b = (state_names[int(w)] for w in self.weights[:2])
            return f"{self.scale}*{a}*{b}"
        if self.kind == "square":
            return f"{self.scale}*{state_names[int(self.weights[0])]}^2"
        return f"{self.scale}*noise"

    def evaluate(self, X_sub: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "mixture":
            w = np.asarray(self.weights, dtype=float)
            return self.scale * (w @ X_sub)
        if self.kind == "product":
            a, b = (int(w) for w in self.weights[:2])
            return self.scale * X_sub[a] * X_sub[b]
        if self.kind == "square":
            return self.scale * X_sub[int(self.weights[0])] ** 2
        return self.scale * rng.standard_normal(X_sub.shape[1])

    @classmethod
    def from_dict(cls, doc: dict) -> "ExtraChannel":
        return cls(**_cast(doc, weights=tuple, scale=float))


@dataclass(frozen=True)
class SubsystemSpec:
    """One LTI block: its own dynamics, input column, and gained output rows."""

    name: str
    A: tuple[tuple[float, ...], ...]
    B: tuple[float, ...]
    C: tuple[tuple[float, ...], ...]
    output_gain: float = 1.0
    extras: tuple[ExtraChannel, ...] = ()

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"subsystem {self.name}: A must be square")
        if np.any(np.linalg.eigvals(A).real >= 0):
            raise ValueError(f"subsystem {self.name}: A must be Hurwitz")
        n = self.n_states
        if len(self.B) != n:
            raise ValueError(f"subsystem {self.name}: B has {len(self.B)} entries for {n} states")
        if any(len(row) != n for row in self.C):
            raise ValueError(f"subsystem {self.name}: every row of C needs {n} entries, one per state")
        for e in self.extras:
            if not e.fits(n):
                raise ValueError(
                    f"subsystem {self.name}: {e.kind} channel {e.name} has weights "
                    f"{e.weights}, which do not fit its {n} states"
                )

    @property
    def n_states(self) -> int:
        return len(self.A)

    def state_names(self) -> tuple[str, ...]:
        return tuple(f"{self.name}.x{j + 1}" for j in range(self.n_states))

    @classmethod
    def from_dict(cls, doc: dict) -> "SubsystemSpec":
        extras = lambda docs: tuple(ExtraChannel.from_dict(e) for e in docs)
        return cls(**_cast(doc, A=_rows, B=tuple, C=_rows, output_gain=float, extras=extras))


@dataclass(frozen=True)
class Coupling:
    """Directed influence: ``K @ x_src`` is added to the destination's dynamics,
    so ``K`` is (destination states) x (source states)."""

    src: str
    dst: str
    K: tuple[tuple[float, ...], ...]

    @classmethod
    def from_dict(cls, doc: dict) -> "Coupling":
        return cls(**_cast(doc, K=_rows))


@dataclass(frozen=True)
class SynthSystemSpec:
    subsystems: tuple[SubsystemSpec, ...]
    couplings: tuple[Coupling, ...] = ()
    noise_level: float = 0.0
    dt: float = 0.1
    duration: float = 300.0
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0 or not self.duration > 0:
            raise ValueError("dt and duration must be positive")
        sizes = {s.name: s.n_states for s in self.subsystems}
        if len(sizes) != len(self.subsystems):
            raise ValueError("subsystem names must be unique")
        for c in self.couplings:
            label = f"coupling {c.src} -> {c.dst}"
            if c.src not in sizes or c.dst not in sizes:
                raise ValueError(f"{label}: unknown subsystem, have {sorted(sizes)}")
            rows, cols = sizes[c.dst], sizes[c.src]
            if len(c.K) != rows or any(len(r) != cols for r in c.K):
                raise ValueError(f"{label}: K must be {rows} x {cols} (destination x source states)")
        A = self.full_matrices()[0]
        if np.any(np.linalg.eigvals(A).real >= 0):
            raise ValueError("coupled system matrix must be Hurwitz")

    def _offsets(self) -> dict[str, int]:
        offsets, pos = {}, 0
        for s in self.subsystems:
            offsets[s.name] = pos
            pos += s.n_states
        return offsets

    def full_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block-assembled continuous (A, B, C) of the coupled system."""
        offsets = self._offsets()
        n = sum(s.n_states for s in self.subsystems)
        m = len(self.subsystems)
        p = sum(len(s.C) for s in self.subsystems)
        A = np.zeros((n, n))
        B = np.zeros((n, m))
        C = np.zeros((p, n))
        row = 0
        for j, s in enumerate(self.subsystems):
            o = offsets[s.name]
            ns = s.n_states
            A[o : o + ns, o : o + ns] = s.A
            B[o : o + ns, j] = s.B
            Cs = np.asarray(s.C, dtype=float) * s.output_gain
            C[row : row + Cs.shape[0], o : o + ns] = Cs
            row += Cs.shape[0]
        for c in self.couplings:
            K = np.asarray(c.K, dtype=float)
            od, os_ = offsets[c.dst], offsets[c.src]
            A[od : od + K.shape[0], os_ : os_ + K.shape[1]] += K
        return A, B, C

    def state_names(self) -> tuple[str, ...]:
        return tuple(name for s in self.subsystems for name in s.state_names())

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthSystemSpec":
        """Spec from JSON, as ``asdict`` writes it into a truth document."""
        return cls(
            **_cast(
                doc,
                subsystems=lambda docs: tuple(SubsystemSpec.from_dict(s) for s in docs),
                couplings=lambda docs: tuple(Coupling.from_dict(c) for c in docs),
                noise_level=float,
                dt=float,
                duration=float,
                seed=int,
            )
        )


def default_coupled_spec() -> SynthSystemSpec:
    """Two-block system with a 1e4 output-gain disparity and one-way coupling.

    Each block is a slow driven state chained into a faster one, so a single
    variable approximates a block well. The low-gain block's output row is
    negative on its own states, which is the configuration where rowwise
    min-max scaling punishes that block hardest during whole-pool ranking.
    """
    extras = lambda prefix: (
        ExtraChannel(name=f"{prefix}.mix", kind="mixture", weights=(1.0, 0.7)),
        ExtraChannel(name=f"{prefix}.prod", kind="product", weights=(0, 1)),
    )
    return SynthSystemSpec(
        subsystems=(
            SubsystemSpec(
                name="A",
                A=((-0.35, 0.0), (0.6, -1.2)),
                B=(1.0, 0.0),
                C=((1.0, 0.1),),
                output_gain=1e4,
                extras=extras("A"),
            ),
            SubsystemSpec(
                name="B",
                A=((-0.3, 0.0), (0.5, -1.0)),
                B=(0.8, 0.0),
                C=((-1.0, -0.3),),
                output_gain=1.0,
                extras=extras("B"),
            ),
        ),
        couplings=(Coupling(src="A", dst="B", K=((0.4, 0.2), (0.0, 0.15))),),
        noise_level=1e-3,
        dt=0.1,
        duration=300.0,
        seed=7,
    )


def default_synth_excitations(
    spec: SynthSystemSpec, n_realizations: int = 3
) -> tuple[tuple[SquareWaveSpec, ...], ...]:
    """Per-realization square waves, one per input.

    Every input keeps a fixed midpoint across realizations and varies its
    amplitude, so operating levels differ between realizations without
    aligning channel means to the input means; phases and periods are
    staggered per input to keep the stacked input matrix well conditioned.
    """
    midpoints = [0.5, 0.25, 0.75, -0.25]
    amplitudes = [
        [1.0, 2.0, 0.6, 1.4, 0.8],
        [1.5, 0.8, 2.2, 0.5, 1.2],
        [0.7, 1.8, 1.1, 2.4, 0.9],
        [2.0, 0.6, 1.6, 1.0, 2.5],
    ]
    periods = [2.0, 2.6, 3.4, 4.2]
    out = []
    for r in range(n_realizations):
        waves = []
        for j in range(len(spec.subsystems)):
            amp = amplitudes[j % len(amplitudes)][r % 5]
            waves.append(
                SquareWaveSpec(
                    offset=midpoints[j % len(midpoints)] - amp / 2,
                    amplitude=amp,
                    period=periods[(r + 2 * j) % len(periods)],
                    phase=0.9 * j + 0.4 * r,
                )
            )
        out.append(tuple(waves))
    return tuple(out)


def simulate_synth(
    spec: SynthSystemSpec,
    excitations: Sequence[Sequence[SquareWaveSpec]] | None = None,
) -> TimeSeriesDataset:
    """Exact ZOH simulation of the coupled blocks with the candidate pool.

    Candidates are all states plus each subsystem's configured extra
    channels, labeled by subsystem. Measurement noise (relative to each
    channel's clean standard deviation) is added to candidate and output
    channels when ``noise_level > 0``.
    """
    excitations = tuple(excitations or default_synth_excitations(spec))
    A, B, C = spec.full_matrices()
    steps = int(round(spec.duration / spec.dt))
    t = np.arange(steps) * spec.dt
    manifest = [ChannelMeta(f"u.{s.name}", "input", s.name) for s in spec.subsystems]
    for s in spec.subsystems:
        for j in range(len(s.C)):
            manifest.append(ChannelMeta(f"y.{s.name}{j + 1}", "output", s.name))
    for s in spec.subsystems:
        for name in s.state_names() + tuple(e.name for e in s.extras):
            manifest.append(ChannelMeta(name, "candidate", s.name))
    rng = np.random.default_rng(spec.seed)
    offsets = spec._offsets()
    reals = []
    for waves in excitations:
        if len(waves) != len(spec.subsystems):
            raise ValueError("need one excitation wave per input")
        V = np.vstack([square_wave(w, t) for w in waves])
        X = _zoh_response(A, B, spec.dt, V, np.zeros(A.shape[0]))
        rows = [*V, *(C @ X)]
        for s in spec.subsystems:
            o = offsets[s.name]
            X_sub = X[o : o + s.n_states]
            rows += [*X_sub, *(e.evaluate(X_sub, rng) for e in s.extras)]
        data = np.vstack(rows)
        if spec.noise_level > 0:
            n_inputs = len(spec.subsystems)
            noisy = data[n_inputs:]
            sigma = noisy.std(axis=1, keepdims=True)
            noisy = noisy + spec.noise_level * sigma * rng.standard_normal(noisy.shape)
            data = np.vstack([data[:n_inputs], noisy])
        reals.append(data)
    return TimeSeriesDataset(dt=spec.dt, realizations=tuple(reals), manifest=tuple(manifest))


def synth_truth(
    spec: SynthSystemSpec,
    excitations: Sequence[Sequence[SquareWaveSpec]] | None = None,
) -> dict:
    excitations = tuple(excitations or default_synth_excitations(spec))
    A, B, C = spec.full_matrices()
    formulas = {e.name: e.formula(s.state_names()) for s in spec.subsystems for e in s.extras}
    return {
        "kind": "synth",
        "spec": asdict(spec),
        "A_full": A.tolist(),
        "B_full": B.tolist(),
        "C_full": C.tolist(),
        "state_names": list(spec.state_names()),
        "true_states": list(spec.state_names()),
        "channel_formulas": formulas,
        "excitations": [[asdict(w) for w in waves] for waves in excitations],
    }
