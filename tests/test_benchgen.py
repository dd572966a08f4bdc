from dataclasses import asdict, replace

import numpy as np
import pytest

from statesel.benchgen import (
    Coupling,
    ExtraChannel,
    RlcParams,
    SquareWaveSpec,
    SubsystemSpec,
    SynthSystemSpec,
    default_coupled_spec,
    default_rlc_excitations,
    rlc_truth,
    simulate_rlc,
    simulate_synth,
    square_wave,
    synth_truth,
)
from statesel.datamodel import assemble_snapshots
from statesel.dmdc import c2d_zoh, fit_dynamics, fit_output_map

from conftest import correlation, default_decoupled_spec


class TestSquareWave:
    def test_half_period_levels(self):
        spec = SquareWaveSpec(offset=0.0, amplitude=1.0, period=2.0, duty=0.5)
        assert square_wave(spec, 0.5) == 1.0
        assert square_wave(spec, 1.5) == 0.0

    def test_phase_shifts_transition(self):
        spec = SquareWaveSpec(offset=0.0, amplitude=1.0, period=2.0, duty=0.5, phase=0.25)
        assert square_wave(spec, 0.5) == 1.0
        assert square_wave(spec, 1.2) == 1.0  # 1.2 - 0.25 = 0.95 < duty edge at 1.25
        assert square_wave(spec, 1.3) == 0.0

    def test_offset_and_amplitude(self):
        spec = SquareWaveSpec(offset=2.0, amplitude=1.5, period=1.0)
        t = np.linspace(0, 5, 500)
        vals = square_wave(spec, t)
        assert set(np.unique(vals)) == {2.0, 3.5}

    def test_staggering_reduces_correlation(self):
        period = 7200.0  # 2-hour wave, staggered by 900 s
        t = np.arange(0.0, period, 1.0)
        base = SquareWaveSpec(offset=0.0, amplitude=1.0, period=period)
        aligned = [square_wave(base, t) for _ in range(3)]
        staggered = [
            square_wave(
                SquareWaveSpec(offset=0.0, amplitude=1.0, period=period, phase=ph), t
            )
            for ph in (0.0, 900.0, 1800.0)
        ]
        def max_pair_corr(sigs):
            return max(
                abs(correlation(sigs[i], sigs[j]))
                for i in range(len(sigs))
                for j in range(i + 1, len(sigs))
            )
        assert max_pair_corr(staggered) < max_pair_corr(aligned)

    def test_validation(self):
        with pytest.raises(ValueError):
            SquareWaveSpec(offset=0, amplitude=1, period=0)
        with pytest.raises(ValueError):
            SquareWaveSpec(offset=0, amplitude=1, period=1, duty=1.0)


class TestRlc:
    def test_shape_and_counts(self, rlc_dataset):
        assert rlc_dataset.n_realizations == 5
        assert len(rlc_dataset.candidate_indices) == 43
        assert len(rlc_dataset.input_indices) == 1
        assert len(rlc_dataset.output_indices) == 2
        assert rlc_dataset.realizations[0].shape == (46, 8000)

    def test_zero_excitation_everything_rests(self):
        exc = [SquareWaveSpec(offset=0.0, amplitude=0.0, period=1.0)]
        ds = simulate_rlc(RlcParams(duration=0.5), exc)
        arr = ds.realizations[0]
        consts = {"ambient.T", "ref.one", "board.T", "cal.offset", "source.v.offset", "supply.rail"}
        for i, meta in enumerate(ds.manifest):
            if meta.name in consts or meta.name in ("bus.v", "tap.v"):
                continue
            assert np.all(arr[i] == 0.0), meta.name

    def test_step_reaches_dc_equilibrium(self):
        level = 2.0
        exc = [SquareWaveSpec(offset=level, amplitude=0.0, period=1.0)]
        ds = simulate_rlc(RlcParams(duration=0.5), exc)
        arr = ds.realizations[0]
        vc = arr[ds.index_of("capacitor.v")]
        i = arr[ds.index_of("capacitor.p.i")]
        # series balance forces v_C -> -v_S and i -> 0
        assert abs(vc[-1] + level) < 1e-6
        assert abs(i[-1]) < 1e-6
        assert abs(abs(vc[-1]) - level) < 1e-6

    def test_matches_fine_step_integration(self):
        params = RlcParams(duration=0.05)
        exc = [SquareWaveSpec(offset=1.0, amplitude=1.0, period=0.011)]
        ds = simulate_rlc(params, exc)
        arr = ds.realizations[0]
        vc = arr[ds.index_of("capacitor.v")]
        cur = arr[ds.index_of("capacitor.p.i")]
        A, B = params.continuous()
        steps = int(round(params.duration / params.dt))
        t = np.arange(steps) * params.dt
        vs = square_wave(exc[0], t)
        # explicit RK4 at dt/100 holding the input constant over each dt
        sub = 100
        h = params.dt / sub
        x = np.zeros(2)
        ref = np.empty((2, steps))
        ref[:, 0] = x
        for k in range(steps - 1):
            u = np.array([vs[k]])
            for _ in range(sub):
                k1 = A @ x + B @ u
                k2 = A @ (x + 0.5 * h * k1) + B @ u
                k3 = A @ (x + 0.5 * h * k2) + B @ u
                k4 = A @ (x + h * k3) + B @ u
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            ref[:, k + 1] = x
        scale = max(np.abs(ref[0]).max(), 1e-12)
        assert np.max(np.abs(vc - ref[0])) / scale < 1e-6
        scale = max(np.abs(ref[1]).max(), 1e-12)
        assert np.max(np.abs(cur - ref[1])) / scale < 1e-6

    def test_zoh_exactness(self, rlc_dataset):
        params = RlcParams()
        A, B = params.continuous()
        Ad, Bd = c2d_zoh(A, B, params.dt)
        arr = rlc_dataset.realizations[2]
        vc = arr[rlc_dataset.index_of("capacitor.v")]
        cur = arr[rlc_dataset.index_of("capacitor.p.i")]
        vs = arr[rlc_dataset.index_of("source.v")]
        X = np.vstack([vc, cur])
        pred = Ad @ X[:, :-1] + Bd @ vs[None, :-1]
        assert np.max(np.abs(pred - X[:, 1:])) < 1e-12

    def test_truth_formulas_cover_all_candidates(self, rlc_dataset):
        truth = rlc_truth()
        formulas = truth["channel_formulas"]
        for i in rlc_dataset.candidate_indices:
            assert rlc_dataset.manifest[i].name in formulas
        assert truth["true_states"] == ["capacitor.v", "capacitor.p.i"]

    def test_aliases_match_their_formulas(self, rlc_dataset):
        # spot-check the symbolic bookkeeping: q = C*v_C and v_R = R*i exactly
        arr = rlc_dataset.realizations[0]
        C = RlcParams().C
        R = RlcParams().R
        q = arr[rlc_dataset.index_of("capacitor.q")]
        vc = arr[rlc_dataset.index_of("capacitor.v")]
        assert np.array_equal(q, C * vc)
        vr = arr[rlc_dataset.index_of("resistor.v")]
        cur = arr[rlc_dataset.index_of("capacitor.p.i")]
        assert np.array_equal(vr, R * cur)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RlcParams(R=0.0)
        with pytest.raises(ValueError):
            RlcParams(duration=-1.0)

    def test_excitations_are_distinct(self):
        specs = default_rlc_excitations()
        assert len(specs) == 5
        assert len({(s.offset, s.amplitude) for s in specs}) == 5


class TestSynth:
    def test_decoupled_block_stays_at_equilibrium(self):
        spec = default_decoupled_spec()
        spec = replace(spec, noise_level=0.0)
        waves = (
            (
                SquareWaveSpec(offset=0.0, amplitude=1.0, period=3.0),
                SquareWaveSpec(offset=0.0, amplitude=0.0, period=4.0),
            ),
        )
        ds = simulate_synth(spec, waves)
        arr = ds.realizations[0]
        for i, meta in enumerate(ds.manifest):
            if meta.subsystem == "B" and meta.role != "input":
                assert np.all(arr[i] == 0.0), meta.name
        a_state = arr[ds.index_of("A.x1")]
        assert np.any(a_state != 0.0)

    def test_gain_disparity_shows_in_fitted_output_map(self, coupled_split, coupled_dataset):
        train, _ = coupled_split
        idx = [coupled_dataset.index_of(n) for n in ("A.x1", "A.x2", "B.x1", "B.x2")]
        snaps = assemble_snapshots(train, idx)
        Cd = fit_output_map(snaps.X, snaps.Y)
        # row of the high-gain output: its own columns dominate the other block's
        a_row = np.abs(Cd[0])
        assert a_row[:2].min() > 100 * a_row[2:].max()

    def test_noiseless_fit_is_exact(self):
        spec = default_coupled_spec()
        spec = replace(spec, noise_level=0.0)
        ds = simulate_synth(spec)
        idx = [ds.index_of(n) for n in ds.names if n.endswith(".x1") or n.endswith(".x2")]
        snaps = assemble_snapshots(ds, idx)
        Ad, Bd = fit_dynamics(snaps)
        residual = np.max(np.abs(snaps.Xp - Ad @ snaps.X - Bd @ snaps.V))
        assert residual < 1e-8

    def test_zoh_exactness_against_oracle(self):
        spec = default_coupled_spec()
        spec = replace(spec, noise_level=0.0)
        ds = simulate_synth(spec)
        A, B, _ = spec.full_matrices()
        Ad, Bd = c2d_zoh(A, B, spec.dt)
        arr = ds.realizations[0]
        X = np.vstack([arr[ds.index_of(n)] for n in spec.state_names()])
        V = np.vstack([arr[i] for i in ds.input_indices])
        pred = Ad @ X[:, :-1] + Bd @ V[:, :-1]
        assert np.max(np.abs(pred - X[:, 1:])) < 1e-12

    def test_seeded_noise_reproducible(self):
        spec = default_coupled_spec()
        d1 = simulate_synth(spec)
        d2 = simulate_synth(spec)
        for a, b in zip(d1.realizations, d2.realizations):
            assert np.array_equal(a, b)
        other = replace(spec, seed=8)
        d3 = simulate_synth(other)
        assert not np.array_equal(d1.realizations[0], d3.realizations[0])

    def test_unstable_block_rejected(self):
        with pytest.raises(ValueError, match="Hurwitz"):
            SubsystemSpec(name="bad", A=((0.1, 0.0), (0.0, -1.0)), B=(1.0, 0.0), C=((1.0, 0.0),))

    def test_unstable_coupling_rejected(self):
        sub = lambda name: SubsystemSpec(
            name=name, A=((-0.1, 0.0), (0.0, -0.2)), B=(1.0, 0.0), C=((1.0, 0.0),)
        )
        with pytest.raises(ValueError, match="Hurwitz"):
            SynthSystemSpec(
                subsystems=(sub("A"), sub("B")),
                couplings=(
                    Coupling(src="A", dst="B", K=((5.0, 0.0), (0.0, 5.0))),
                    Coupling(src="B", dst="A", K=((5.0, 0.0), (0.0, 5.0))),
                ),
            )

    def test_coupling_must_fit_its_blocks(self):
        """Unchecked, a 3 x 3 ``K`` between 2-state blocks would write into the
        neighbouring blocks' entries, and an unknown name would raise a bare
        ``KeyError``."""
        sub = lambda name: SubsystemSpec(
            name=name, A=((-0.3, 0.0), (0.5, -1.0)), B=(1.0, 0.0), C=((1.0, 0.0),)
        )
        blocks = (sub("A"), sub("B"), sub("C"))
        wide = ((0.1, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.1))
        with pytest.raises(ValueError, match=r"coupling A -> B: K must be 2 x 2"):
            SynthSystemSpec(subsystems=blocks, couplings=(Coupling(src="A", dst="B", K=wide),))
        ragged = ((0.1, 0.0), (0.1,))
        with pytest.raises(ValueError, match=r"coupling B -> C: K must be 2 x 2"):
            SynthSystemSpec(subsystems=blocks, couplings=(Coupling(src="B", dst="C", K=ragged),))
        with pytest.raises(ValueError, match=r"coupling A -> Z: unknown subsystem"):
            SynthSystemSpec(subsystems=blocks, couplings=(Coupling(src="A", dst="Z", K=wide),))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"B": (1.0, 0.0, 0.0)}, "B has 3 entries for 2 states"),
            ({"C": ((1.0, 0.0), (1.0,))}, "every row of C needs 2 entries"),
            ({"extras": (ExtraChannel(name="m", kind="mixture", weights=(1.0,)),)}, "mixture channel m"),
            ({"extras": (ExtraChannel(name="p", kind="product", weights=(0, 2)),)}, "product channel p"),
            ({"extras": (ExtraChannel(name="p", kind="product", weights=(0, 1, 1)),)}, "product channel p"),
            ({"extras": (ExtraChannel(name="s", kind="square", weights=(-1,)),)}, "square channel s"),
            ({"extras": (ExtraChannel(name="s", kind="square", weights=(0.5,)),)}, "square channel s"),
        ],
    )
    def test_subsystem_shapes_checked(self, change, message):
        base = dict(name="blk", A=((-0.3, 0.0), (0.5, -1.0)), B=(1.0, 0.0), C=((1.0, 0.0),))
        with pytest.raises(ValueError, match=f"subsystem blk: {message}"):
            SubsystemSpec(**{**base, **change})

    def test_spec_reader_rejects_unknown_fields(self):
        doc = asdict(default_coupled_spec())
        doc["subsystems"][0]["extras"][0]["wieghts"] = [1.0, 0.0]
        with pytest.raises(TypeError, match="wieghts"):
            SynthSystemSpec.from_dict(doc)

    def test_spec_round_trips_through_dict(self):
        spec = default_coupled_spec()
        back = SynthSystemSpec.from_dict(asdict(spec))
        assert back == spec

    def test_truth_records_formulas_and_coupling(self):
        spec = default_coupled_spec()
        truth = synth_truth(spec)
        assert truth["true_states"] == ["A.x1", "A.x2", "B.x1", "B.x2"]
        assert "A.mix" in truth["channel_formulas"]
        assert "A.x1" in truth["channel_formulas"]["A.mix"]
        A_full = np.array(truth["A_full"])
        assert A_full[2, 0] != 0.0  # coupling block present

    def test_extra_channel_kinds(self):
        rng = np.random.default_rng(0)
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        mix = ExtraChannel(name="m", kind="mixture", weights=(2.0, -1.0))
        assert np.array_equal(mix.evaluate(X, rng), [-2.0, -1.0, 0.0])
        prod = ExtraChannel(name="p", kind="product", weights=(0, 1), scale=2.0)
        assert np.array_equal(prod.evaluate(X, rng), [8.0, 20.0, 36.0])
        sq = ExtraChannel(name="s", kind="square", weights=(1,))
        assert np.array_equal(sq.evaluate(X, rng), [16.0, 25.0, 36.0])
        with pytest.raises(ValueError):
            ExtraChannel(name="x", kind="cubic")
