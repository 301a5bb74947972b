from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from decoshield.control import (ControlSchedule, SystemModel, fourier_modes,
                                effective_dynamics, operator_norm)
import decoshield.simulate as simulate
from decoshield.errors import ArgumentError, NumericError, ResourceError
from decoshield.experiments import ExperimentConfig
from decoshield.reservoir import discretize_modes, make_form_factor
from decoshield.simulate import (TotalModel, compare_with_effective, evolve,
                                 evolve_pair, trace_distance)

from oracles import (field_operator, jordan_wigner_annihilators,
                     ordered_propagator, partial_trace,
                     thermal_reservoir_state, total_hamiltonian)

MU_STAR = 7.554982305222015
SPIN1_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)


@pytest.fixture(scope="module")
def reservoir():
    return make_form_factor("gaussian-p", beta=1.0)


def modeset(ff, n, p_max=4.0):
    return discretize_modes(ff, n, p_max)


def plus_state():
    return 0.5 * np.ones((2, 2), dtype=complex)


class TestJordanWigner:
    def test_car_exhaustive_n6(self):
        ops = jordan_wigner_annihilators(6)
        dim = 2**6
        for i, ai in enumerate(ops):
            for j, aj in enumerate(ops):
                anti = ai @ aj.conj().T + aj.conj().T @ ai
                expect = np.eye(dim) if i == j else 0.0
                assert operator_norm(anti - expect) < 1e-12
                assert operator_norm(ai @ aj + aj @ ai) < 1e-12

    def test_number_operator_diagonal(self):
        ops = jordan_wigner_annihilators(3)
        n0 = ops[0].conj().T @ ops[0]
        bits = (np.arange(8) >> 2) & 1
        np.testing.assert_allclose(np.diag(n0).real, bits, atol=1e-14)


class TestThermalState:
    def test_occupations_match_fermi_dirac(self, reservoir):
        ff = reservoir
        modes = modeset(ff, 4)
        rho = thermal_reservoir_state(modes)
        ops = jordan_wigner_annihilators(4)
        for aj, n in zip(ops, modes.occupations):
            got = np.trace(rho @ aj.conj().T @ aj).real
            assert got == pytest.approx(n, abs=1e-12)

    def test_trace_one(self, reservoir):
        ff = reservoir
        rho = thermal_reservoir_state(modeset(ff, 5))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_anomalous_pairs_vanish(self, reservoir):
        ff = reservoir
        modes = modeset(ff, 3)
        rho = thermal_reservoir_state(modes)
        ops = jordan_wigner_annihilators(3)
        for i in range(3):
            for j in range(3):
                assert abs(np.trace(rho @ ops[i] @ ops[j])) < 1e-13


class TestFieldOperator:
    def test_matches_kron_chain(self, reservoir):
        # the sparse Phi against sum_j f_j (a_j + a_j^*) / sqrt 2 built from
        # the kron-chain operators, and Phi^2 = (||f||^2 / 2) 1
        for n in range(1, 7):
            modes = modeset(reservoir, n)
            tm = TotalModel(SystemModel.qubit(), modes, 0.1, None)
            phi = tm.reservoir()[2].toarray()
            assert np.abs(phi - field_operator(modes)).max() < 1e-15
            g2 = 0.5 * float(modes.couplings @ modes.couplings)
            assert operator_norm(phi @ phi - g2 * np.eye(2**n)) < 1e-14


def joint_hamiltonian(tm, frame, t):
    """The oracle H(t) in the production joint basis of H_s and H_dir."""
    b = np.kron(frame.basis, np.eye(2**tm.n_modes))
    return b.conj().T @ total_hamiltonian(tm, t) @ b


class TestTotalGenerator:
    def test_static_hamiltonian_hermitian_and_matches_oracle(self, reservoir):
        qutrit = SystemModel(np.diag([1.0, 0.0, -1.0]),
                             [[0.3, 1, 0], [1, -0.2, 1], [0, 1, 0.1]])
        for model in (SystemModel.qubit(), qutrit):
            tm = TotalModel(model, modeset(reservoir, 3), 0.1, None)
            frame = simulate._Sectors(tm)
            h = joint_hamiltonian(tm, frame, 0.0)
            for sector in frame.sectors:
                block = simulate._static_hamiltonian(tm, frame, sector)
                assert operator_norm(block - block.conj().T) < 1e-12
                rows = np.ix_(sector.index, sector.index)
                assert operator_norm(block - h[rows]) < 1e-12

    def test_decoupled_blocks_at_zero_coupling(self, reservoir):
        ff = reservoir
        modes = modeset(ff, 3)
        tm = TotalModel(SystemModel.qubit(), modes, 0.0, None)
        frame = simulate._Sectors(tm)
        h = joint_hamiltonian(tm, frame, 0.0)
        ops = jordan_wigner_annihilators(3)
        for sector in frame.sectors:
            block = simulate._static_hamiltonian(tm, frame, sector)
            rows = np.ix_(sector.index, sector.index)
            assert operator_norm(block - h[rows]) < 1e-12
            for aj in ops:
                num = np.kron(np.eye(2), aj.conj().T @ aj)[rows]
                assert operator_norm(block @ num - num @ block) < 1e-12

    def test_dimension_guard(self, reservoir):
        ff = reservoir
        big = modeset(ff, 14)
        with pytest.raises(ResourceError):
            TotalModel(SystemModel.qubit(), big, 0.1, None)


def sector_models():
    """name -> (system, H_dir, sector sizes at N = 3)."""
    sx, sz = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
    h3 = np.diag([1.0, 0.0, -1.0])
    return {
        "qubit": (SystemModel.qubit(), None, [8, 8]),
        # H_s and H_dir off the computational basis: Q's diagonal in the
        # joint basis is rounding only, which the 1e-14 gate drops
        "rotated-qubit": (SystemModel(sx, sz), sx, [8, 8]),
        "qubit-with-sz": (SystemModel(sz, [[0.2, 1], [1, -0.2]]), None, [16]),
        "spin1": (SystemModel(h3, SPIN1_SX), h3, [12, 12]),
        "isolated-level": (SystemModel(h3, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
                           h3, [8, 8, 4, 4]),
        "qutrit-with-diagonal": (SystemModel(h3, [[0.3, 1, 0], [1, -0.2, 1],
                                                  [0, 1, 0.1]]), h3, [24]),
        # one two-coloured component and one level with a self-loop
        "mixed-components": (SystemModel(h3, [[0, 1, 0], [1, 0, 0],
                                              [0, 0, 0.5]]), h3, [8, 8, 8]),
    }


class TestSectors:
    @pytest.mark.parametrize("name", sorted(sector_models()))
    def test_oracle_hamiltonian_stays_in_its_sector(self, reservoir, name):
        # H(t) from the kron-chain oracle, in the joint basis, has nothing
        # between two sectors at any t, and the sectors partition the space
        system, h_dir, sizes = sector_models()[name]
        sched = ControlSchedule.sinusoidal(0.3, MU_STAR, h_dir=h_dir)
        tm = TotalModel(system, modeset(reservoir, 3), 0.3, sched)
        frame = simulate._Sectors(tm)
        assert sorted((len(s.index) for s in frame.sectors),
                      reverse=True) == sizes
        assert len(frame.sectors) <= 2 * system.dim
        label = np.empty(tm.dim_total, dtype=int)
        for k, sector in enumerate(frame.sectors):
            label[sector.index] = k
        assert np.array_equal(np.sort(np.concatenate(
            [s.index for s in frame.sectors])), np.arange(tm.dim_total))
        across = label[:, None] != label[None, :]
        for t in (0.0, 0.04, 0.11, 0.23):
            h = joint_hamiltonian(tm, frame, t)
            assert np.max(np.abs(h[across]), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("name", sorted(sector_models()))
    def test_undriven_run_against_expm(self, reservoir, name):
        # the static eigh and the sampling sector by sector, with a
        # full-rank rho_s0 that couples every pair of levels
        system, _, _ = sector_models()[name]
        d = system.dim
        modes = modeset(reservoir, 2)
        tm = TotalModel(system, modes, 0.3, None)
        a = np.eye(d) + 0.3 * np.exp(1j * np.add.outer(np.arange(d),
                                                       2 * np.arange(d)))
        rho_s0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        traj = evolve(tm, rho_s0, 3.0, 0.5)
        h = total_hamiltonian(tm, 0.0)
        rho_full = np.kron(rho_s0, thermal_reservoir_state(modes))
        for t, rho in zip(traj.times, traj.reduced_states):
            u = scipy.linalg.expm(-1j * float(t) * h)
            ref = partial_trace(u @ rho_full @ u.conj().T, [d, 4], [0])
            assert trace_distance(rho, ref) < 1e-10

    def test_bundled_scenario_splits_in_halves(self):
        path = (Path(simulate.__file__).parent / "scenarios"
                / "spin_fermion_sinusoidal.json")
        cfg = ExperimentConfig.from_file(path)
        modes = discretize_modes(cfg.form_factor, cfg.n_modes, cfg.p_max)
        for sched in (None, cfg.schedule):
            tm = TotalModel(cfg.model, modes, cfg.lam, sched)
            sizes = [len(s.index) for s in simulate._Sectors(tm).sectors]
            assert sizes == [256, 256]

    def test_zero_gate_is_shared_with_the_bohr_split(self, reservoir):
        # joint-basis entries of 1e-15 (a diagonal one and a corner pair)
        # would add the Bohr frequencies 0 and +-2 and a self-loop; the
        # one gate drops them for the Bohr keys and the sectors alike
        h3 = np.diag([1.0, 0.0, -1.0])
        path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        noise = 1e-15 * np.array([[1, 0, 1], [0, 0, 0], [1, 0, 0]])
        sched = ControlSchedule.sinusoidal(0.3, MU_STAR, h_dir=h3)
        keys, sizes = [], []
        for q in (path, path + noise):
            system = SystemModel(h3, q)
            keys.append(sorted(fourier_modes(system, sched, K=2).bohr))
            tm = TotalModel(system, modeset(reservoir, 3), 0.3, sched)
            sizes.append([len(s.index) for s in simulate._Sectors(tm).sectors])
        assert keys[0] == keys[1]
        assert {w for _, w in keys[0]} == {-1.0, 1.0}
        assert sizes[0] == sizes[1] == [12, 12]

    def test_uncoupled_bath_is_not_split_by_mode(self):
        # Phi = 0 conserves every occupation, but the split stays by parity
        ff = make_form_factor("gaussian-p", beta=1.0, scale=0.0)
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 4), 0.3, None)
        assert [len(s.index) for s in simulate._Sectors(tm).sectors] == [
            16, 16]


class TestEvolve:
    def test_zero_coupling_matches_effective(self, reservoir):
        ff = reservoir
        sched = ControlSchedule.sinusoidal(0.1, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 3), 0.0, sched)
        traj = evolve(tm, plus_state(), 1.0, 0.1, substeps_per_period=256)
        for t, rho in zip(traj.times, traj.reduced_states):
            ref = effective_dynamics(SystemModel.qubit(), sched, plus_state(),
                                     float(t))
            assert trace_distance(rho, ref) < 1e-8

    def test_free_qubit_keeps_coherence(self, reservoir):
        ff = reservoir
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 2), 0.0, None)
        traj = evolve(tm, plus_state(), 5.0, 0.5)
        coh = traj.coherence(0, 1)
        np.testing.assert_allclose(coh, coh[0], atol=1e-10)

    def test_single_mode_against_dense_diagonalization(self, reservoir):
        ff = reservoir
        modes = modeset(ff, 1)
        sched = ControlSchedule.sinusoidal(0.2, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modes, 0.3, sched)
        traj = evolve(tm, plus_state(), 1.0, 0.2, substeps_per_period=4096)
        rho_full = np.kron(plus_state(), thermal_reservoir_state(modes))
        u = np.eye(4, dtype=complex)
        for i in range(1, len(traj.times)):
            u = ordered_propagator(lambda s: total_hamiltonian(tm, s),
                                   float(traj.times[i - 1]),
                                   float(traj.times[i]), step=2e-4) @ u
            ref = partial_trace(u @ rho_full @ u.conj().T, [2, 2], [0])
            assert trace_distance(traj.reduced_states[i], ref) < 1e-8

    def test_bangbang_against_piecewise_exponentials(self, reservoir):
        # a kick of weight c multiplies the state by exp(-i c H_dir); at
        # c = pi/2 the opposite rotation differs from it by a global phase
        # only, at c = 0.3 it does not; the mixed, non-diagonal rho_s0 is a
        # full-rank initial state, where plus_state() is rank one
        ff = reservoir
        modes = modeset(ff, 2)
        mixed = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        for weight in (np.pi / 2, 0.3):
            sched = ControlSchedule.bangbang(0.5, [0.25, 0.75],
                                             [weight, -weight])
            tm = TotalModel(SystemModel.qubit(), modes, 0.2, sched)
            h = total_hamiltonian(tm, 0.0)
            kick_up = np.kron(scipy.linalg.expm(-1j * weight
                                                * np.diag([1.0, -1.0])),
                              np.eye(4))
            kick_dn = kick_up.conj().T

            def propagate(t):
                events = []
                n = 0
                while True:
                    for alpha, kick in ((0.25, kick_up), (0.75, kick_dn)):
                        tk = (n + alpha) * 0.5
                        if tk < t - 1e-12:
                            events.append((tk, kick))
                    n += 1
                    if n * 0.5 >= t:
                        break
                u = np.eye(8, dtype=complex)
                prev = 0.0
                for tk, kick in sorted(events):
                    u = kick @ scipy.linalg.expm(-1j * (tk - prev) * h) @ u
                    prev = tk
                return scipy.linalg.expm(-1j * (t - prev) * h) @ u

            # the second input reaches 124 periods through the monodromy power
            for rho_s0 in (plus_state(), mixed):
                rho_full = np.kron(rho_s0, thermal_reservoir_state(modes))
                for t_final, sample_dt in ((1.5, 0.25), (62.0, 7.75)):
                    traj = evolve(tm, rho_s0, t_final, sample_dt)
                    for i, t in enumerate(traj.times):
                        u = propagate(float(t))
                        ref = partial_trace(u @ rho_full @ u.conj().T,
                                            [2, 4], [0])
                        assert trace_distance(traj.reduced_states[i],
                                              ref) < 1e-10

    @pytest.mark.parametrize("sample_dt", [0.2, 0.1])
    def test_general_kicks_match_effective_at_zero_coupling(self, reservoir,
                                                             sample_dt):
        # at lambda = 0 the kicked run is the reference dynamics; weights
        # +-0.3 show a kick rotating the wrong way, and sample_dt = 0.1 puts
        # every other sample on a kick time, which the sample must see
        sched = ControlSchedule.bangbang(0.4, [0.25, 0.75], [0.3, -0.3])
        tm = TotalModel(SystemModel.qubit(), modeset(reservoir, 2), 0.0, sched)
        traj = evolve(tm, plus_state(), 2.0, sample_dt)
        for t, rho in zip(traj.times, traj.reduced_states):
            ref = effective_dynamics(SystemModel.qubit(), sched, plus_state(),
                                     float(t))
            assert trace_distance(rho, ref) < 1e-12

    def test_smooth_fragments_against_ordered_propagator(self, reservoir):
        # sample_dt = 2T/3 puts most samples inside a period
        ff = reservoir
        modes = modeset(ff, 1)
        sched = ControlSchedule.sinusoidal(0.3, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modes, 0.3, sched)
        traj = evolve(tm, plus_state(), 1.0, 0.2, substeps_per_period=4096)
        rho_full = np.kron(plus_state(), thermal_reservoir_state(modes))
        u = np.eye(4, dtype=complex)
        for i in range(1, len(traj.times)):
            u = ordered_propagator(lambda s: total_hamiltonian(tm, s),
                                   float(traj.times[i - 1]),
                                   float(traj.times[i]), step=2e-4) @ u
            ref = partial_trace(u @ rho_full @ u.conj().T, [2, 2], [0])
            assert trace_distance(traj.reduced_states[i], ref) < 1e-8

    @pytest.mark.parametrize("model", ["qubit", "qutrit", "spin1"])
    def test_smooth_three_modes_against_ordered_propagator(self, reservoir,
                                                           model):
        # at N = 3 the Jordan-Wigner signs of Phi matter; the qutrit's Q has
        # a diagonal part, so cos(theta Q) and sin(theta Q) are not diagonal
        # and H(t) is one sector; spin-1's Q = S_x splits it into two, each
        # with rows of both colours
        if model == "qubit":
            system, h_dir = SystemModel.qubit(), None
        elif model == "qutrit":
            h_dir = np.diag([1.0, 0.0, -1.0])
            system = SystemModel(h_dir, [[0.3, 1, 0], [1, -0.2, 1],
                                         [0, 1, 0.1]])
        else:
            h_dir = np.diag([1.0, 0.0, -1.0])
            system = SystemModel(h_dir, SPIN1_SX)
        d = system.dim
        modes = modeset(reservoir, 3)
        sched = ControlSchedule.sinusoidal(0.3, MU_STAR, h_dir=h_dir)
        tm = TotalModel(system, modes, 0.3, sched)
        rho_s0 = np.full((d, d), 1.0 / d, dtype=complex)
        traj = evolve(tm, rho_s0, 0.6, 0.2, substeps_per_period=4096)
        rho_full = np.kron(rho_s0, thermal_reservoir_state(modes))
        u = np.eye(8 * d, dtype=complex)
        for i in range(1, len(traj.times)):
            u = ordered_propagator(lambda s: total_hamiltonian(tm, s),
                                   float(traj.times[i - 1]),
                                   float(traj.times[i]), step=2e-4) @ u
            ref = partial_trace(u @ rho_full @ u.conj().T, [d, 8], [0])
            assert trace_distance(traj.reduced_states[i], ref) < 1e-8

    def test_uncoupled_bath_matches_effective(self):
        # every f_j = 0 gives g = 0: the Strang kick is the identity, not NaN
        ff = make_form_factor("gaussian-p", beta=1.0, scale=0.0)
        sched = ControlSchedule.sinusoidal(0.1, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 3), 0.3, sched)
        traj = evolve(tm, plus_state(), 1.0, 0.1, substeps_per_period=256)
        for t, rho in zip(traj.times, traj.reduced_states):
            assert np.all(np.isfinite(rho))
            ref = effective_dynamics(SystemModel.qubit(), sched, plus_state(),
                                     float(t))
            assert trace_distance(rho, ref) < 1e-12

    def test_sample_snapped_to_period_end_counts_the_period(self, reservoir):
        # with T = 0.5 + 3.75e-10 the t = 1.0 sample lies within 1e-9 of
        # 2T and is taken as offset 0 of the third period, not the second
        ff = reservoir
        modes = modeset(ff, 2)
        finals = []
        for period in (0.5, 0.500000000375):
            sched = ControlSchedule.bangbang(period, [0.25, 0.75],
                                             [np.pi / 2, -np.pi / 2])
            tm = TotalModel(SystemModel.qubit(), modes, 0.3, sched)
            traj = evolve(tm, plus_state(), 1.0, 0.5)
            assert traj.times[-1] == 1.0
            finals.append(traj.reduced_states[-1])
        assert trace_distance(*finals) < 1e-6

    def test_monodromy_defects_reach_the_checks(self, reservoir,
                                                monkeypatch):
        ff = reservoir
        sched = ControlSchedule.bangbang(0.5, [0.25, 0.75],
                                         [np.pi / 2, -np.pi / 2])
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 2), 0.2, sched)
        build = simulate._period_walk

        def distorted(factor):
            def patched(*args):
                frags, monodromies = build(*args)
                return frags, [u @ factor(len(u)) for u in monodromies]
            return patched

        # a uniform gain of 1e-9 per period shows as |lambda|^{2n} - 1
        monkeypatch.setattr(simulate, "_period_walk",
                            distorted(lambda n: (1 + 1e-9) * np.eye(n)))
        traj = evolve(tm, plus_state(), 50.0, 5.0)
        assert traj.trace_defect == pytest.approx((1 + 1e-9) ** 200 - 1,
                                                  rel=1e-4)
        # a non-normal monodromy has no exact diagonal Floquet form
        monkeypatch.setattr(simulate, "_period_walk",
                            distorted(lambda n: np.eye(n)
                                      + 1e-6 * np.eye(n, k=1)))
        with pytest.raises(NumericError) as err:
            evolve(tm, plus_state(), 1.0, 0.5)
        assert err.value.diagnostics["off_diagonal"] > 1e-10

    def test_reservoir_stationary_without_coupling(self, reservoir):
        ff = reservoir
        modes = modeset(ff, 2)
        tm = TotalModel(SystemModel.qubit(), modes, 0.0, None)
        rho_r = thermal_reservoir_state(modes)
        rho_full = np.kron(plus_state(), rho_r)
        h = total_hamiltonian(tm, 0.0)
        u = scipy.linalg.expm(-4.0j * h)
        out = partial_trace(u @ rho_full @ u.conj().T, [2, 4], [1])
        assert trace_distance(out, rho_r) < 1e-10

    def test_state_invariants_along_trajectory(self, reservoir):
        ff = reservoir
        sched = ControlSchedule.sinusoidal(0.2, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 4), 0.15, sched)
        traj = evolve(tm, plus_state(), 3.0, 0.2, substeps_per_period=256)
        assert traj.trace_defect < 1e-8
        assert traj.purity_defect < 1e-8
        for rho in traj.reduced_states:
            assert operator_norm(rho - rho.conj().T) < 1e-10
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_invalid_sampling(self, reservoir):
        ff = reservoir
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 2), 0.0, None)
        with pytest.raises(ArgumentError):
            evolve(tm, plus_state(), 1.0, 0.0)


def spin1_degenerate():
    """S_x coupling with H_s = S_z^2: S_z, the drive direction, splits the
    degenerate level, so the joint basis is not the eigenbasis of H_s."""
    h_dir = np.diag([1.0, 0.0, -1.0])
    a = np.eye(3) + 0.3 * np.exp(1j * np.add.outer(np.arange(3),
                                                   2 * np.arange(3)))
    return (SystemModel(np.diag([1.0, 0.0, 1.0]), SPIN1_SX), h_dir,
            a @ a.conj().T / np.trace(a @ a.conj().T).real)


def reduced(traj):
    return np.array(traj.reduced_states)


class TestEvolvePair:
    def test_arms_match_standalone_runs(self, reservoir):
        # the off arm runs in the driven arm's frame; on the qubit that is
        # the undriven frame, on the degenerate spin-1 it is not
        modes = modeset(reservoir, 3)
        spin1, h_dir, rho3 = spin1_degenerate()
        cases = [
            (SystemModel.qubit(), ControlSchedule.bangbang(
                0.5, [0.25, 0.75], [np.pi / 2, -np.pi / 2]),
             np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), 0.0),
            (spin1, ControlSchedule.bangbang(0.5, [0.25, 0.75], [0.3, -0.3],
                                             h_dir=h_dir), rho3, 1e-12),
        ]
        for system, sched, rho_s0, tol in cases:
            tm = TotalModel(system, modes, 0.3, sched)
            undriven = replace(tm, schedule=None)
            differs = not np.array_equal(simulate._Sectors(tm).basis,
                                         simulate._Sectors(undriven).basis)
            assert differs == (tol > 0)
            runs = evolve_pair(tm, rho_s0, 5.0, 0.5)
            off = reduced(runs["off"][0])
            alone = reduced(evolve(undriven, rho_s0, 5.0, 0.5))
            assert np.abs(off - alone).max() <= tol
            assert np.array_equal(reduced(runs["on"][0]),
                                  reduced(evolve(tm, rho_s0, 5.0, 0.5)))

    def test_smooth_pair_diagonalizes_the_static_hamiltonian_once(
            self, reservoir, monkeypatch):
        sched = ControlSchedule.sinusoidal(0.25, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modeset(reservoir, 3), 0.3, sched)
        eigh = np.linalg.eigh
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        runs = evolve_pair(tm, plus_state(), 1.0, 0.25, substeps_per_period=64)
        assert set(runs) == {"off", "on"}
        # one eigh per parity sector; the others are system-sized
        assert [n for n in sizes if n > 2] == [8, 8]

    def test_runs_leave_no_state_behind(self, reservoir):
        # a kicked pair, a smooth pair and a standalone kicked run, then
        # each again in the reverse order: every state bit for bit the same
        modes = modeset(reservoir, 3)
        kicked = TotalModel(SystemModel.qubit(), modes, 0.3,
                            ControlSchedule.bangbang(0.5, [0.25, 0.75],
                                                     [np.pi / 2, -np.pi / 2]))
        smooth = replace(kicked, schedule=ControlSchedule.sinusoidal(
            0.5, MU_STAR))
        runs = [
            lambda: [t for t, _ in evolve_pair(kicked, plus_state(), 3.0,
                                               0.5).values()],
            lambda: [t for t, _ in evolve_pair(smooth, plus_state(), 3.0, 0.5,
                                               substeps_per_period=64)
                     .values()],
            lambda: [evolve(kicked, plus_state(), 3.0, 0.5)],
        ]
        first = [[reduced(t) for t in run()] for run in runs]
        again = [[reduced(t) for t in run()] for run in reversed(runs)][::-1]
        for a, b in zip(first, again):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)


class TestComparison:
    def test_zero_deviation_at_zero_coupling(self, reservoir):
        ff = reservoir
        sched = ControlSchedule.sinusoidal(0.25, MU_STAR)
        tm = TotalModel(SystemModel.qubit(), modeset(ff, 3), 0.0, sched)
        traj = evolve(tm, plus_state(), 2.0, 0.25, substeps_per_period=256)
        report = compare_with_effective(traj, SystemModel.qubit(), sched)
        assert report.deviations[0] < 1e-12
        assert report.sup_deviation < 1e-8
        assert report.final_retention == pytest.approx(1.0, abs=1e-8)
