import math

import numpy as np
import pytest

from decoshield.control import (ControlSchedule, SystemModel, fourier_modes,
                                operator_norm)
from decoshield.errors import DecouplingViolationError, UnsupportedModelError
from decoshield.reservoir import make_form_factor, spectral_function
from decoshield.weak_coupling import (WeakCouplingGenerator,
                                      assemble_generator, corrected_propagate,
                                      decoherence_time, level_shift, xi_rate)

from oracles import commutator_superop, regularized_weights

MU_STAR = 7.554982305222015

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def setup():
    model = SystemModel.qubit()
    T = 0.5
    sched = ControlSchedule.sinusoidal(T, MU_STAR)
    ff = make_form_factor("gaussian-p", beta=1.0)
    sf = spectral_function(ff)
    table = fourier_modes(model, sched)
    gen = level_shift(model, table, sf, T, 0.05,
                      control_strength=sched.strength())
    return model, T, sched, sf, table, gen


def zero_spectral(p):
    return 0.0


zero_spectral.p_max = 5.0


class TestAssembly:
    def test_zero_coupling_gives_zero_generator(self, setup):
        model, T, sched, sf, table, _ = setup
        gen0 = level_shift(model, table, sf, T, 0.0)
        assert operator_norm(gen0.a2) == 0.0
        assert operator_norm(gen0.s_matrix) == 0.0

    def test_zero_mode_terms_absent(self, setup):
        _, _, _, _, _, gen = setup
        for key in gen.dissipator_weights:
            assert key[0] != 0

    def test_even_in_coupling_sign(self, setup):
        model, T, sched, sf, table, gen = setup
        gen_neg = level_shift(model, table, sf, T, -0.05)
        np.testing.assert_array_equal(gen.a2, gen_neg.a2)

    def test_nonnegative_dissipator_weights(self, setup):
        _, _, _, _, _, gen = setup
        assert gen.dissipator_weights
        assert all(w >= 0.0 for w in gen.dissipator_weights.values())

    def test_requires_decoupled_schedule(self, setup):
        model, T, _, sf, _, _ = setup
        bad_table = fourier_modes(model, ControlSchedule.sinusoidal(T, 1.0))
        with pytest.raises(DecouplingViolationError):
            level_shift(model, bad_table, sf, T, 0.05)

    def test_rejects_non_qubit(self, setup):
        _, T, _, sf, table, _ = setup
        model3 = SystemModel(np.diag([1.0, 0.0, -1.0]),
                             np.ones((3, 3)) - np.eye(3))
        with pytest.raises(UnsupportedModelError):
            level_shift(model3, table, sf, T, 0.05)

    def test_truncation_stability(self, setup):
        model, T, sched, sf, _, _ = setup
        t16 = fourier_modes(model, sched, K=16)
        t32 = fourier_modes(model, sched, K=32)
        g16 = level_shift(model, t16, sf, T, 0.05, tail_tol=0.0)
        g32 = level_shift(model, t32, sf, T, 0.05, tail_tol=0.0)
        assert abs(xi_rate(g16) - xi_rate(g32)) < 1e-10
        assert operator_norm(g16.a2 - g32.a2) < 1e-10


class TestRegularizedResolventOracle:
    def test_entries_match_extrapolated_construction(self, setup):
        # rebuild the generator with weights from the smoothed resolvent
        model, T, sched, sf, table, gen = setup
        diss, pvs = {}, {}
        for key in gen.dissipator_weights:
            k, a = key
            x = k / T + 2.0 * a
            d, s = regularized_weights(sf, x)
            diss[key] = d
            pvs[key] = s
        oracle = assemble_generator(table.ladder, diss, pvs, gen.lam, dim=2)
        scale = operator_norm(gen.a2)
        assert scale > 0
        assert operator_norm(oracle - gen.a2) < 1e-4 * scale


class TestDeltaStructure:
    # Delta(B) = B S - S B = -[S, B], built here from the shift matrix S

    def test_commutes_with_free_liouvillian(self, setup):
        model, _, _, _, _, gen = setup
        delta = -commutator_superop(gen.s_matrix)
        l_s = commutator_superop(model.h_s)
        comm = delta @ l_s - l_s @ delta
        assert operator_norm(comm) < 1e-10

    def test_annihilates_diagonal_states(self, setup):
        _, _, _, _, _, gen = setup
        s = gen.s_matrix
        for _ in range(5):
            diag = np.diag(rng.standard_normal(2)).astype(complex)
            assert operator_norm(diag @ s - s @ diag) < 1e-14

    def test_quadratic_coupling_scaling(self, setup):
        model, T, sched, sf, table, gen = setup
        gen2 = level_shift(model, table, sf, T, 0.10)
        np.testing.assert_allclose(-commutator_superop(gen2.s_matrix),
                                   -4.0 * commutator_superop(gen.s_matrix),
                                   atol=1e-14)

    def test_shift_matrix_hermitian_diagonal(self, setup):
        _, _, _, _, _, gen = setup
        s = gen.s_matrix
        assert operator_norm(s - s.conj().T) < 1e-14
        assert abs(s[0, 1]) < 1e-14


class TestRates:
    def test_zero_spectral_weight(self, setup):
        model, T, sched, _, table, _ = setup
        gen = level_shift(model, table, zero_spectral, T, 0.05)
        assert xi_rate(gen) == 0.0

    def test_nonnegative(self, setup):
        _, _, _, _, _, gen = setup
        assert xi_rate(gen) >= 0.0

    def test_brute_force_mode_sum(self, setup):
        # independent re-summation from the Bessel-identity mode norms
        import scipy.special

        model, T, sched, sf, table, gen = setup
        z = MU_STAR / math.pi
        total = 0.0
        for k in range(1, 10_001):
            nq2 = scipy.special.jv(k, z) ** 2
            if nq2 == 0.0:
                continue
            for sk in (k, -k):
                for a in (-1, 1):
                    total += nq2 * float(sf(sk / T + 2.0 * a)) ** 2
        assert xi_rate(gen) == pytest.approx(total, abs=1e-10)

    def test_decoherence_time_closed_form(self):
        fake = WeakCouplingGenerator(
            model=SystemModel.qubit(), a2=np.zeros((4, 4)),
            s_matrix=np.zeros((2, 2)),
            dissipator_weights={(1, -1): 1.0}, pv_coefficients={(1, -1): 0.0},
            jump_norms={(1, -1): 1.0}, g_values={(1, -1): 1.0},
            k_used=1, tail_bound=0.0, lam=0.1, period=0.5)
        summary = decoherence_time(fake, c_const=0.0)
        assert summary.xi == pytest.approx(1.0)
        assert summary.t_dec == pytest.approx(1.0 / (2 * math.pi * 0.01),
                                              rel=1e-12)

    def test_quarter_on_doubled_coupling(self, setup):
        model, T, sched, sf, table, _ = setup
        t1 = decoherence_time(level_shift(model, table, sf, T, 0.05),
                              c_const=0.0).t_dec
        t2 = decoherence_time(level_shift(model, table, sf, T, 0.10),
                              c_const=0.0).t_dec
        assert t1 == pytest.approx(4.0 * t2, rel=1e-12)

    def test_infinite_time_at_zero_coupling(self, setup):
        model, T, sched, sf, table, _ = setup
        gen = level_shift(model, table, sf, T, 0.0)
        assert decoherence_time(gen).t_dec == math.inf


class TestCorrectedPropagation:
    def test_reduces_to_free_phases_without_shift(self, setup):
        model, _, _, _, _, gen = setup
        gen0 = level_shift(model,
                           fourier_modes(model, ControlSchedule.sinusoidal(
                               gen.period, MU_STAR)),
                           zero_spectral, gen.period, 0.05)
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        from decoshield.control import effective_dynamics
        off = ControlSchedule.off(period=gen.period)
        for t in (0.3, 2.0, 9.5):
            got = corrected_propagate(gen0, rho0, t)
            ref = effective_dynamics(model, off, rho0, t)
            assert operator_norm(got - ref) < 1e-12

    def test_moduli_and_populations_preserved(self, setup):
        _, _, _, _, _, gen = setup
        vec = np.array([np.sqrt(0.4), np.sqrt(0.6) * np.exp(1.1j)])
        rho0 = np.outer(vec, vec.conj())
        for t in np.linspace(0.0, 100.0, 41):
            rho = corrected_propagate(gen, rho0, float(t))
            assert abs(abs(rho[0, 1]) - abs(rho0[0, 1])) < 1e-12
            assert abs(rho[0, 0] - rho0[0, 0]) < 1e-12

    def test_shift_changes_phase_but_not_modulus(self, setup):
        model, _, _, _, _, gen = setup
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        t = 40.0
        shifted = corrected_propagate(gen, rho0, t)
        h_only = (np.diag(np.exp(-1j * t * np.array([1.0, -1.0])))
                  @ rho0 @ np.diag(np.exp(1j * t * np.array([1.0, -1.0]))))
        # the level shift is tiny but nonzero; phases must differ
        assert gen.s_matrix[1, 1] != 0.0
        assert np.angle(shifted[0, 1]) != pytest.approx(
            np.angle(h_only[0, 1]), abs=1e-15)
        assert abs(shifted[0, 1]) == pytest.approx(0.5, abs=1e-12)
