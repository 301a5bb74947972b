import math

import numpy as np
import pytest

import scipy.special

from decoshield.control import ControlSchedule, SystemModel, operator_norm
from decoshield.errors import DecouplingViolationError
from decoshield.reservoir import (SpectralFunction, make_form_factor,
                                  spectral_function)
from decoshield.weak_coupling import (WeakCouplingGenerator,
                                      assemble_generator, corrected_propagate,
                                      decoherence_time, level_shift, xi_rate)

from oracles import (commutator_superop, gaussian_p_weight,
                     generator_by_terms, regularized_weights)

MU_STAR = 7.554982305222015

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def setup():
    model = SystemModel.qubit()
    T = 0.5
    sched = ControlSchedule.sinusoidal(T, MU_STAR)
    ff = make_form_factor("gaussian-p", beta=1.0)
    sf = spectral_function(ff)
    gen = level_shift(model, sched, sf, 0.05)
    return model, T, sched, sf, gen


def zero_spectral(p):
    return np.zeros_like(p)


zero_spectral.p_max = 5.0


def closed_form_xi(norm, gaps, T, k_max=200):
    """sum_{k != 0, w in gaps} norm(k)^2 G(k/T + w)^2 over every k <= k_max."""
    return sum(norm(k) ** 2 * gaussian_p_weight(k / T + w) ** 2
               for k in range(-k_max, k_max + 1) if k != 0 for w in gaps)


def two_kick_norm(k):
    return 2.0 / (math.pi * abs(k)) if k % 2 else 0.0


class TestAssembly:
    def test_zero_coupling_gives_zero_generator(self, setup):
        model, T, sched, sf, _ = setup
        gen0 = level_shift(model, sched, sf, 0.0)
        assert operator_norm(gen0.a2) == 0.0
        assert operator_norm(gen0.s_matrix) == 0.0

    def test_zero_mode_terms_absent(self, setup):
        _, _, _, _, gen = setup
        assert gen.terms
        for key in gen.terms:
            assert key[0] != 0

    def test_even_in_coupling_sign(self, setup):
        model, T, sched, sf, gen = setup
        gen_neg = level_shift(model, sched, sf, -0.05)
        np.testing.assert_array_equal(gen.a2, gen_neg.a2)

    def test_nonnegative_dissipator_weights(self, setup):
        _, _, _, _, gen = setup
        assert gen.terms
        assert all(g >= 0.0 for _, g, _ in gen.terms.values())

    def test_assembly_matches_term_by_term_sum(self):
        # the stacked assembly against a kron sum per term, d = 3
        terms = {}
        for k in range(1, 6):
            q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            terms[(k, 0.5)] = (q, float(rng.random()),
                               float(rng.standard_normal()))
        ref = generator_by_terms(terms, 0.3)
        got = assemble_generator(terms, 0.3)
        assert operator_norm(got - ref) < 1e-13 * operator_norm(ref)
        b = rng.standard_normal((3, 3))
        q, g, pv = terms[(1, 0.5)]
        qq = q.conj().T @ q
        one = assemble_generator({(1, 0.5): terms[(1, 0.5)]}, 0.3)
        expect = -0.045j * (math.pi * g * (2 * q.conj().T @ b @ q - qq @ b
                                           - b @ qq) + 1j * pv * (b @ qq - qq @ b))
        np.testing.assert_allclose((one @ b.reshape(-1)).reshape(3, 3), expect,
                                   atol=1e-13)

    @pytest.mark.parametrize("kind", ["sinusoidal", "bangbang"])
    def test_spectral_weight_called_on_arrays_a_few_times(self, setup, kind):
        # G once on every kept comb point, and the PVs of all of them in
        # one batched call; a per-point path would call G thousands of times
        _, _, _, sf, _ = setup
        sched = (ControlSchedule.sinusoidal(1.2, MU_STAR) if kind == "sinusoidal"
                 else ControlSchedule.bangbang(1.2, [0.3, 0.8],
                                               [math.pi / 2, -math.pi / 2]))
        shapes = []

        def counting(p):
            shapes.append(np.shape(p))
            return sf(p)

        counting.p_max = sf.p_max
        gen = level_shift(SystemModel.qubit(), sched, counting, 0.05)
        assert len(gen.terms) > 10
        assert any(pv != 0.0 for _, _, pv in gen.terms.values())
        assert len(shapes) <= 8
        assert all(len(shape) >= 1 for shape in shapes)
        assert (len(gen.terms),) in shapes

    def test_requires_decoupled_schedule(self, setup):
        model, T, _, sf, _ = setup
        with pytest.raises(DecouplingViolationError):
            level_shift(model, ControlSchedule.sinusoidal(T, 1.0), sf, 0.05)

    def test_truncation_stability(self, setup):
        # widening the support window adds comb points where G vanishes
        model, T, sched, sf, gen = setup
        wide = SpectralFunction(ff=sf.ff, p_max=1.5 * sf.p_max)
        gen_wide = level_shift(model, sched, wide, 0.05)
        assert len(gen_wide.terms) > len(gen.terms)
        for key, (qk, g, pv) in gen.terms.items():
            qw, gw, pvw = gen_wide.terms[key]
            np.testing.assert_array_equal(qk, qw)
            assert g == gw
            assert pv == pytest.approx(pvw, rel=1e-9)
        assert abs(xi_rate(gen) - xi_rate(gen_wide)) < 1e-10


class TestRegularizedResolventOracle:
    def test_entries_match_extrapolated_construction(self, setup):
        # rebuild the generator with weights from the smoothed resolvent
        model, T, sched, sf, gen = setup
        terms = {}
        for (k, w), (qk, _, _) in gen.terms.items():
            d, s = regularized_weights(sf, k / T + w)
            terms[(k, w)] = (qk, d / math.pi, s)
        oracle = assemble_generator(terms, gen.lam)
        scale = operator_norm(gen.a2)
        assert scale > 0
        assert operator_norm(oracle - gen.a2) < 1e-4 * scale


class TestDeltaStructure:
    # Delta(B) = B S - S B = -[S, B], built here from the shift matrix S

    def test_commutes_with_free_liouvillian(self, setup):
        model, _, _, _, gen = setup
        delta = -commutator_superop(gen.s_matrix)
        l_s = commutator_superop(model.h_s)
        comm = delta @ l_s - l_s @ delta
        assert operator_norm(comm) < 1e-10

    def test_annihilates_diagonal_states(self, setup):
        _, _, _, _, gen = setup
        s = gen.s_matrix
        for _ in range(5):
            diag = np.diag(rng.standard_normal(2)).astype(complex)
            assert operator_norm(diag @ s - s @ diag) < 1e-14

    def test_quadratic_coupling_scaling(self, setup):
        model, T, sched, sf, gen = setup
        gen2 = level_shift(model, sched, sf, 0.10)
        np.testing.assert_allclose(-commutator_superop(gen2.s_matrix),
                                   -4.0 * commutator_superop(gen.s_matrix),
                                   atol=1e-14)

    def test_shift_matrix_hermitian_diagonal(self, setup):
        _, _, _, _, gen = setup
        s = gen.s_matrix
        assert operator_norm(s - s.conj().T) < 1e-14
        assert abs(s[0, 1]) < 1e-14


class TestRates:
    def test_zero_spectral_weight(self, setup):
        model, T, sched, _, _ = setup
        gen = level_shift(model, sched, zero_spectral, 0.05)
        assert xi_rate(gen) == 0.0

    def test_nonnegative(self, setup):
        _, _, _, _, gen = setup
        assert xi_rate(gen) >= 0.0

    def test_brute_force_mode_sum(self, setup):
        # independent re-summation from the Bessel-identity mode norms
        model, T, sched, sf, gen = setup
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

    @pytest.mark.parametrize("T", [1.2, 3.0])
    def test_two_kick_xi_matches_closed_form(self, setup, T):
        # every odd ring inside the support counts, not only k = +-1
        _, _, _, sf, _ = setup
        sched = ControlSchedule.bangbang(T, [0.3, 0.8],
                                         [math.pi / 2, -math.pi / 2])
        gen = level_shift(SystemModel.qubit(), sched, sf, 0.05)
        expect = closed_form_xi(two_kick_norm, (-2.0, 2.0), T)
        assert xi_rate(gen) == pytest.approx(expect, rel=1e-9)

    def test_non_unit_gap_qubit_xi_matches_closed_form(self, setup):
        # H_s = diag(0.5, -0.5): Bohr frequencies +-1, comb points k/T +- 1
        _, _, _, sf, _ = setup
        T = 0.7
        model = SystemModel(np.diag([0.5, -0.5]), np.array([[0, 1], [1, 0]]))
        gen = level_shift(model, ControlSchedule.sinusoidal(T, MU_STAR), sf,
                          0.05)
        assert {w for _, w in gen.terms} == {-1.0, 1.0}
        z = MU_STAR / math.pi
        expect = closed_form_xi(lambda k: scipy.special.jv(k, z),
                                (-1.0, 1.0), T)
        assert expect > 1e-3
        assert xi_rate(gen) == pytest.approx(expect, rel=1e-9)

    def test_slow_drive_sums_modes_past_a_fixed_grid(self, setup):
        # T = 1000: comb points k/T +- 2e-3 reach |k| = 7,200, past the
        # 4,096-point phase grid, where mode 4097 would alias onto mode 1
        _, _, _, sf, _ = setup
        T = 1000.0
        model = SystemModel(np.diag([1e-3, -1e-3]),
                            np.array([[0, 1], [1, 0]]))
        gen = level_shift(model, ControlSchedule.sinusoidal(T, MU_STAR), sf,
                          0.05)
        assert gen.k_used > 4096
        z = MU_STAR / math.pi
        expect = closed_form_xi(lambda k: scipy.special.jv(k, z),
                                (-2e-3, 2e-3), T, k_max=8000)
        assert xi_rate(gen) == pytest.approx(expect, rel=1e-9)

    def test_decoherence_time_closed_form(self):
        fake = WeakCouplingGenerator(
            model=SystemModel.qubit(), a2=np.zeros((4, 4)),
            s_matrix=np.zeros((2, 2)),
            terms={(1, -2.0): (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 0.0)},
            k_used=1, lam=0.1, period=0.5)
        summary = decoherence_time(fake, c_const=0.0)
        assert summary.xi == pytest.approx(1.0)
        assert summary.t_dec == pytest.approx(1.0 / (2 * math.pi * 0.01),
                                              rel=1e-12)

    def test_quarter_on_doubled_coupling(self, setup):
        model, T, sched, sf, _ = setup
        t1 = decoherence_time(level_shift(model, sched, sf, 0.05),
                              c_const=0.0).t_dec
        t2 = decoherence_time(level_shift(model, sched, sf, 0.10),
                              c_const=0.0).t_dec
        assert t1 == pytest.approx(4.0 * t2, rel=1e-12)

    def test_infinite_time_at_zero_coupling(self, setup):
        model, T, sched, sf, _ = setup
        gen = level_shift(model, sched, sf, 0.0)
        assert decoherence_time(gen).t_dec == math.inf


class TestCorrectedPropagation:
    def test_reduces_to_free_phases_without_shift(self, setup):
        model, _, _, _, gen = setup
        gen0 = level_shift(model,
                           ControlSchedule.sinusoidal(gen.period, MU_STAR),
                           zero_spectral, 0.05)
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        from decoshield.control import effective_dynamics
        off = ControlSchedule.off(period=gen.period)
        for t in (0.3, 2.0, 9.5):
            got = corrected_propagate(gen0, rho0, t)
            ref = effective_dynamics(model, off, rho0, t)
            assert operator_norm(got - ref) < 1e-12

    def test_moduli_and_populations_preserved(self, setup):
        _, _, _, _, gen = setup
        vec = np.array([np.sqrt(0.4), np.sqrt(0.6) * np.exp(1.1j)])
        rho0 = np.outer(vec, vec.conj())
        for t in np.linspace(0.0, 100.0, 41):
            rho = corrected_propagate(gen, rho0, float(t))
            assert abs(abs(rho[0, 1]) - abs(rho0[0, 1])) < 1e-12
            assert abs(rho[0, 0] - rho0[0, 0]) < 1e-12

    def test_shift_changes_phase_but_not_modulus(self, setup):
        model, _, _, _, gen = setup
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
