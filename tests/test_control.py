import numpy as np
import pytest
import scipy.special

import decoshield.control as control
from decoshield.control import (DD_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z,
                                ControlSchedule, SystemModel, check_dd,
                                cosine_profile, effective_dynamics,
                                fourier_modes, operator_norm, tune_amplitude)
from decoshield.errors import (ArgumentError, DecouplingViolationError,
                               TuneSearchError)

from decoshield.reservoir import make_form_factor, spectral_function
from decoshield.weak_coupling import level_shift

from oracles import (bessel_j_series, qka_bangbang_closed_form,
                     reference_state, rotated_coupling, tuned_amplitude,
                     zero_mode_surrogate)

MU_STAR = 7.554982305222015  # pi * first zero of J_0

rng = np.random.default_rng(11)


def tuned_schedule(period=0.1):
    return ControlSchedule.sinusoidal(period, MU_STAR)


def two_kick(period=1.0, alpha1=0.25):
    # half-period kick spacing with +-pi/2 weights nulls the zero mode
    return ControlSchedule.bangbang(period, [alpha1, alpha1 + 0.5],
                                    [np.pi / 2, -np.pi / 2])


MIXED = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])


def sinusoid_phase(mu, period, t):
    return mu * np.sin(2 * np.pi * np.asarray(t) / period) / (2 * np.pi)


class TestControlPropagator:
    # V_c(t)* as the reference dynamics applies it, against expm
    def test_no_control_is_identity(self):
        model, off = SystemModel.qubit(), ControlSchedule.off(period=0.3)
        ts = np.array([0.0, 0.17, 2.5])
        for t, state in zip(ts, effective_dynamics(model, off, MIXED, ts)):
            np.testing.assert_allclose(
                state, reference_state(model.h_s, off.h_dir, MIXED, t, 0.0),
                atol=1e-12)

    def test_sinusoidal_closed_form(self):
        model, sched = SystemModel.qubit(), ControlSchedule.sinusoidal(0.4, 2.3)
        ts = rng.uniform(0, 2, size=8)
        phis = sinusoid_phase(2.3, 0.4, ts)
        for t, phi, state in zip(ts, phis,
                                 effective_dynamics(model, sched, MIXED, ts)):
            np.testing.assert_allclose(
                state, reference_state(model.h_s, SIGMA_Z, MIXED, t, phi),
                atol=1e-12)

    def test_unitarity(self):
        # a unitary propagator keeps the state Hermitian with its spectrum
        spectrum = np.linalg.eigvalsh(MIXED)
        for state in effective_dynamics(SystemModel.qubit(), tuned_schedule(),
                                        MIXED, rng.uniform(0, 5, size=20)):
            assert operator_norm(state - state.conj().T) < 1e-12
            np.testing.assert_allclose(np.linalg.eigvalsh(state), spectrum,
                                       atol=1e-12)

    def test_negative_time_rejected(self):
        for t in (-0.1, np.array([0.0, 0.3, -0.1])):
            with pytest.raises(ArgumentError):
                effective_dynamics(SystemModel.qubit(), tuned_schedule(),
                                   MIXED, t)

    def test_antiderivative_offset_is_ignored(self):
        # phi(t) = mu (K(t/T) - K(0)) over the first period: an
        # antiderivative with K(0) = 5 gives the same control as K(0) = 0
        kappa, kint = cosine_profile()
        shifted = ControlSchedule.smooth(0.1, MU_STAR, np.diag([1.0, -1.0]),
                                         kappa, lambda x: 5 + kint(x))
        model, ts = SystemModel.qubit(), np.array([0.0, 0.03, 0.1, 0.37])
        states = effective_dynamics(model, shifted, MIXED, ts)
        np.testing.assert_allclose(states[0], MIXED, atol=1e-14)
        np.testing.assert_allclose(
            states, effective_dynamics(model, tuned_schedule(), MIXED, ts),
            atol=1e-12)
        report = check_dd(SystemModel.qubit(), shifted)
        assert report.passed
        assert report.periodicity_defect < 1e-12


def rotated_back(model, schedule, t):
    """The frame's rotated coupling at time t, in the original basis."""
    frame = control._CouplingFrame(model, schedule.h_dir)
    return frame.back(frame.rotated(float(schedule.phase(t))))


class TestRotatedCoupling:
    def test_initial_value(self):
        model = SystemModel.qubit()
        np.testing.assert_allclose(rotated_back(model, tuned_schedule(), 0.0),
                                   model.q, atol=1e-14)

    def test_offdiagonal_phases(self):
        model = SystemModel.qubit()
        sched = ControlSchedule.sinusoidal(0.5, 1.7)
        for t in rng.uniform(0, 1, size=6):
            qt = rotated_back(model, sched, float(t))
            phi = sinusoid_phase(1.7, 0.5, t)
            np.testing.assert_allclose(
                qt, rotated_coupling(model.q, SIGMA_Z, phi), atol=1e-12)
            phase = np.exp(-1j * (1.7 / np.pi) * np.sin(2 * np.pi * t / 0.5))
            assert qt[0, 1] == pytest.approx(phase, abs=1e-12)
            assert qt[0, 0] == pytest.approx(0.0, abs=1e-13)

    def test_norm_invariance(self):
        # a complex coupling on the rotated qubit, where the frame is not
        # the computational basis
        model = SystemModel(SIGMA_X, SIGMA_Z + 0.4 * SIGMA_Y)
        sched = ControlSchedule.sinusoidal(0.1, MU_STAR, h_dir=SIGMA_X)
        for t in rng.uniform(0, 3, size=10):
            qt = rotated_back(model, sched, float(t))
            phi = sinusoid_phase(MU_STAR, 0.1, t)
            np.testing.assert_allclose(
                qt, rotated_coupling(model.q, SIGMA_X, phi), atol=1e-12)
            assert operator_norm(qt) == pytest.approx(operator_norm(model.q),
                                                      abs=1e-12)


class TestCheckDD:
    def test_tuned_schedule_passes(self):
        report = check_dd(SystemModel.qubit(), tuned_schedule())
        assert report.passed
        assert report.zero_mode_norm < 1e-8
        assert report.residual < report.tolerance

    def test_detuned_residual_matches_bessel(self):
        # zero mode of the off-diagonal phase is J_0(mu/pi)
        report = check_dd(SystemModel.qubit(),
                          ControlSchedule.sinusoidal(0.1, 1.0))
        assert not report.passed
        expect = abs(bessel_j_series(0, 1.0 / np.pi))
        assert report.zero_mode_norm == pytest.approx(expect, abs=1e-9)
        assert report.residual == pytest.approx(expect, abs=1e-7)

    def test_no_control_residual_is_coupling_norm(self):
        model = SystemModel.qubit()
        report = check_dd(model, ControlSchedule.off(period=0.1))
        assert not report.passed
        assert report.residual == pytest.approx(operator_norm(model.q),
                                                abs=1e-10)

    def test_two_kick_passes(self):
        report = check_dd(SystemModel.qubit(), two_kick())
        assert report.passed
        assert report.residual < report.tolerance

    def test_residual_on_non_periodic_schedule(self):
        # kappa = 1 + cos(2 pi x) has nonzero mean, so Q(t) is not periodic
        # and the window integral depends on where the window starts
        import scipy.integrate

        period, mu = 0.3, 1.3
        sched = ControlSchedule.smooth(
            period, mu, np.diag([1.0, -1.0]),
            lambda x: 1 + np.cos(2 * np.pi * x),
            lambda x: x + np.sin(2 * np.pi * x) / (2 * np.pi))
        report = check_dd(SystemModel.qubit(), sched)
        assert report.periodicity_defect > 0.1

        def window(t0):
            # Q(s)[0, 1] = exp(-2 i phi(s)) with the unwrapped phase
            def entry(s):
                x = s / period
                return np.exp(-2j * mu * (x + np.sin(2 * np.pi * x) / (2 * np.pi)))

            val, _ = scipy.integrate.quad(entry, t0, t0 + period,
                                          epsabs=1e-13, complex_func=True)
            return abs(val) / period

        windows = [window(t0) for t0 in
                   np.linspace(0.0, period, 16, endpoint=False)]
        assert max(windows) - min(windows) > 0.1
        assert report.residual == pytest.approx(max(windows), abs=1e-9)


class TestWindowIntegrals:
    # H_s and H_dir with several distinct Bohr differences dw in {0, ..., 3}
    H_DIR = np.diag([1.0, 0.0, -2.0])

    @staticmethod
    def model():
        a = np.random.default_rng(5).normal(size=(3, 3, 2)) @ [1.0, 1.0j]
        return SystemModel(np.diag([1.0, 0.0, -1.0]), a + a.conj().T)

    @pytest.mark.parametrize("profile", ["sinusoid", "one-plus-cosine"])
    def test_windows_against_entrywise_quadrature(self, profile):
        import scipy.integrate

        period, mu = 0.3, 2.2
        if profile == "sinusoid":
            sched = ControlSchedule.sinusoidal(period, mu, h_dir=self.H_DIR)

            def phi(s):
                return mu * np.sin(2 * np.pi * s / period) / (2 * np.pi)
        else:
            sched = ControlSchedule.smooth(
                period, mu, self.H_DIR, lambda x: 1 + np.cos(2 * np.pi * x),
                lambda x: x + np.sin(2 * np.pi * x) / (2 * np.pi))

            def phi(s):
                x = s / period
                return mu * (x + np.sin(2 * np.pi * x) / (2 * np.pi))
        model = self.model()
        frame = control._CouplingFrame(model, sched.h_dir)
        windows = frame.back(control._windows(frame, sched))
        assert windows.shape == (16, 3, 3)
        h = np.diag(self.H_DIR)
        norms = []
        for t0, got in zip(np.linspace(0.0, period, 16, endpoint=False),
                           windows):
            expect = np.empty((3, 3), dtype=complex)
            for m in range(3):
                for n in range(3):
                    val, _ = scipy.integrate.quad(
                        lambda s: np.exp(-1j * phi(s) * (h[m] - h[n])),
                        t0, t0 + period, epsabs=1e-13, complex_func=True)
                    expect[m, n] = model.q[m, n] * val / period
            assert np.abs(got - expect).max() < 1e-9
            norms.append(operator_norm(expect))
        if profile == "sinusoid":
            # Q(t) is periodic: every window is T times the zero mode
            assert max(norms) - min(norms) < 1e-9
        else:
            # Q(t) is not periodic: the window depends on where it starts
            assert max(norms) - min(norms) > 0.1
        assert check_dd(model, sched).residual == pytest.approx(max(norms),
                                                                abs=1e-9)


class TestEquivalenceOfFormulations:
    def test_ten_random_schedules(self):
        model = SystemModel.qubit()
        schedules = []
        for _ in range(3):
            schedules.append(two_kick(alpha1=float(rng.uniform(0.05, 0.45))))
        for _ in range(2):
            schedules.append(tuned_schedule(float(rng.uniform(0.05, 0.5))))
        for _ in range(3):
            schedules.append(ControlSchedule.sinusoidal(
                0.2, float(rng.uniform(1.0, 5.0))))
        for _ in range(2):
            a1 = float(rng.uniform(0.05, 0.3))
            schedules.append(ControlSchedule.bangbang(
                1.0, [a1, a1 + 0.35], [np.pi / 2, -np.pi / 2]))
        verdicts = []
        for sched in schedules:
            rep = check_dd(model, sched, tol=1e-7)
            assert rep.passed == (rep.residual < rep.tolerance)
            verdicts.append(rep.passed)
        assert verdicts.count(True) == 5
        assert verdicts.count(False) == 5


class TestSchedulingProperties:
    def test_rescaling_preserves_verdict_and_strength(self):
        model = SystemModel.qubit()
        pairs = ((tuned_schedule(0.1),
                  ControlSchedule.sinusoidal(0.037, MU_STAR)),
                 (two_kick(1.0),
                  ControlSchedule.bangbang(0.037, [0.25, 0.75],
                                           [np.pi / 2, -np.pi / 2])))
        for sched, scaled in pairs:
            assert check_dd(model, scaled).passed
            assert scaled.strength() == pytest.approx(sched.strength(),
                                                      abs=1e-10)

    def test_minimum_control_strength(self):
        # any schedule nulling a nonzero coupling needs ln(2)/(2T) of drive
        model = SystemModel.qubit()
        for sched in (tuned_schedule(0.1), tuned_schedule(0.37), two_kick()):
            assert check_dd(model, sched).passed
            bound = np.log(2.0) / (2.0 * sched.period)
            assert sched.max_control_norm() >= bound

    def test_zero_sum_weights_enforced(self):
        with pytest.raises(ArgumentError):
            ControlSchedule.bangbang(1.0, [0.3, 0.6], [1.0, -0.5])

    def test_kick_ordering_enforced(self):
        with pytest.raises(ArgumentError):
            ControlSchedule.bangbang(1.0, [0.6, 0.3], [1.0, -1.0])


SPIN1_X = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2)
SPIN1_Z = np.diag([1.0, 0.0, -1.0])


def _rotated_spin1():
    # a generic basis, and a Q with H_dir level differences 1 and 2, so
    # the reference entry mixes several differences
    gen = np.random.default_rng(5)
    u, _ = np.linalg.qr(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)))
    q = SPIN1_X + 0.6 * np.fliplr(np.eye(3)) * (1 - np.eye(3))
    h = u @ SPIN1_Z @ u.conj().T
    return h, u @ q @ u.conj().T, h


# (H_s, Q, H_dir, kappa, kappa_integral or None, bracket)
TUNE_CASES = {
    "complex-coupling qubit": (SIGMA_Z, np.cos(0.7) * SIGMA_X
                               + np.sin(0.7) * SIGMA_Y, SIGMA_Z,
                               *cosine_profile(), (6.0, 9.0)),
    "spin-1": (SPIN1_Z, SPIN1_X, SPIN1_Z, *cosine_profile(), (14.0, 16.5)),
    "rotated spin-1": (*_rotated_spin1(), *cosine_profile(), (13.0, 16.0)),
    "numeric antiderivative": (
        SIGMA_Z, SIGMA_X, SIGMA_Z,
        lambda x: (np.cos(2 * np.pi * x) + 0.4 * np.sin(4 * np.pi * x)
                   + 0.3 * np.cos(6 * np.pi * x)), None, (6.0, 9.0)),
}


class TestTuneAmplitude:
    sched = ControlSchedule.sinusoidal(0.1, 1.0)

    def test_finds_bessel_zero(self):
        mu = tune_amplitude(SystemModel.qubit(), self.sched, (6.0, 9.0))
        assert abs(mu - np.pi * 2.4048255577) < 1e-6
        # independent series check: J_0 vanishes at mu/pi
        assert abs(bessel_j_series(0, mu / np.pi)) < 1e-10

    @pytest.mark.parametrize("period", [0.05, 0.1, 1.2])
    def test_sinusoid_matches_oracle(self, period):
        sched = ControlSchedule.sinusoidal(period, 1.0)
        mu = tune_amplitude(SystemModel.qubit(), sched, (6.0, 9.0))
        oracle = tuned_amplitude(SIGMA_X, SIGMA_Z, sched.kappa_integral, 6.0, 9.0)
        assert abs(mu - oracle) <= 1e-12
        assert abs(mu - np.pi * scipy.special.jn_zeros(0, 1)[0]) <= 1e-12

    @pytest.mark.parametrize("case", list(TUNE_CASES))
    def test_matches_oracle(self, case):
        h_s, q, h_dir, kappa, kint, (lo, hi) = TUNE_CASES[case]
        sched = ControlSchedule.smooth(0.2, 1.0, h_dir, kappa, kint)
        mu = tune_amplitude(SystemModel(h_s, q), sched, (lo, hi))
        # the oracle shares only the profile's antiderivative (the definition
        # of the phase; numeric when none is given), not the frame or the FFT
        assert abs(mu - tuned_amplitude(q, h_dir, sched.kappa_integral, lo, hi)) \
            <= 1e-12

    def test_no_root_in_bracket(self):
        with pytest.raises(TuneSearchError) as err:
            tune_amplitude(SystemModel.qubit(), self.sched, (0.1, 1.0))
        assert len(err.value.scan) == 33
        for mu, val in err.value.scan:
            oracle = zero_mode_surrogate(SIGMA_X, SIGMA_Z,
                                         self.sched.kappa_integral, mu)
            assert abs(val - oracle) <= 1e-13

    def test_idempotent(self):
        mu1 = tune_amplitude(SystemModel.qubit(), self.sched, (6.0, 9.0))
        mu2 = tune_amplitude(SystemModel.qubit(), self.sched,
                             (mu1 - 0.1, mu1 + 0.1))
        assert abs(mu1 - mu2) < 1e-8

    def test_kick_schedule_rejected(self):
        with pytest.raises(ArgumentError):
            tune_amplitude(SystemModel.qubit(), two_kick(), (6.0, 9.0))

    def test_one_frame_and_one_phase_grid_per_search(self, monkeypatch):
        # the phase is linear in mu: a search must not rebuild the frame
        # or the phase grid per amplitude
        counts = {"frame": 0, "phase": 0}
        frame_init, phase = control._CouplingFrame.__init__, ControlSchedule.phase

        def counting_frame(self, *args):
            counts["frame"] += 1
            frame_init(self, *args)

        def counting_phase(self, t):
            counts["phase"] += 1
            return phase(self, t)

        monkeypatch.setattr(control._CouplingFrame, "__init__", counting_frame)
        monkeypatch.setattr(ControlSchedule, "phase", counting_phase)
        tune_amplitude(SystemModel.qubit(), self.sched, (6.0, 9.0))
        assert counts == {"frame": 1, "phase": 1}


class TestFourierModes:
    def test_no_control_concentrates_in_zero_mode(self):
        model = SystemModel.qubit()
        table = fourier_modes(model, ControlSchedule.off(period=0.2), K=5)
        np.testing.assert_allclose(table.modes[0], model.q, atol=1e-12)
        for k in range(1, 6):
            assert operator_norm(table.modes[k]) < 1e-12
            assert operator_norm(table.modes[-k]) < 1e-12

    def test_sinusoidal_ladder_norms_are_bessel_values(self):
        table = fourier_modes(SystemModel.qubit(), tuned_schedule())
        for k in range(1, 9):
            expect = abs(bessel_j_series(k, MU_STAR / np.pi))
            assert operator_norm(table.bohr[(k, -2.0)]) == \
                pytest.approx(expect, abs=1e-8)

    def test_parseval_and_adjoint_symmetry(self):
        table = fourier_modes(SystemModel.qubit(), tuned_schedule())
        assert table.parseval_defect < 1e-8
        for k in range(1, table.cutoff + 1):
            assert operator_norm(table.modes[-k] - table.modes[k].conj().T) \
                < 1e-12

    def test_kick_tail_bound_is_parseval_remainder(self):
        # the two-kick modes are 2 / (pi k) on odd k per Bohr component, so
        # the power past |k| = 64 is (16 / pi^2) sum_{odd k > 64} 1 / k^2;
        # the last ring (k = 64) is exactly zero and says nothing of it
        table = fourier_modes(SystemModel.qubit(), two_kick())
        assert table.cutoff == 64
        odd_below = sum(1.0 / k**2 for k in range(1, 64, 2))
        expect = 16.0 / np.pi**2 * (np.pi**2 / 8 - odd_below)
        assert expect > 0.01
        assert table.tail_bound == pytest.approx(expect, rel=1e-9)

    def test_invalid_cutoff(self):
        with pytest.raises(ArgumentError):
            fourier_modes(SystemModel.qubit(), tuned_schedule(), K=0)


class TestBangBangClosedForm:
    # the closed form holds for k != 0; the zero mode comes from the table
    def test_zero_mode_under_dd(self):
        table = fourier_modes(SystemModel.qubit(), two_kick(), K=1)
        for w in (-2.0, 2.0):
            assert operator_norm(table.bohr[(0, w)]) < 1e-15

    def test_zero_mode_without_dd_raises(self):
        bad = ControlSchedule.bangbang(1.0, [0.2, 0.5], [np.pi / 2, -np.pi / 2])
        sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
        with pytest.raises(DecouplingViolationError):
            level_shift(SystemModel.qubit(), bad, sf, 0.05)

    def test_matches_segmentwise_quadrature(self):
        import scipy.integrate

        model = SystemModel.qubit()
        sched = two_kick()
        segs = sched.segments()
        for k in (1, 2, 3, 7, 25, 50, -3, -11):
            for a in (-1, +1):
                # Bohr frequency w = 2a: the entry (0, 1) for w = -2
                closed = qka_bangbang_closed_form(model, sched, k, 2.0 * a)

                def entry(x):
                    # rotated entry e^{-2 i a phi(x)} of Q_w
                    phi = float(sched.phase(x * sched.period))
                    return np.exp(-2j * a * phi) * np.exp(-2j * np.pi * k * x)

                total = 0.0 + 0.0j
                for x0, x1, _ in segs:
                    re, _ = scipy.integrate.quad(
                        lambda x: entry(x).real, x0, x1, epsabs=1e-12)
                    im, _ = scipy.integrate.quad(
                        lambda x: entry(x).imag, x0, x1, epsabs=1e-12)
                    total += re + 1j * im
                idx = (0, 1) if a == -1 else (1, 0)
                assert closed[idx] == pytest.approx(total, abs=2e-10)

    def test_fourier_ladder_matches_jump_formula(self):
        model = SystemModel.qubit()
        three_kick = ControlSchedule.bangbang(1.0, [0.15, 0.4, 0.8],
                                              [0.7, -1.9, 1.2])
        for sched in (two_kick(), three_kick):
            table = fourier_modes(model, sched)
            assert table.cutoff == 64
            for k in [*range(-64, 0), *range(1, 65)]:
                for w in (-2.0, 2.0):
                    closed = qka_bangbang_closed_form(model, sched, k, w)
                    assert operator_norm(table.bohr[(k, w)] - closed) < 1e-12

    def test_inverse_k_scaling_on_support(self):
        model = SystemModel.qubit()
        sched = two_kick()
        vals = []
        for k in range(1, 51):
            nrm = operator_norm(qka_bangbang_closed_form(model, sched, k, -2.0))
            if k % 2 == 0:
                assert nrm < 1e-12
            else:
                vals.append(k * nrm)
        assert max(vals) - min(vals) < 1e-9


class TestEffectiveDynamics:
    def test_diagonal_states_are_fixed(self):
        model = SystemModel.qubit()
        rho = np.diag([0.3, 0.7]).astype(complex)
        for t in (0.0, 1.3, 17.0):
            np.testing.assert_allclose(
                effective_dynamics(model, tuned_schedule(), rho, t), rho,
                atol=1e-12)

    def test_coherence_moduli_preserved(self):
        model = SystemModel.qubit()
        vec = np.array([np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)])
        rho0 = np.outer(vec, vec.conj())
        for t in rng.uniform(0, 20, size=10):
            rho = effective_dynamics(model, tuned_schedule(), rho0, float(t))
            assert abs(rho[0, 1]) == pytest.approx(abs(rho0[0, 1]), abs=1e-12)
            assert rho[0, 0] == pytest.approx(rho0[0, 0], abs=1e-12)

    def test_initial_time(self):
        model = SystemModel.qubit()
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        np.testing.assert_allclose(
            effective_dynamics(model, tuned_schedule(), rho0, 0.0), rho0,
            atol=1e-14)

    def test_rejects_non_state(self):
        with pytest.raises(ArgumentError):
            effective_dynamics(SystemModel.qubit(), tuned_schedule(),
                               np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)

    @pytest.mark.parametrize("case", ["sinusoid", "offset", "kicks",
                                      "degenerate-spin1"])
    def test_times_array_matches_per_time_calls_and_oracle(self, case):
        # one call on an array of times against one call per time and the
        # expm oracle; the kick samples sit 0.5e-9 T before a kick of
        # weight 0.3 and must see it
        kappa, kint = cosine_profile()
        model, h_dir, rho0 = SystemModel.qubit(), SIGMA_Z, MIXED
        ts = np.linspace(0.0, 1.3, 14)
        if case == "sinusoid":
            sched = ControlSchedule.sinusoidal(0.4, 2.3)
            phis = sinusoid_phase(2.3, 0.4, ts)
        elif case == "offset":
            sched = ControlSchedule.smooth(0.4, 2.3, SIGMA_Z, kappa,
                                           lambda x: 5 + kint(x))
            phis = sinusoid_phase(2.3, 0.4, ts)
        elif case == "kicks":
            sched = ControlSchedule.bangbang(0.4, [0.25, 0.75], [0.3, -0.3])
            kicks = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
            ts = np.sort(np.r_[ts, kicks - 0.5e-9 * 0.4])
            # kicks at (n + 1/4) T add 0.3, at (n + 3/4) T take it away
            x = ts / 0.4 + 1e-9
            phis = np.where(x - np.floor(x) >= 0.25, 0.3, 0.0)
            phis[x - np.floor(x) >= 0.75] = 0.0
        else:
            # H_s = S_z^2 is degenerate, so the frame re-diagonalizes S_z
            h_dir = np.diag([1.0, 0.0, -1.0])
            model = SystemModel(np.diag([1.0, 0.0, 1.0]),
                                [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
            a = np.eye(3) + 0.3 * np.exp(1j * np.add.outer(np.arange(3),
                                                           2 * np.arange(3)))
            rho0 = a @ a.conj().T / np.trace(a @ a.conj().T).real
            sched = ControlSchedule.sinusoidal(0.4, 2.3, h_dir=h_dir)
            phis = sinusoid_phase(2.3, 0.4, ts)
        states = effective_dynamics(model, sched, rho0, ts)
        assert states.shape == (len(ts),) + rho0.shape
        for t, phi, state in zip(ts, phis, states):
            np.testing.assert_allclose(
                state, effective_dynamics(model, sched, rho0, float(t)),
                rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                state, reference_state(model.h_s, h_dir, rho0, t, phi),
                atol=1e-12)
