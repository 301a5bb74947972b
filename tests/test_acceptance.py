"""Acceptance gate: the package's headline capabilities, end to end.

Each test states its tolerance and (where budgeted) its wall-clock
limit. Oracles are independent implementations from oracles.py.
"""

import json
import math
import time

import numpy as np
import pytest

import decoshield
from decoshield.control import (ControlSchedule, SystemModel, check_dd,
                                effective_dynamics, fourier_modes,
                                operator_norm, tune_amplitude)
from decoshield.experiments import ExperimentConfig, run_experiment, sweep
from decoshield.reservoir import (discretize_modes, make_form_factor,
                                  spectral_function)
from decoshield.simulate import TotalModel, evolve, trace_distance
from decoshield.weak_coupling import (assemble_generator, corrected_propagate,
                                      level_shift, xi_rate)

from oracles import (bessel_j_series, commutator_superop,
                     jordan_wigner_annihilators, linear_r2,
                     ordered_propagator, partial_trace,
                     qka_bangbang_closed_form, regularized_weights,
                     thermal_reservoir_state, total_hamiltonian)

MU_STAR = 7.554982305222015

rng = np.random.default_rng(99)


def two_kick(period=1.0, alpha1=0.25):
    return ControlSchedule.bangbang(period, [alpha1, alpha1 + 0.5],
                                    [np.pi / 2, -np.pi / 2])


def plus_state():
    return 0.5 * np.ones((2, 2), dtype=complex)


def small_scenario(**overrides):
    doc = {
        "scenario": "acceptance-small",
        "system": {"h_s": [[1, 0], [0, -1]], "q": [[0, 1], [1, 0]]},
        "schedule": {"kind": "sinusoidal", "period": 0.25, "mu": MU_STAR},
        "reservoir": {"form_factor": "gaussian-p", "beta": 1.0,
                      "n_modes": 2, "p_max": 3.0},
        "coupling": 0.05,
        "run": {"horizon": 1.0, "sample_dt": 0.25,
                "substeps_per_period": 64},
        "constants": {"c_const": 0.0},
        "seed": 0,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_01_amplitude_tuning_hits_bessel_zero():
    start = time.perf_counter()
    model = SystemModel.qubit()
    mu = tune_amplitude(model, ControlSchedule.sinusoidal(0.1, 1.0), (6.0, 9.0))
    elapsed = time.perf_counter() - start
    assert abs(mu - math.pi * 2.4048255577) < 1e-6
    report = check_dd(model, ControlSchedule.sinusoidal(0.1, mu))
    assert report.zero_mode_norm < 1e-8
    # independent oracle: the series J_0 vanishes at mu/pi
    assert abs(bessel_j_series(0, mu / math.pi)) < 1e-10
    assert elapsed < 1.0


def test_02_equivalence_of_decoupling_formulations():
    start = time.perf_counter()
    model = SystemModel.qubit()
    passing = [two_kick(alpha1=float(a))
               for a in rng.uniform(0.05, 0.45, size=3)]
    passing += [ControlSchedule.sinusoidal(float(T), MU_STAR)
                for T in rng.uniform(0.05, 0.4, size=2)]
    failing = [ControlSchedule.sinusoidal(0.2, float(mu))
               for mu in rng.uniform(1.0, 5.0, size=3)]
    failing += [ControlSchedule.bangbang(1.0, [a, a + 0.3],
                                         [np.pi / 2, -np.pi / 2])
                for a in rng.uniform(0.05, 0.3, size=2)]
    for sched, expect in [(s, True) for s in passing] + \
                         [(s, False) for s in failing]:
        rep = check_dd(model, sched, tol=1e-7)
        two_condition = (rep.periodicity_defect < 1e-7
                         and rep.zero_mode_norm < 1e-7)
        assert (rep.residual < rep.tolerance) == two_condition
        assert rep.passed == expect
    assert time.perf_counter() - start < 10.0


def test_03_fourier_tables():
    start = time.perf_counter()
    model = SystemModel.qubit()

    table = fourier_modes(model, ControlSchedule.sinusoidal(0.1, MU_STAR))
    assert table.parseval_defect < 1e-8
    for k in range(1, 9):
        expect = abs(bessel_j_series(k, MU_STAR / math.pi))
        assert abs(operator_norm(table.bohr[(k, -2.0)]) - expect) < 1e-6

    sched = two_kick()
    segs = sched.segments()
    import scipy.integrate

    products = []
    for k in range(1, 51):
        for sign in (1, -1):
            closed = qka_bangbang_closed_form(model, sched, sign * k, -2.0)

            def integrand(x):
                phi = float(sched.phase(x * sched.period))
                return np.exp(2j * phi - 2j * np.pi * sign * k * x)

            total = 0.0 + 0.0j
            for x0, x1, _ in segs:
                re, _ = scipy.integrate.quad(lambda x: integrand(x).real,
                                             x0, x1, epsabs=1e-12)
                im, _ = scipy.integrate.quad(lambda x: integrand(x).imag,
                                             x0, x1, epsabs=1e-12)
                total += re + 1j * im
            assert abs(closed[0, 1] - total) < 1e-6 * max(abs(total), 1e-3)
        nrm = operator_norm(qka_bangbang_closed_form(model, sched, k, -2.0))
        products.append((k, k * nrm))
    # 1/|k| scaling: k * norm is exactly constant on the support (odd k)
    support = [p for k, p in products if k % 2 == 1]
    assert max(support) - min(support) < 1e-9
    assert all(p < 1e-12 for k, p in products if k % 2 == 0)
    assert time.perf_counter() - start < 30.0


def test_04_level_shift_matches_regularized_resolvent():
    start = time.perf_counter()
    model = SystemModel.qubit()
    T = 0.5
    sched = ControlSchedule.sinusoidal(T, MU_STAR)
    sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
    gen = level_shift(model, sched, sf, 0.05)

    assert all(k != 0 for k, _ in gen.terms)
    gen_neg = level_shift(model, sched, sf, -0.05)
    np.testing.assert_array_equal(gen.a2, gen_neg.a2)

    terms = {}
    for (k, w), (qk, _, _) in gen.terms.items():
        d, s = regularized_weights(sf, k / T + w)
        terms[(k, w)] = (qk, d / math.pi, s)
    oracle = assemble_generator(terms, 0.05)
    scale = np.abs(gen.a2).max()
    assert scale > 0
    assert np.abs(oracle - gen.a2).max() < 1e-4 * scale
    assert time.perf_counter() - start < 60.0


def test_05_phase_correction_structure():
    model = SystemModel.qubit()
    T = 0.5
    sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
    gen = level_shift(model, ControlSchedule.sinusoidal(T, MU_STAR), sf, 0.05)
    # Delta(B) = B S - S B = -[S, B], built here from the shift matrix S
    s = gen.s_matrix
    delta = -commutator_superop(s)
    l_s = commutator_superop(model.h_s)
    assert operator_norm(delta @ l_s - l_s @ delta) < 1e-10
    for w in rng.standard_normal((5, 2)):
        diag = np.diag(w).astype(complex)
        assert operator_norm(diag @ s - s @ diag) < 1e-14

    vec = np.array([np.sqrt(0.35), np.sqrt(0.65) * np.exp(0.7j)])
    rho0 = np.outer(vec, vec.conj())
    for t in np.linspace(0.0, 100.0, 101):
        rho = corrected_propagate(gen, rho0, float(t))
        assert abs(abs(rho[0, 1]) - abs(rho0[0, 1])) < 1e-12
        assert abs(rho[0, 0] - rho0[0, 0]) < 1e-12


def test_06_exact_simulator_ground_truth():
    start = time.perf_counter()
    model = SystemModel.qubit()
    ff = make_form_factor("gaussian-p", beta=1.0)

    # decoupled coupling: reduced dynamics is exactly the reference
    sched = ControlSchedule.sinusoidal(0.1, MU_STAR)
    modes = discretize_modes(ff, 3, 3.0)
    tm = TotalModel(model, modes, 0.0, sched)
    traj = evolve(tm, plus_state(), 1.0, 0.1, substeps_per_period=256)
    for t, rho in zip(traj.times, traj.reduced_states):
        ref = effective_dynamics(model, sched, plus_state(), float(t))
        assert trace_distance(rho, ref) < 1e-8

    # single mode vs dense time-ordered integration
    modes1 = discretize_modes(ff, 1, 3.0)
    tm1 = TotalModel(model, modes1, 0.3, sched)
    traj1 = evolve(tm1, plus_state(), 0.6, 0.2, substeps_per_period=4096)
    rho_full = np.kron(plus_state(), thermal_reservoir_state(modes1))
    for i, t in enumerate(traj1.times[1:], start=1):
        u = ordered_propagator(lambda s: total_hamiltonian(tm1, s),
                               0.0, float(t), step=2e-4)
        ref = partial_trace(u @ rho_full @ u.conj().T, [2, 2], [0])
        assert trace_distance(traj1.reduced_states[i], ref) < 1e-8

    # canonical anticommutation relations, all pairs at N = 6
    ops = jordan_wigner_annihilators(6)
    eye = np.eye(2**6)
    for i, ai in enumerate(ops):
        for j, aj in enumerate(ops):
            anti = ai @ aj.conj().T + aj.conj().T @ ai
            assert operator_norm(anti - (eye if i == j else 0.0)) < 1e-12
            assert operator_norm(ai @ aj + aj @ ai) < 1e-12

    # thermal occupations
    modes6 = discretize_modes(ff, 6, 3.0)
    rho_r = thermal_reservoir_state(modes6)
    for aj, n in zip(jordan_wigner_annihilators(6), modes6.occupations):
        got = np.trace(rho_r @ aj.conj().T @ aj).real
        assert abs(got - n) < 1e-12
    assert time.perf_counter() - start < 120.0


def test_07_suppression_on_default_scenario():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_file(
        decoshield.scenario_path("spin-fermion-sinusoidal"))
    from decoshield.experiments import _simulate_pair
    results = _simulate_pair(cfg)
    traj_on, dev_on = results["on"]
    _, dev_off = results["off"]

    assert dev_on.final_retention >= 2.0 * dev_off.final_retention
    pops = np.array([np.diag(r).real for r in traj_on.reduced_states])
    assert np.abs(pops - pops[0]).max() < 0.1
    assert time.perf_counter() - start < 300.0


def test_08_scaling_with_period_and_coupling():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_file(
        decoshield.scenario_path("spin-fermion-sinusoidal"))
    rows = sweep(cfg, "T", [0.2, 0.1, 0.05])
    retention = [row["retention"] for row in rows]
    assert retention[1] >= retention[0] - 1e-3
    assert retention[2] >= retention[1] - 1e-3

    rows = sweep(small_scenario(), "lambda", [0.025, 0.05, 0.1])
    products = [row["t_dec"] * row["value"] ** 2 for row in rows]
    for p in products[1:]:
        assert p == pytest.approx(products[0], rel=1e-12)
    assert time.perf_counter() - start < 900.0


def test_09_bangbang_rate_shape():
    start = time.perf_counter()
    model = SystemModel.qubit()
    T = 1.0
    sched = two_kick(period=T)
    sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
    gen = level_shift(model, sched, sf, 0.05)
    norms = {key: operator_norm(qk) for key, (qk, _, _) in gen.terms.items()}

    xs, ys = [], []
    for k in range(1, 16, 2):
        model_term = (float(sf(k / T + 2.0)) ** 2
                      + float(sf(k / T - 2.0)) ** 2
                      + float(sf(-k / T + 2.0)) ** 2
                      + float(sf(-k / T - 2.0)) ** 2) / k**2
        data_term = sum(
            norms[(sk, w)] ** 2 * gen.terms[(sk, w)][1] ** 2
            for sk in (k, -k) for w in (-2.0, 2.0)
            if (sk, w) in gen.terms)
        xs.append(model_term)
        ys.append(data_term)
    assert max(ys) > 0
    assert linear_r2(xs, ys) > 0.999
    # the per-mode terms assemble to the reported rate
    assert xi_rate(gen) == pytest.approx(
        sum(norms[key] ** 2 * gen.terms[key][1] ** 2 for key in norms),
        rel=1e-12)
    assert time.perf_counter() - start < 30.0


def test_10_end_to_end_determinism(tmp_path):
    cfg = small_scenario()
    run_experiment(cfg, out_dir=tmp_path / "first")
    run_experiment(cfg, out_dir=tmp_path / "second")
    for name in ("trajectory_on.csv", "trajectory_off.csv", "report.json"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second
    report = json.loads((tmp_path / "first" / "report.json").read_text())
    assert report["provenance"]["seed"] == 0
