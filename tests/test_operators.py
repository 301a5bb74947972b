"""Checks of the test oracles: CF4 time-ordered propagator, partial trace."""

import numpy as np
import pytest
from scipy.linalg import expm

from decoshield.control import operator_norm

from oracles import ordered_propagator, partial_trace

rng = np.random.default_rng(7)


def random_matrix(d, scale=1.0):
    return scale * (rng.standard_normal((d, d))
                    + 1j * rng.standard_normal((d, d)))


def random_hermitian(d, scale=1.0):
    a = random_matrix(d, scale)
    return 0.5 * (a + a.conj().T)


class TestOrderedPropagator:
    def test_constant_hamiltonian(self):
        h = random_hermitian(3)
        u = ordered_propagator(lambda t: h, 0.0, 0.7, step=0.01)
        np.testing.assert_allclose(u, expm(-0.7j * h), atol=1e-10)

    def test_commuting_family(self):
        h0 = random_hermitian(2)
        g = lambda t: np.sin(t)
        u = ordered_propagator(lambda t: g(t) * h0, 0.0, 2.0, step=0.005)
        integral = 1.0 - np.cos(2.0)
        np.testing.assert_allclose(u, expm(-1j * integral * h0),
                                   atol=1e-9)

    def test_step_halving_convergence(self):
        # two-piece non-commuting H: the coarse and halved runs must agree
        h1, h2 = random_hermitian(3), random_hermitian(3)

        def h(t):
            return h1 if t < 0.5 else h2

        coarse = ordered_propagator(h, 0.0, 1.0, step=0.01)
        fine = ordered_propagator(h, 0.0, 1.0, step=0.005)
        assert operator_norm(coarse - fine) < 1e-9
        exact = expm(-0.5j * h2) @ expm(-0.5j * h1)
        assert operator_norm(fine - exact) < 1e-8

    def test_cocycle(self):
        h1 = random_hermitian(2)
        h2 = random_hermitian(2)
        h = lambda t: np.cos(t) * h1 + np.sin(t) * h2
        u20 = ordered_propagator(h, 0.0, 1.0, step=0.0125)
        u21 = ordered_propagator(h, 0.5, 1.0, step=0.0125)
        u10 = ordered_propagator(h, 0.0, 0.5, step=0.0125)
        assert operator_norm(u20 - u21 @ u10) < 1e-9

    def test_unitary(self):
        h = lambda t: np.cos(3 * t) * random_hermitian(4, 2.0)
        hfix = random_hermitian(4, 2.0)
        u = ordered_propagator(lambda t: np.cos(3 * t) * hfix, 0.0, 5.0,
                               step=0.02)
        assert operator_norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ordered_propagator(lambda t: np.array([[0, 1], [0, 0]]),
                               0.0, 1.0, 0.1)


class TestPartialTrace:
    def test_product_state(self):
        rho_s = random_hermitian(2)
        rho_s = rho_s @ rho_s.conj().T
        rho_s /= np.trace(rho_s)
        rho_r = np.diag([0.3, 0.7]).astype(complex)
        out = partial_trace(np.kron(rho_s, rho_r), [2, 2], [0])
        np.testing.assert_allclose(out, rho_s, atol=1e-12)

    def test_maximally_entangled(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = partial_trace(rho, [2, 2], [0])
        np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-12)

    def test_trace_preserved(self):
        a = random_matrix(8)
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = partial_trace(rho, [2, 2, 2], [1])
        assert np.trace(out) == pytest.approx(1.0, abs=1e-12)

    def test_keep_second_factor(self):
        rho_a = np.diag([0.2, 0.8]).astype(complex)
        rho_b = np.diag([0.5, 0.25, 0.25]).astype(complex)
        out = partial_trace(np.kron(rho_a, rho_b), [2, 3], [1])
        np.testing.assert_allclose(out, rho_b, atol=1e-12)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], [0])
