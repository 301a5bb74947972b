"""Second-order effective generator, rate sums and corrected propagation.

For the qubit with gap 2, the second-order generator is a Lindblad-form
superoperator whose jump operators are the ladder Fourier modes of the
rotated coupling and whose rates/shifts are spectral-weight evaluations
at the shifted comb frequencies k/T + 2a. Its Hamiltonian part defines a
phase correction commuting with the system Hamiltonian, so the corrected
reference dynamics preserves all coherence moduli exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import DD_TOL, FourierTable, SystemModel, operator_norm
from .errors import ArgumentError, DecouplingViolationError, UnsupportedModelError
from .reservoir import pv_integral

__all__ = [
    "WeakCouplingGenerator",
    "RateSummary",
    "level_shift",
    "assemble_generator",
    "xi_rate",
    "decoherence_time",
    "corrected_propagate",
]


@dataclass(frozen=True)
class WeakCouplingGenerator:
    """Assembled second-order generator with its ingredient tables."""

    model: SystemModel
    a2: np.ndarray                    # d^2 x d^2, row-major vec, with lambda^2
    s_matrix: np.ndarray              # Delta(B) = B S - S B, also with lambda^2
    dissipator_weights: dict          # (k, a) -> pi G(k/T + 2a)
    pv_coefficients: dict             # (k, a) -> principal value at k/T + 2a
    jump_norms: dict                  # (k, a) -> ||Q_{k,a}||
    g_values: dict                    # (k, a) -> G(k/T + 2a)
    k_used: int
    tail_bound: float
    lam: float
    period: float
    control_strength: float = float("nan")


def _require_qubit(model: SystemModel):
    if model.dim != 2:
        raise UnsupportedModelError(
            f"second-order assembly is defined for d=2, got d={model.dim}")
    target = np.diag([1.0, -1.0])
    if operator_norm(model.h_s - target) > 1e-10:
        raise UnsupportedModelError(
            "second-order assembly assumes H_s = diag(1, -1)")


def assemble_generator(ladder: dict, diss_weights: dict, pv_weights: dict,
                       lam: float, dim: int = 2) -> np.ndarray:
    """Assemble the generator from jump operators and weight tables.

    Returns the d^2 x d^2 matrix acting on row-major vec(B). Shared by
    the production path and by regularized-resolvent test oracles that
    supply their own weights.
    """
    d2 = dim * dim
    a2 = np.zeros((d2, d2), dtype=complex)
    identity = np.eye(dim)
    for key, qk in ladder.items():
        if key not in diss_weights:
            continue
        w = diss_weights[key]
        pv = pv_weights[key]
        qdagq = qk.conj().T @ qk
        sandwich = np.kron(qk.conj().T, qk.T)          # B -> Q* B Q
        left_qq = np.kron(qdagq, identity)             # B -> Q*Q B
        right_qq = np.kron(identity, qdagq.T)          # B -> B Q*Q
        dissipative = w * (2.0 * sandwich - left_qq - right_qq)
        hamiltonian = 1j * pv * (right_qq - left_qq)
        a2 += -0.5j * lam * lam * (dissipative + hamiltonian)
    return a2


def level_shift(model: SystemModel, table: FourierTable, G, T: float,
                lam: float, dd_tol: float = DD_TOL,
                tail_tol: float = 1e-12,
                control_strength: float = float("nan")) -> WeakCouplingGenerator:
    """Assemble the second-order generator for a decoupled qubit schedule.

    The k-sum runs over the ladder modes in ``table`` (k != 0) and is
    truncated once the combined weight of a |k| ring falls below
    ``tail_tol``. Raises if the zero mode of the coupling has not been
    decoupled.
    """
    _require_qubit(model)
    if abs(T - table.period) > 1e-12 * max(1.0, T):
        raise ArgumentError("table period does not match T")
    zero_norm = table.zero_mode_norm()
    if zero_norm >= dd_tol:
        raise DecouplingViolationError(
            f"decoupling condition violated: ||Q_hat(0)|| = {zero_norm:.3e}",
            zero_mode_norm=zero_norm)

    diss, pvs, norms, gvals = {}, {}, {}, {}
    tail = 0.0
    k_used = 0
    for k in range(1, table.cutoff + 1):
        ring = 0.0
        entries = []
        for sk in (k, -k):
            for a in (-1, +1):
                qk = table.ladder[(sk, a)]
                nq = operator_norm(qk)
                x = sk / T + 2.0 * a
                gx = float(G(x))
                pv = pv_integral(G, x) if nq * nq > 1e-16 else 0.0
                entries.append(((sk, a), math.pi * gx, pv, nq, gx))
                ring += nq * nq * (math.pi * gx + abs(pv))
        tail = ring
        if ring < tail_tol and k_used >= 1:
            break
        for key, w, pv, nq, gx in entries:
            diss[key] = w
            pvs[key] = pv
            norms[key] = nq
            gvals[key] = gx
        k_used = k
    a2 = assemble_generator(table.ladder, diss, pvs, lam, dim=2)

    s = np.zeros((2, 2), dtype=complex)
    for key, pv in pvs.items():
        qk = table.ladder[key]
        s += 0.5 * lam * lam * pv * (qk.conj().T @ qk)

    return WeakCouplingGenerator(
        model=model, a2=a2, s_matrix=s,
        dissipator_weights=diss, pv_coefficients=pvs, jump_norms=norms,
        g_values=gvals, k_used=k_used, tail_bound=float(tail), lam=lam,
        period=T, control_strength=control_strength)


def xi_rate(gen: WeakCouplingGenerator) -> float:
    """Filtered rate sum over ladder modes, weighted by |G|^2."""
    total = 0.0
    for key, nq in gen.jump_norms.items():
        total += nq * nq * abs(gen.g_values[key]) ** 2
    return float(total)


@dataclass(frozen=True)
class RateSummary:
    """Rate, decoherence time and the theorem-scale comparison data."""

    xi: float
    t_dec: float
    bound_constant_c: float
    control_strength: float      # T * max ||H_c||
    theorem_horizon: float       # 1 / (c |lambda| T)
    lam: float
    period: float
    sharper_than_generic: bool   # lambda^2 xi + lambda^4 << |lambda| T ?

    def as_dict(self):
        return {
            "xi": self.xi,
            "t_dec": self.t_dec,
            "bound_constant_c": self.bound_constant_c,
            "control_strength": self.control_strength,
            "theorem_horizon": self.theorem_horizon,
            "lambda": self.lam,
            "period": self.period,
            "sharper_than_generic": self.sharper_than_generic,
        }


def decoherence_time(gen: WeakCouplingGenerator, c_const: float = 1.0) -> RateSummary:
    """Leading-order decoherence time 1 / (2 pi lam^2 [xi + c lam^2])."""
    xi = xi_rate(gen)
    lam = gen.lam
    if lam == 0.0:
        t_dec = float("inf")
        horizon = float("inf")
    else:
        denom = 2.0 * math.pi * lam * lam * (xi + c_const * lam * lam)
        t_dec = float("inf") if denom == 0 else 1.0 / denom
        horizon = float("inf") if c_const == 0 else 1.0 / (c_const * abs(lam) * gen.period)
    sharper = (lam * lam * xi + lam**4) < 0.1 * abs(lam) * gen.period
    return RateSummary(xi=xi, t_dec=t_dec, bound_constant_c=c_const,
                       control_strength=gen.control_strength,
                       theorem_horizon=horizon, lam=lam, period=gen.period,
                       sharper_than_generic=bool(sharper))


def corrected_propagate(gen: WeakCouplingGenerator, rho0: np.ndarray,
                        t: float) -> np.ndarray:
    """Coherence-preserving reference dynamics with the phase correction.

    Free phases from H_s plus the shifts induced by the Hamiltonian part
    of the generator; populations and coherence moduli are conserved
    exactly.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    h_eff = gen.model.h_s - gen.s_matrix
    w, v = np.linalg.eigh(h_eff)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return u @ rho0 @ u.conj().T
