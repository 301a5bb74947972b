"""Second-order effective generator, rate sums and corrected propagation.

The rotated coupling splits into Bohr-Fourier modes Q_{k,w}: Fourier
mode k of the rotated Bohr component Q_w = sum_{e'-e=w} P_e Q P_e' of
H_s (the Davies construction). The second-order generator is a
Lindblad-form superoperator whose jump operators are the modes with
k != 0 and whose rates and shifts are spectral-weight evaluations at the
comb frequencies k/T + w, summed over every comb point in the support of
the spectral weight. Its Hamiltonian part defines a phase correction
commuting with the system Hamiltonian, so the corrected reference
dynamics preserves all coherence moduli exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import (DD_TOL, ControlSchedule, SystemModel, _bohr_modes,
                      operator_norm)
from .errors import DecouplingViolationError
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
    """Assembled second-order generator with its summed comb terms."""

    model: SystemModel
    a2: np.ndarray                    # d^2 x d^2, row-major vec, with lambda^2
    s_matrix: np.ndarray              # Delta(B) = B S - S B, also with lambda^2
    terms: dict                       # (k, w) -> (Q_{k,w}, G(x), PV(x)), x = k/T + w
    k_used: int                       # largest |k| summed
    lam: float
    period: float
    control_strength: float = float("nan")


def assemble_generator(terms: dict, lam: float) -> np.ndarray:
    """Assemble the generator from (jump operator, G, PV) terms.

    Returns the d^2 x d^2 matrix acting on row-major vec(B) of
    -(i lam^2 / 2) sum_t [pi G_t (2 Q* B Q - {Q*Q, B}) + i PV_t [B, Q*Q]]
    over a nonempty term table. Shared by the production path and by
    regularized-resolvent test oracles that supply their own weights.
    """
    qs = np.array([qk for qk, _, _ in terms.values()])
    diss = math.pi * np.array([g for _, g, _ in terms.values()])
    pv = np.array([s for _, _, s in terms.values()])
    d = qs.shape[1]
    qdagq = np.einsum("tji,tjk->tik", qs.conj(), qs)
    # sum_t pi G_t kron(Q_t*, Q_t^T): B -> Q* B Q
    sandwich = np.einsum("t,tji,tlk->ikjl", diss, qs.conj(), qs)
    left = np.einsum("t,tij->ij", diss + 1j * pv, qdagq)    # B -> (.) B
    right = np.einsum("t,tij->ij", diss - 1j * pv, qdagq)   # B -> B (.)
    identity = np.eye(d)
    return -0.5j * lam * lam * (2.0 * sandwich.reshape(d * d, d * d)
                                - np.kron(left, identity)
                                - np.kron(identity, right.T))


def level_shift(model: SystemModel, schedule: ControlSchedule, G,
                lam: float, dd_tol: float = DD_TOL) -> WeakCouplingGenerator:
    """Assemble the second-order generator of a decoupled schedule.

    Sums every Bohr-Fourier mode Q_{k,w} with k != 0 whose comb
    frequency x = k/T + w lies in the support |x| <= ``G.p_max`` of the
    spectral weight: the dissipator weight pi G(x) and the principal
    value PV(x) (the level shift) of each such term. Comb points outside
    the support carry no rate and are left out of the shift as well. The
    principal value is only integrated for modes with ||Q_{k,w}||^2 >
    1e-16. Raises if the zero mode of the coupling has not been
    decoupled.
    """
    T = schedule.period
    spread = float(np.ptp(np.linalg.eigvalsh(model.h_s)))
    k_max = int(math.floor((G.p_max + spread) * T))
    modes = _bohr_modes(model, schedule, np.arange(-k_max, k_max + 1))
    d = model.dim
    zero_norm = operator_norm(sum((m for (k, _), m in modes.items() if k == 0),
                                  np.zeros((d, d))))
    if zero_norm >= dd_tol:
        raise DecouplingViolationError(
            f"decoupling condition violated: ||Q_hat(0)|| = {zero_norm:.3e}",
            zero_mode_norm=zero_norm)

    kept = {(k, w): k / T + w for k, w in modes
            if k != 0 and abs(k / T + w) <= G.p_max}
    # G on every kept comb point at once, and one batched PV call
    x = np.array(list(kept.values()))
    pv = np.zeros(len(x))
    norms = [operator_norm(modes[key]) for key in kept]
    shifted = np.array([nq * nq > 1e-16 for nq in norms], dtype=bool)
    if shifted.any():
        pv[shifted] = pv_integral(G, x[shifted])
    terms = {}
    s = np.zeros((d, d), dtype=complex)
    for key, g, shift in zip(kept, G(x).tolist(), pv.tolist()):
        qk = modes[key]
        terms[key] = (qk, g, shift)
        s += 0.5 * lam * lam * shift * (qk.conj().T @ qk)
    a2 = (assemble_generator(terms, lam) if terms
          else np.zeros((d * d, d * d), dtype=complex))
    return WeakCouplingGenerator(
        model=model, a2=a2, s_matrix=s, terms=terms,
        k_used=max((abs(k) for k, _ in terms), default=0), lam=lam,
        period=T, control_strength=schedule.strength())


def xi_rate(gen: WeakCouplingGenerator) -> float:
    """Filtered rate sum sum ||Q_{k,w}||^2 |G(k/T + w)|^2 over the terms."""
    total = 0.0
    for qk, g, _ in gen.terms.values():
        total += operator_norm(qk) ** 2 * abs(g) ** 2
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
