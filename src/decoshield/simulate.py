"""Exact dynamics of the system coupled to a finite fermionic mode star.

The reservoir is N fermionic modes in a thermal product state on the 2^N
occupation bitstrings. Its field operator Phi = sum_j f_j (a_j + a_j^*) /
sqrt 2 is sparse: a_j + a_j^* flips bit j with the sign (-1)^(occupied
modes before j), and the anticommutation relations give Phi^2 = g^2,
g = ||f|| / sqrt 2, so a Strang step's coupling factor has a closed form.

The total Hamiltonian is T-periodic, so long horizons are reached through
the one-period propagator (monodromy) U_T, built once by one walk over the
period in the joint eigenbasis of H_s and H_dir: a smooth drive takes
fine-grained Strang steps whose diagonal factor (system, control and mode
energies) is integrated exactly, a kick schedule the exact static
propagator between kicks. On both kinds the state receives
V_c(t)* = exp(-i phi(t) H_dir), so a kick of weight c multiplies it by
the diagonal phase exp(-i c H_dir). The complex Schur form of U_T gives
every power U_T^n = W lambda^n W^dagger (Floquet form); the uncontrolled
baseline is sampled the same way in the eigenbasis of the static
Hamiltonian.

The thermal average is exact: the initial density matrix, the system
state times the Fermi-Dirac product weights of the reservoir occupation
bitstrings, is held in the Floquet basis, and each reduced state is read
from it with the sample's phases.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from .control import (ControlSchedule, SystemModel, _validate_state,
                      commutation_defect, effective_dynamics)
from .errors import ArgumentError, NumericError, ResourceError
from .reservoir import ModeSet

__all__ = [
    "TotalModel",
    "Trajectory",
    "DeviationReport",
    "evolve",
    "compare_with_effective",
    "trace_distance",
]

DIMENSION_GUARD = 2**14


@dataclass(frozen=True)
class TotalModel:
    """System + N-mode reservoir with coupling and optional control."""

    system: SystemModel
    modes: ModeSet
    lam: float
    schedule: Optional[ControlSchedule] = None

    def __post_init__(self):
        if self.dim_total > DIMENSION_GUARD:
            raise ResourceError(
                f"total dimension {self.dim_total} exceeds guard {DIMENSION_GUARD}")
        if (self.schedule is not None
                and commutation_defect(self.system, self.schedule) > 1e-10):
            raise ArgumentError("control direction must commute with H_s")

    @property
    def n_modes(self) -> int:
        return self.modes.n_modes

    @property
    def dim_total(self) -> int:
        return self.system.dim * 2**self.modes.n_modes

    def reservoir(self):
        """Mode-energy diagonal, Fermi-Dirac weights and field operator on
        the 2^N occupation bitstrings, mode 0 the leftmost bit.

        Phi = sum_j f_j (a_j + a_j^*) / sqrt 2 is sparse and real: a_j + a_j^*
        flips bit j with the sign (-1)^(occupied modes before j).
        """
        n, nr = self.n_modes, 2**self.n_modes
        bits = (np.arange(nr)[:, None] >> (n - 1 - np.arange(n))) & 1
        occ = self.modes.occupations
        weights = np.prod(np.where(bits == 1, occ, 1.0 - occ), axis=1)
        signs = 1 - 2 * ((np.cumsum(bits, axis=1) - bits) & 1)
        flipped = np.arange(nr)[:, None] ^ (1 << (n - 1 - np.arange(n)))
        phi = scipy.sparse.csr_matrix(
            ((signs * (self.modes.couplings / math.sqrt(2.0))).ravel(),
             (flipped.ravel(), np.repeat(np.arange(nr), n))), shape=(nr, nr))
        return bits @ self.modes.frequencies, weights, phi


@dataclass
class Trajectory:
    """Sampled reduced states with their derived coherence series."""

    times: np.ndarray
    reduced_states: list
    initial_state: np.ndarray
    trace_defect: float
    purity_defect: float

    def coherence(self, m: int, n: int) -> np.ndarray:
        return np.array([abs(r[m, n]) for r in self.reduced_states])


def _co_diagonalize(h_s, h_dir):
    """Joint eigenbasis of two commuting Hermitian matrices."""
    w, v = np.linalg.eigh(h_s)
    hd = v.conj().T @ h_dir @ v
    # re-diagonalize inside (near-)degenerate blocks of H_s
    start = 0
    d = len(w)
    for i in range(1, d + 1):
        if i == d or w[i] - w[start] > 1e-10:
            if i - start > 1:
                _, u = np.linalg.eigh(hd[start:i, start:i])
                v[:, start:i] = v[:, start:i] @ u
            start = i
    hd = v.conj().T @ h_dir @ v
    return w, np.real(np.diag(hd)), v


class _SplitStepper:
    """Strang splitting: exact diagonal phases around the coupling factor
    exp(-i h lam Q x Phi) = cos(theta Q) x 1 - i sin(theta Q) x Phi / g,
    theta = h lam g, which Phi^2 = g^2 = ||f||^2 / 2 gives (1 at g = 0)."""

    def __init__(self, tm: TotalModel, step: float, joint):
        self.schedule, self.step = tm.schedule, step
        self.es, self.edir, v = joint
        self.er, _, phi = tm.reservoir()
        g = math.sqrt(0.5 * float(tm.modes.couplings @ tm.modes.couplings))
        self.phi = phi / g if g > 0 else phi
        qw, qv = np.linalg.eigh(v.conj().T @ tm.system.q @ v)
        theta = step * tm.lam * g * qw
        # [cos(theta Q), -i sin(theta Q)], applied to [psi; Phi psi / g]
        self.kick = np.hstack([(qv * np.cos(theta)) @ qv.conj().T,
                               (qv * (-1j * np.sin(theta))) @ qv.conj().T])

    def diag_phases(self, dt, dphi):
        return np.exp((-1j) * (dt * (self.es[:, None] + self.er[None, :])
                               + dphi * self.edir[:, None]))

    def apply_step(self, psi, t):
        """One Strang step on psi shaped (d, 2^N, K), in the joint eigenbasis."""
        sched, h, d = self.schedule, self.step, len(psi)
        phi0 = float(sched.phase(t))
        phi1 = float(sched.phase(t + 0.5 * h))
        phi2 = float(sched.phase(t + h))
        # [psi; Phi psi / g]; Phi is real, so it acts on the interleaved
        # real and imaginary parts
        both = np.empty((2 * d,) + psi.shape[1:], dtype=complex)
        np.multiply(psi, self.diag_phases(0.5 * h, phi1 - phi0)[:, :, None],
                    out=both[:d])
        for i in range(d):
            both[d + i] = (self.phi @ both[i].view(float)).view(complex)
        psi = (self.kick @ both.reshape(2 * d, -1)).reshape(psi.shape)
        psi *= self.diag_phases(0.5 * h, phi2 - phi1)[:, :, None]
        return psi


_static_memo = None   # H(0) inputs -> eigh(H(0)) inside shared_static_eigh


@contextlib.contextmanager
def shared_static_eigh(schedule):
    """Hand an undriven run's eigh of H(0) to a later run of ``schedule``
    on the same H(0) inside the block; only a kick train uses it."""
    global _static_memo
    _static_memo = {} if getattr(schedule, "kind", None) == "bangbang" else None
    try:
        yield
    finally:
        _static_memo = None


def _static_hamiltonian(tm):
    """Dense H(0) = H_s x 1 + 1 x H_R + lam Q x Phi (kicks add no term)."""
    er, _, phi = tm.reservoir()
    h = np.kron(tm.system.h_s, np.eye(len(er)))
    h = h + np.kron(np.eye(tm.system.dim), np.diag(er))
    return h + tm.lam * np.kron(tm.system.q, phi.toarray())


def _static_eigh(tm):
    """Eigenpairs of H(0) = H_s + H_R + lam Q Phi (kicks add no term)."""
    key = (tm.lam,) + tuple(a.tobytes() for a in (
        tm.system.h_s, tm.system.q, tm.modes.frequencies, tm.modes.couplings))
    memo = {} if _static_memo is None else _static_memo
    if key in memo:
        return memo.pop(key)
    memo[key] = pair = np.linalg.eigh(_static_hamiltonian(tm))
    return pair


def _period_walk(tm, offsets, substeps):
    """U(r, 0) for each offset r in (0, T), and the monodromy U(T, 0).

    One walk in the joint eigenbasis of H_s and H_dir over the kick times,
    the offsets and T: between events a smooth drive takes Strang steps
    (segment-wise, so each offset is a step boundary), a kick schedule the
    exact static propagator. A kick of weight c multiplies by the diagonal
    phase exp(-i c e_dir), so on both kinds the state receives
    V_c(t)* = exp(-i phi(t) H_dir); an offset within 1e-9 T of a kick time
    sees the kick, as ``ControlSchedule.phase`` counts it.
    """
    sched, T = tm.schedule, tm.schedule.period
    d, nr = tm.system.dim, 2**tm.n_modes
    dim = d * nr
    joint = _co_diagonalize(tm.system.h_s, sched.h_dir)
    _, edir, basis = joint
    kicks = {}
    if sched.kind == "bangbang":
        kicks = dict(zip(sched.kick_phases * T, sched.kick_weights))
        e, v = _static_eigh(tm)
        # static eigenvectors in the joint basis
        v = np.einsum("ji,jbk->ibk", basis.conj(),
                      v.reshape(d, nr, dim)).reshape(dim, dim)
    marks = {T: [T]}   # event time -> offsets sampled there; T: monodromy
    for r in set(float(r) for r in offsets if 0.0 < r < T):
        at = next((tk for tk in kicks if abs(r - tk) <= 1e-9 * T), r)
        marks.setdefault(at, []).append(r)
    u = np.eye(dim, dtype=complex).reshape(d, nr, dim)
    props, steppers, t = {}, {}, 0.0
    for t_next in sorted(set(marks) | set(kicks)):
        seg = t_next - t
        if sched.kind == "bangbang":
            free = v.conj().T @ u.reshape(dim, dim)
            free *= np.exp(-1j * seg * e)[:, None]
            u = (v @ free).reshape(d, nr, dim)
            u *= np.exp(-1j * kicks.get(t_next, 0.0) * edir)[:, None, None]
        else:
            n = max(1, int(round(substeps * seg / T)))
            h = seg / n
            key = round(h, 15)
            if key not in steppers:
                steppers[key] = _SplitStepper(tm, h, joint)
            for i in range(n):
                u = steppers[key].apply_step(u, t + i * h)
        for r in marks.get(t_next, ()):
            props[r] = u.reshape(dim, dim)
        t = t_next
    # back to the computational basis: (basis x 1) m (basis x 1)^dagger
    props = {r: np.einsum("ia,abjc,kj->ibkc", basis, m.reshape(d, nr, d, nr),
                          basis.conj()).reshape(dim, dim)
             for r, m in props.items()}
    return props, props.pop(T)


def evolve(tm: TotalModel, rho_s0, t_final: float, sample_dt: float,
           substeps_per_period: int = 1024) -> Trajectory:
    """Propagate the joint state and sample the reduced density matrix.

    The initial total state rho_s0 x diag(p), p_b the Fermi-Dirac product
    probability of occupation bitstring b, is held as C = W^dagger rho W in
    the Floquet basis W: driven runs take W and eps = i log(lambda) / T
    from the Schur form of the monodromy and s = nT, undriven runs the
    eigenbasis of the static Hamiltonian, s = t. A sample t = nT + r is
    Tr_R[Y D C D^* Y^*] with Y = F_r W, F_r the cached intra-period
    propagator, and D = exp(-i eps s). Per offset r and system pair
    (a, b) that is one block (Y_a^T conj(Y_b)) o C, contracted with the
    phases of all of r's samples in one product.
    """
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    _validate_state(rho_s0)
    if not sample_dt > 0 or t_final < 0:
        raise ArgumentError("need t_final >= 0 and sample_dt > 0")
    d, nr = tm.system.dim, 2**tm.n_modes
    dim = d * nr

    times = np.round(np.arange(0.0, t_final + 0.5 * sample_dt, sample_dt), 12)
    driven = tm.schedule is not None and not (
        tm.schedule.kind == "smooth" and tm.schedule.mu == 0.0)

    if driven:
        T = tm.schedule.period
        periods = np.floor(times / T + 1e-9).astype(int)
        offsets = np.round(times - periods * T, 12)
        wrapped = np.abs(offsets - T) < 1e-9
        periods[wrapped] += 1
        offsets[wrapped] = 0.0
        frags, u_T = _period_walk(tm, offsets, substeps_per_period)
        schur, w = scipy.linalg.schur(u_T, output="complex")
        del u_T
        off_diagonal = float(np.max(np.abs(np.triu(schur, 1))))
        if off_diagonal > 1e-10:
            raise NumericError("monodromy is not normal",
                               diagnostics={"off_diagonal": off_diagonal})
        # complex log: |lambda|^n is kept, so a non-unitary U_T shows below
        eps = 1j * np.log(np.diag(schur)) / T
        del schur
        shifts = periods * T
    else:
        eps, w = _static_eigh(tm)
        shifts, offsets, frags = times, np.zeros_like(times), {}

    _, probs, _ = tm.reservoir()
    # C = W^dagger X with X = (rho_s0 x diag(p)) W, the system factor
    # contracted first; C is Hermitian, so C = conj(X)^T W
    x = np.einsum("ab,bBj->aBj", rho_s0, w.reshape(d, nr, dim))
    x *= probs[:, None]
    c = np.conj(x, out=x).reshape(dim, dim).T @ w
    del x

    # W is unitary: trace and purity of the final state from C and phases
    gain = np.abs(np.exp(-1j * shifts.max() * eps)) ** 2
    trace_defect = abs(float(c.diagonal().real @ gain - np.trace(c).real))
    if trace_defect > 1e-6:
        raise NumericError("trace drift exceeded bound",
                           diagnostics={"drift": trace_defect})
    c2 = np.abs(c) ** 2
    purity_defect = abs(float(gain @ c2 @ gain - c2.sum()))
    del c2

    states = np.empty((len(times), d, d), dtype=complex)
    for r in np.unique(offsets):
        idx = np.flatnonzero(offsets == r)
        y = (frags.pop(r) @ w if r > 0.0 else w).reshape(d, nr, dim)
        phases = np.exp(-1j * np.outer(eps, shifts[idx]))
        back = phases.conj()
        for a in range(d):
            for b in range(a, d):
                block = y[a].T @ y[b].conj()
                block *= c
                rho_ab = np.einsum("is,is->s", phases, block @ back)
                del block
                states[idx, b, a] = rho_ab.conj()
                states[idx, a, b] = rho_ab
        del y

    return Trajectory(times=times, reduced_states=list(states),
                      initial_state=rho_s0, trace_defect=trace_defect,
                      purity_defect=purity_defect)


def trace_distance(a, b) -> float:
    diff = np.asarray(a, complex) - np.asarray(b, complex)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


@dataclass(frozen=True)
class DeviationReport:
    """Trajectory vs the coherence-preserving reference dynamics."""

    times: np.ndarray
    deviations: np.ndarray
    sup_deviation: float
    retention: Optional[np.ndarray]    # None: rho0 has no such coherence
    final_retention: Optional[float]


def compare_with_effective(traj: Trajectory, model: SystemModel,
                           schedule: Optional[ControlSchedule],
                           coherence_pair=(0, 1)) -> DeviationReport:
    """Per-time trace distance to the reservoir-free reference dynamics."""
    sched = schedule if schedule is not None else ControlSchedule.off(
        period=1.0, dim=model.dim)
    rho0 = traj.initial_state
    devs = []
    for t, rho in zip(traj.times, traj.reduced_states):
        ref = effective_dynamics(model, sched, rho0, float(t))
        devs.append(trace_distance(rho, ref))
    devs = np.array(devs)
    m, n = coherence_pair
    coh0 = abs(rho0[m, n])
    retention = traj.coherence(m, n) / coh0 if coh0 > 0 else None
    return DeviationReport(times=traj.times, deviations=devs,
                           sup_deviation=float(devs.max()),
                           retention=retention,
                           final_retention=None if retention is None
                           else float(retention[-1]))
