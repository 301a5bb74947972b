"""Exact dynamics of the system coupled to a finite fermionic mode star.

The reservoir is a Jordan-Wigner chain of N fermionic modes in a thermal
product state. The total Hamiltonian is T-periodic, so long horizons are
reached through the one-period propagator (monodromy) U_T, built once
with a fine-grained Strang splitting whose diagonal factor (system,
control and mode energies) is integrated exactly, or from exact segment
exponentials for kick schedules. Its complex Schur form gives every power
U_T^n = W lambda^n W^dagger (Floquet form); the uncontrolled baseline is
sampled the same way in the eigenbasis of the static Hamiltonian.

The thermal average is exact: one pure state per reservoir occupation
bitstring, weighted by its Fermi-Dirac product probability (a seeded
sub-sampling kicks in only above the dense-ensemble size guard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .control import (ControlSchedule, SystemModel, _validate_state,
                      commutation_defect, effective_dynamics)
from .errors import ArgumentError, NumericError, ResourceError
from .reservoir import ModeSet

__all__ = [
    "TotalModel",
    "Trajectory",
    "DeviationReport",
    "jordan_wigner_annihilators",
    "build_total_generator",
    "evolve",
    "compare_with_effective",
    "trace_distance",
]

DIMENSION_GUARD = 2**14


def jordan_wigner_annihilators(n_modes: int):
    """Annihilation operators on the 2^N occupation space.

    Basis per mode: index 0 empty, index 1 occupied; sign strings on the
    preceding factors enforce the anticommutation relations.
    """
    if n_modes < 1:
        raise ArgumentError("need at least one mode")
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    ops = []
    for j in range(n_modes):
        factors = [z] * j + [a] + [eye] * (n_modes - j - 1)
        op = factors[0]
        for fct in factors[1:]:
            op = np.kron(op, fct)
        ops.append(op)
    return ops


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

    def reservoir_hamiltonian_diagonal(self) -> np.ndarray:
        """Diagonal of sum_j w_j a_j^* a_j in the occupation basis."""
        n = self.n_modes
        diag = np.zeros(2**n)
        for j, w in enumerate(self.modes.frequencies):
            bit = (np.arange(2**n) >> (n - 1 - j)) & 1
            diag += w * bit
        return diag

    def field_operator(self) -> np.ndarray:
        """Phi = (1/sqrt 2) sum_j f_j (a_j + a_j^*)."""
        ops = jordan_wigner_annihilators(self.n_modes)
        phi = np.zeros((2**self.n_modes, 2**self.n_modes), dtype=complex)
        for f, aj in zip(self.modes.couplings, ops):
            phi += f / math.sqrt(2.0) * (aj + aj.conj().T)
        return phi


def build_total_generator(tm: TotalModel, t: float) -> np.ndarray:
    """Dense H(t) = H_s + H_R + lam Q Phi, plus H_c(t) for smooth schedules."""
    d = tm.system.dim
    nr = 2**tm.n_modes
    h = np.kron(tm.system.h_s, np.eye(nr))
    h = h + np.kron(np.eye(d), np.diag(tm.reservoir_hamiltonian_diagonal()))
    h = h + tm.lam * np.kron(tm.system.q, tm.field_operator())
    if tm.schedule is not None and tm.schedule.kind == "smooth":
        h = h + np.kron(tm.schedule.h_c(t), np.eye(nr))
    return h


@dataclass
class Trajectory:
    """Sampled reduced states with derived coherence/population series."""

    times: np.ndarray
    reduced_states: list
    initial_state: np.ndarray
    trace_defect: float
    purity_defect: float

    def populations(self) -> np.ndarray:
        return np.array([np.diag(r).real for r in self.reduced_states])

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
    """Strang splitting with exact diagonal phases and a constant kick part."""

    def __init__(self, tm: TotalModel, step: float):
        self.tm = tm
        self.step = step
        self.d = tm.system.dim
        es, edir, v = _co_diagonalize(tm.system.h_s, tm.schedule.h_dir)
        self.sys_basis = v
        self.es = es
        self.edir = edir
        self.er = tm.reservoir_hamiltonian_diagonal()
        q = v.conj().T @ tm.system.q @ v
        self.qw, self.qv = np.linalg.eigh(q)
        phi = tm.field_operator()
        pw, pv = np.linalg.eigh(phi)
        # coupling blocks exp(-i h lam q_i Phi), one per system eigenchannel
        self.blocks = [
            (pv * np.exp(-1j * step * tm.lam * qi * pw)) @ pv.conj().T
            for qi in self.qw
        ]

    def diag_phases(self, dt, dphi):
        ph = (-1j) * (dt * (self.es[:, None] + self.er[None, :])
                      + dphi * self.edir[:, None])
        return np.exp(ph)

    def apply_step(self, psi, t):
        """One Strang step on psi shaped (d, 2^N, K), in the joint eigenbasis."""
        sched = self.tm.schedule
        h = self.step
        phi0 = float(sched.phase(t))
        phi1 = float(sched.phase(t + 0.5 * h))
        phi2 = float(sched.phase(t + h))
        psi = psi * self.diag_phases(0.5 * h, phi1 - phi0)[:, :, None]
        rot = np.einsum("ij,jbk->ibk", self.qv.conj().T, psi)
        for i in range(self.d):
            rot[i] = self.blocks[i] @ rot[i]
        psi = np.einsum("ij,jbk->ibk", self.qv, rot)
        psi = psi * self.diag_phases(0.5 * h, phi2 - phi1)[:, :, None]
        return psi


def _build_smooth_propagators(tm, offsets, substeps):
    """U(r, 0) for each requested offset r plus the monodromy U(T, 0).

    The full period is integrated once with Strang steps; steps are laid
    out segment-wise so every offset lands exactly on a step boundary.
    """
    T = tm.schedule.period
    d, nr = tm.system.dim, 2**tm.n_modes
    dim = d * nr
    marks = sorted(set([float(r) for r in offsets if 0.0 < r < T]))
    bounds = [0.0] + marks + [T]
    u = np.eye(dim, dtype=complex).reshape(d, nr, dim)
    props = {}
    steppers = {}
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = hi - lo
        n = max(1, int(round(substeps * seg / T)))
        h = seg / n
        key = round(h, 15)
        if key not in steppers:
            steppers[key] = _SplitStepper(tm, h)
        st = steppers[key]
        for i in range(n):
            u = st.apply_step(u, lo + i * h)
        if hi < T:
            props[hi] = u.reshape(dim, dim).copy()
    basis = steppers[next(iter(steppers))].sys_basis
    w_full = np.kron(basis, np.eye(nr))
    monodromy = w_full @ u.reshape(dim, dim) @ w_full.conj().T
    props = {r: w_full @ m @ w_full.conj().T for r, m in props.items()}
    return props, monodromy


def _build_piecewise_propagators(tm, offsets):
    """Exact propagators for kick schedules (constant H between kicks)."""
    T = tm.schedule.period
    d, nr = tm.system.dim, 2**tm.n_modes
    dim = d * nr
    w, v = np.linalg.eigh(build_total_generator(tm, 0.0))

    def free(tau):
        return (v * np.exp(-1j * tau * w)) @ v.conj().T

    _, edir, sbasis = _co_diagonalize(tm.system.h_s, tm.schedule.h_dir)

    def kick(c):
        phases = np.exp(1j * c * edir)
        k_sys = (sbasis * phases) @ sbasis.conj().T
        return np.kron(k_sys, np.eye(nr))

    events = [(float(a) * T, float(c)) for a, c in
              zip(tm.schedule.kick_phases, tm.schedule.kick_weights)]
    marks = sorted(set([float(r) for r in offsets if 0.0 < r < T]))

    props = {}
    u = np.eye(dim, dtype=complex)
    t_cur = 0.0
    points = sorted(set([t for t, _ in events] + marks + [T]))
    kicks_at = {t: c for t, c in events}
    for t_next in points:
        if t_next > t_cur:
            u = free(t_next - t_cur) @ u
            t_cur = t_next
        if t_next in kicks_at and t_next < T:
            u = kick(kicks_at[t_next]) @ u
        if t_next in marks:
            props[t_next] = u.copy()
    return props, u


def _initial_ensemble(tm, rho_s0, rng_seed, max_dense, n_samples):
    """Columns sqrt(weight) |chi_s> x |b> spanning the initial product state."""
    d, n = tm.system.dim, tm.n_modes
    ws, vs = np.linalg.eigh(np.asarray(rho_s0, complex))
    sys_states = [(float(w), vs[:, i]) for i, w in enumerate(ws) if w > 1e-14]
    occ = tm.modes.occupations
    n_res = 2**n
    if n_res * len(sys_states) <= max_dense:
        bits = ((np.arange(n_res)[:, None] >> (n - 1 - np.arange(n))) & 1)
        probs = np.prod(np.where(bits == 1, occ[None, :], 1.0 - occ[None, :]),
                        axis=1)
        res_idx = np.arange(n_res)
        res_w = probs
    else:
        rng = np.random.default_rng(rng_seed)
        draws = (rng.random((n_samples, n)) < occ[None, :]).astype(int)
        res_idx = draws @ (1 << (n - 1 - np.arange(n)))
        res_w = np.full(n_samples, 1.0 / n_samples)
    cols = []
    weights = []
    for w_s, chi in sys_states:
        for idx, w_b in zip(res_idx, res_w):
            if w_b == 0.0:
                continue
            vec = np.zeros(d * n_res, dtype=complex)
            vec[np.arange(d) * n_res + idx] = chi
            cols.append(vec)
            weights.append(w_s * w_b)
    psi = np.array(cols).T * np.sqrt(np.array(weights))[None, :]
    return psi  # (dim, K), rho_total = psi psi^dagger


def _reduced(psi, d, nr):
    resh = psi.reshape(d, nr, psi.shape[1])
    return np.einsum("aBk,bBk->ab", resh, resh.conj())


def evolve(tm: TotalModel, rho_s0, t_final: float, sample_dt: float,
           substeps_per_period: int = 1024, rng_seed: int = 0,
           max_dense_ensemble: int = 2**12,
           unravel_samples: int = 256) -> Trajectory:
    """Propagate the joint state and sample the reduced density matrix.

    The initial total state is rho_s0 tensor the thermal reservoir state.
    Every sample t = nT + r is (F_r W) exp(-i eps s) W^dagger psi_0, F_r
    the cached intra-period propagator: driven runs take W and
    eps = i log(lambda) / T from the Schur form of the monodromy and
    s = nT, undriven runs the eigenbasis of the static Hamiltonian, s = t.
    """
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    _validate_state(rho_s0)
    if not sample_dt > 0 or t_final < 0:
        raise ArgumentError("need t_final >= 0 and sample_dt > 0")
    d, nr = tm.system.dim, 2**tm.n_modes

    times = np.round(np.arange(0.0, t_final + 0.5 * sample_dt, sample_dt), 12)
    psi = _initial_ensemble(tm, rho_s0, rng_seed, max_dense_ensemble,
                            unravel_samples)
    norms0 = np.sum(np.abs(psi) ** 2)

    driven = tm.schedule is not None and not (
        tm.schedule.kind == "smooth" and tm.schedule.mu == 0.0)

    if driven:
        T = tm.schedule.period
        periods = np.floor(times / T + 1e-9).astype(int)
        offsets = np.round(times - periods * T, 12)
        wrapped = np.abs(offsets - T) < 1e-9
        periods[wrapped] += 1
        offsets[wrapped] = 0.0
        if tm.schedule.kind == "bangbang":
            frags, u_T = _build_piecewise_propagators(tm, offsets)
        else:
            frags, u_T = _build_smooth_propagators(tm, offsets,
                                                   substeps_per_period)
        schur, w = scipy.linalg.schur(u_T, output="complex")
        off_diagonal = float(np.max(np.abs(np.triu(schur, 1))))
        if off_diagonal > 1e-10:
            raise NumericError("monodromy is not normal",
                               diagnostics={"off_diagonal": off_diagonal})
        # complex log: |lambda|^n is kept, so a non-unitary U_T shows below
        eps = 1j * np.log(np.diag(schur)) / T
        shifts = periods * T
        for r in frags:
            frags[r] = frags[r] @ w
    else:
        eps, w = np.linalg.eigh(build_total_generator(tm, 0.0))
        shifts, offsets, frags = times, np.zeros_like(times), {}

    psi_e = w.conj().T @ psi

    def advance(s, basis=w):
        return basis @ (np.exp(-1j * s * eps)[:, None] * psi_e)

    states = [_reduced(advance(s, frags[r] if r > 0.0 else w), d, nr)
              for s, r in zip(shifts, offsets)]
    final = advance(shifts.max())

    norms1 = np.sum(np.abs(final) ** 2)
    trace_defect = abs(norms1 - norms0)
    if trace_defect > 1e-6:
        raise NumericError("trace drift exceeded bound",
                           diagnostics={"drift": trace_defect})
    # purity of the exact mixture: sum_{bb'} |<psi_b|psi_b'>|^2
    g0 = psi.conj().T @ psi
    g1 = final.conj().T @ final
    purity_defect = abs(float(np.sum(np.abs(g1) ** 2))
                        - float(np.sum(np.abs(g0) ** 2)))

    return Trajectory(times=times, reduced_states=states,
                      initial_state=rho_s0, trace_defect=float(trace_defect),
                      purity_defect=float(purity_defect))


def trace_distance(a, b) -> float:
    diff = np.asarray(a, complex) - np.asarray(b, complex)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


@dataclass(frozen=True)
class DeviationReport:
    """Trajectory vs the coherence-preserving reference dynamics."""

    times: np.ndarray
    deviations: np.ndarray
    sup_deviation: float
    retention: np.ndarray
    final_retention: float


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
    coh = traj.coherence(m, n)
    retention = coh / coh[0] if coh[0] > 0 else np.full_like(coh, np.nan)
    return DeviationReport(times=traj.times, deviations=devs,
                           sup_deviation=float(devs.max()),
                           retention=retention,
                           final_retention=float(retention[-1]))
