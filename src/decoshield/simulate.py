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
Hamiltonian. ``evolve_pair`` runs the baseline and the drive on one
frame, and a kick train's walk reuses the baseline's static eigenbasis.

Everything runs one conserved sector at a time. In the joint basis H(t)
is diagonal but for lam Q x Phi, and Phi flips the fermion parity. So
each connected component of the graph of Q (entries past the zero gate of
``control._CouplingFrame``) on the system levels is closed, and a two-colourable
one (no self-loop, no odd cycle) splits once more into the two sectors
of fixed colour(i) xor parity(b): at most 2d sectors, never one per
mode. The paper's qubit (Q = sigma_x) gives two halves; a Q with a
diagonal part in the joint basis gives one sector. The period walk, the
Schur form and the static eigh run per sector.

The thermal average is exact: the initial density matrix, the system
state times the Fermi-Dirac product weights of the reservoir occupation
bitstrings, is held in the Floquet basis, and each reduced state is read
from it with the sample's phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from .control import (ControlSchedule, SystemModel, _CouplingFrame,
                      _validate_state, commutation_defect,
                      effective_dynamics)
from .errors import ArgumentError, NumericError, ResourceError
from .reservoir import ModeSet

__all__ = [
    "TotalModel",
    "Trajectory",
    "DeviationReport",
    "evolve",
    "evolve_pair",
    "compare_with_effective",
    "trace_distance",
]

DIMENSION_GUARD = 2**14
_COHERENCE = (0, 1)     # the levels whose coherence compare_with_effective keeps


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


# Phi maps the even bitstrings (class 0) to the odd ones (1) and back, and
# every bitstring (class 2) to every bitstring
_FLIP = np.array([1, 0, 2])


@dataclass(frozen=True)
class _Sector:
    """One conserved sector: row k holds system level ``levels[k]`` times
    the reservoir bitstrings of class ``parity[k]`` (0 even, 1 odd, 2 all);
    ``index`` lists its states as level * 2^N + bitstring, ascending."""

    levels: np.ndarray
    parity: np.ndarray
    index: np.ndarray


class _Sectors(_CouplingFrame):
    """The conserved sectors of H(t) in the joint eigenbasis of H_s and H_dir.

    There H(t) is diagonal but for lam Q x Phi, and Phi flips the fermion
    parity. Q's entries count as edges past the frame's zero gate. A
    connected component of the graph of Q on the system levels is closed
    under H(t); a two-colourable one (no self-loop, no odd cycle) splits
    into two sectors, each with colour(i) xor parity(b) fixed, any other is
    one sector. So there are at most 2d sectors; a reservoir without modes
    has one parity and splits nothing.
    """

    def __init__(self, tm: TotalModel):
        d, n = tm.system.dim, tm.n_modes
        nr = 2**n
        super().__init__(tm.system, np.zeros((d, d)) if tm.schedule is None
                         else tm.schedule.h_dir)
        self.er, self.probs, self.phi = tm.reservoir()
        self.g = math.sqrt(0.5 * float(tm.modes.couplings @ tm.modes.couplings))
        parity = np.zeros(nr, dtype=int)
        for j in range(n):
            parity ^= (np.arange(nr) >> j) & 1
        self.rows = (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1),
                     np.arange(nr))
        self.sectors = []
        colour = np.full(d, -1)
        for root in range(d):
            if colour[root] >= 0:
                continue
            colour[root] = 0
            component, two_colour = [root], n > 0
            for i in component:     # breadth first; the list grows
                for j in np.flatnonzero(self.q[i]):
                    if colour[j] < 0:
                        colour[j] = 1 - colour[i]
                        component.append(j)
                    elif colour[j] == colour[i]:
                        two_colour = False    # a self-loop or an odd cycle
            levels = np.sort(component)
            classes = ([colour[levels], 1 - colour[levels]] if two_colour
                       else [np.full(len(levels), 2)])
            for cls in classes:
                index = np.concatenate([k * nr + self.rows[p]
                                        for k, p in zip(levels, cls)])
                self.sectors.append(_Sector(levels, cls, index))
        # each joint state's sector and its position in the sector's index
        self.label = np.empty(d * nr, dtype=int)
        self.position = np.empty(d * nr, dtype=int)
        for k, sector in enumerate(self.sectors):
            self.label[sector.index] = k
            self.position[sector.index] = np.arange(len(sector.index))

    def overlaps(self, a, b):
        """The sector pairs (k, l) where Y_a^T conj(Y_b) can be nonzero for
        a block-diagonal Y, with the positions of level a's rows in sector
        k and of level b's rows in sector l, bitstring by bitstring; pairs
        in the order of their lowest bitstring."""
        nr, n = len(self.er), len(self.sectors)
        rows_a, rows_b = a * nr + np.arange(nr), b * nr + np.arange(nr)
        pairs = self.label[rows_a] * n + self.label[rows_b]
        keys, first = np.unique(pairs, return_index=True)
        return [(key // n, key % n, self.position[rows_a[pairs == key]],
                 self.position[rows_b[pairs == key]])
                for key in keys[np.argsort(first)].tolist()]

    def field(self, p):
        """Phi / g (Phi at g = 0) from the bitstrings of class p to flip(p)."""
        phi = self.phi[self.rows[_FLIP[p]]][:, self.rows[p]]
        return phi / self.g if self.g > 0 else phi


class _SplitStepper:
    """Strang splitting on one sector: exact diagonal phases around the
    coupling factor exp(-i h lam Q x Phi) = cos(theta Q) x 1 -
    i sin(theta Q) x Phi / g, theta = h lam g, which Phi^2 = g^2 =
    ||f||^2 / 2 gives (1 at g = 0). cos(theta Q) keeps a row's parity and
    sin(theta Q) flips it; the entries that would leave the sector, 0 up
    to rounding, are set to 0.

    A half step's diagonal phase splits into a per-level factor
    exp(-i (h/2 e_s + dphi e_dir)), folded into each step's small coupling
    matrix, and the constant bitstring factor exp(-i h/2 e_R), which two
    consecutive steps apply once as exp(-i h e_R)."""

    def __init__(self, tm: TotalModel, step: float, frame: _Sectors,
                 sector: _Sector):
        self.schedule, self.step = tm.schedule, step
        levels, parity = sector.levels, sector.parity
        self.es, self.edir = frame.es[levels], frame.edir[levels]
        er = np.stack([frame.er[frame.rows[p]] for p in parity])[:, :, None]
        self.half = np.exp(-0.5j * step * er)
        self.full = np.exp(-1j * step * er)
        self.phi = [frame.field(p) for p in parity]
        qw, qv = np.linalg.eigh(frame.q[np.ix_(levels, levels)])
        theta = step * tm.lam * frame.g * qw
        keep = parity[:, None] == parity[None, :]
        flip = parity[:, None] == _FLIP[parity][None, :]
        # [cos(theta Q), -i sin(theta Q)], applied to [psi; Phi psi / g]
        self.kick = np.hstack([
            np.where(keep, (qv * np.cos(theta)) @ qv.conj().T, 0.0),
            np.where(flip, (qv * (-1j * np.sin(theta))) @ qv.conj().T, 0.0)])

    def walk(self, psi, t, k):
        """k Strang steps from time t on psi shaped (rows, bitstrings per
        row, K); returns a new array."""
        h, m = self.step, len(psi)
        ts = t + h * np.arange(k)
        phi0, phi1, phi2 = self.schedule.phase(
            ts + h * np.array([[0.0], [0.5], [1.0]]))

        def levels(dphi):     # (k, m) per-level half-step phases
            return np.exp((-1j) * (0.5 * h * self.es
                                   + dphi[:, None] * self.edir))

        # step i: diag(after_i) [cos, -i sin] diag(before_i, before_i)
        kicks = (levels(phi2 - phi1)[:, :, None] * self.kick
                 * np.tile(levels(phi1 - phi0), 2)[:, None, :])
        # [psi; Phi psi / g]; Phi is real, so it acts on the interleaved
        # real and imaginary parts
        both = np.empty((2 * m,) + psi.shape[1:], dtype=complex)
        out = np.empty(psi.shape, dtype=complex)
        np.multiply(psi, self.half, out=both[:m])
        for i in range(k):
            for j in range(m):
                both[m + j] = (self.phi[j] @ both[j].view(float)).view(complex)
            np.matmul(kicks[i], both.reshape(2 * m, -1),
                      out=out.reshape(m, -1))
            if i < k - 1:
                np.multiply(out, self.full, out=both[:m])
        out *= self.half
        return out


def _static_hamiltonian(tm, frame, sector):
    """H(0) = H_s + H_R + lam Q Phi on one sector, in the joint basis
    (kicks add no term)."""
    phi = frame.phi.toarray()
    rows = [frame.rows[p] for p in sector.parity]
    h = np.block([[tm.lam * frame.q[a, b] * phi[np.ix_(ra, rb)]
                   for b, rb in zip(sector.levels, rows)]
                  for a, ra in zip(sector.levels, rows)])
    h[np.diag_indices_from(h)] += np.concatenate(
        [frame.es[a] + frame.er[ra] for a, ra in zip(sector.levels, rows)])
    return h


def _static_eigh(tm, frame):
    """Per sector, the eigenpairs of H(0) in the joint basis."""
    return [np.linalg.eigh(_static_hamiltonian(tm, frame, s))
            for s in frame.sectors]


def _period_walk(tm, frame, offsets, substeps, static):
    """Per sector, U(r, 0) for each offset r in (0, T), and the monodromy
    U(T, 0), in the joint eigenbasis of H_s and H_dir.

    One walk per sector over the kick times, the offsets and T: between
    events a smooth drive takes Strang steps (segment-wise, so each offset
    is a step boundary), a kick schedule the exact static propagator from
    ``static``, the list of ``_static_eigh``, which the walk empties when
    it ends, so the eigenpairs are released as soon as it is done. A
    kick of weight c multiplies by the diagonal phase exp(-i c e_dir), so
    on both kinds the state receives V_c(t)* = exp(-i phi(t) H_dir); an
    offset within 1e-9 T of a kick time sees the kick, as
    ``ControlSchedule.phase`` counts it. Returns {r: [block per sector]}
    and [monodromy block per sector].
    """
    sched, T = tm.schedule, tm.schedule.period
    kicks = {}
    if sched.kind == "bangbang":
        kicks = dict(zip(sched.kick_phases * T, sched.kick_weights))
    marks = {T: [T]}   # event time -> offsets sampled there; T: monodromy
    for r in set(float(r) for r in offsets if 0.0 < r < T):
        at = next((tk for tk in kicks if abs(r - tk) <= 1e-9 * T), r)
        marks.setdefault(at, []).append(r)
    events = sorted(set(marks) | set(kicks))
    props = {r: [] for rs in marks.values() for r in rs}
    for s, sector in enumerate(frame.sectors):
        m, n = len(sector.levels), len(sector.index)
        u = np.eye(n, dtype=complex).reshape(m, n // m, n)
        edir = frame.edir[sector.levels][:, None, None]
        steppers, t = {}, 0.0
        for t_next in events:
            seg = t_next - t
            if sched.kind == "bangbang":
                e, v = static[s]
                free = v.conj().T @ u.reshape(n, n)
                free *= np.exp(-1j * seg * e)[:, None]
                u = (v @ free).reshape(m, n // m, n)
                u *= np.exp(-1j * kicks.get(t_next, 0.0) * edir)
            else:
                k = max(1, int(round(substeps * seg / T)))
                h = seg / k
                key = round(h, 15)
                if key not in steppers:
                    steppers[key] = _SplitStepper(tm, h, frame, sector)
                u = steppers[key].walk(u, t, k)
            for r in marks.get(t_next, ()):
                props[r].append(u.reshape(n, n))
            t = t_next
    if sched.kind == "bangbang":
        static.clear()
    return props, props.pop(T)


def _driven(schedule) -> bool:
    return schedule is not None and not (schedule.kind == "smooth"
                                         and schedule.mu == 0.0)


def _sample_times(rho_s0, t_final, sample_dt):
    rho_s0 = np.asarray(rho_s0, dtype=complex)
    _validate_state(rho_s0)
    if not sample_dt > 0 or t_final < 0:
        raise ArgumentError("need t_final >= 0 and sample_dt > 0")
    times = np.round(np.arange(0.0, t_final + 0.5 * sample_dt, sample_dt), 12)
    return rho_s0, times


def evolve(tm: TotalModel, rho_s0, t_final: float, sample_dt: float,
           substeps_per_period: int = 1024) -> Trajectory:
    """Propagate the joint state and sample the reduced density matrix.

    Everything runs in the joint eigenbasis of H_s and H_dir, where H(t)
    keeps each conserved sector (``_Sectors``) closed, so every propagator
    and the Floquet basis W are block-diagonal by sector; rho_s0 is rotated
    in and the reduced states out with one d x d product each. The
    initial total state rho_s0 x diag(p), p_b the Fermi-Dirac product
    probability of occupation bitstring b, is held as C = W^dagger rho W
    in the Floquet basis: driven runs take W and eps = i log(lambda) / T
    from the Schur forms of the sector monodromies and s = nT, undriven
    runs the eigenbasis of the static Hamiltonian, s = t. C couples the
    sectors wherever rho_s0 does. A sample t = nT + r is
    Tr_R[Y D C D^* Y^*] with Y = F_r W, F_r the cached intra-period
    propagator, and D = exp(-i eps s). Per offset r and system pair
    (a, b) that is the blocks (Y_a^T conj(Y_b)) o C of the sector pairs
    that hold levels a and b on common bitstrings, each contracted with
    the phases of all of r's samples in one product.
    """
    rho_s0, times = _sample_times(rho_s0, t_final, sample_dt)
    frame, driven = _Sectors(tm), _driven(tm.schedule)
    static = (_static_eigh(tm, frame)
              if not driven or tm.schedule.kind == "bangbang" else None)
    return _run(tm, frame, rho_s0, times, substeps_per_period, static, driven)


def evolve_pair(tm: TotalModel, rho_s0, t_final: float, sample_dt: float,
                substeps_per_period: int = 1024) -> dict:
    """The undriven run of ``tm`` and, when it has a schedule, the driven
    one, as {"off": (Trajectory, DeviationReport), "on": (...)}, each
    compared with the reference dynamics of its own schedule.

    Both arms run on one frame, the sectors of ``tm`` in the joint
    eigenbasis of H_s and H_dir, and sample as ``evolve`` does. The
    undriven arm diagonalizes H(0) once per sector; a kick train's walk
    takes those eigenpairs over and releases them, and a smooth drive
    releases them before its walk.
    """
    rho_s0, times = _sample_times(rho_s0, t_final, sample_dt)
    frame = _Sectors(tm)
    static = _static_eigh(tm, frame)
    runs = {}
    arms = [("on", tm.schedule)] if tm.schedule is not None else []
    for label, sched in [("off", None)] + arms:
        if _driven(sched) and sched.kind != "bangbang":
            static = None     # Strang steps do not use the static eigh
        traj = _run(tm, frame, rho_s0, times, substeps_per_period, static,
                    _driven(sched))
        runs[label] = (traj, compare_with_effective(traj, tm.system, sched))
    return runs


def _run(tm, frame, rho_s0, times, substeps, static, driven):
    """One run on ``frame`` (``evolve`` has the formulas): an undriven one
    from ``static``, the per-sector eigenpairs of H(0), a driven one from
    the Schur forms of the sector monodromies (a kick train's walk empties
    ``static``)."""
    d, nr = tm.system.dim, 2**tm.n_modes
    dim = d * nr

    if driven:
        T = tm.schedule.period
        periods = np.floor(times / T + 1e-9).astype(int)
        offsets = np.round(times - periods * T, 12)
        wrapped = np.abs(offsets - T) < 1e-9
        periods[wrapped] += 1
        offsets[wrapped] = 0.0
        frags, monodromies = _period_walk(tm, frame, offsets, substeps, static)
        eps_k, blocks, off_diagonal = [], [], 0.0
        for u_t in monodromies:
            schur, z = scipy.linalg.schur(u_t, output="complex")
            off_diagonal = max(off_diagonal,
                               float(np.max(np.abs(np.triu(schur, 1)))))
            # complex log: |lambda|^n is kept, so a non-unitary U_T shows
            eps_k.append(1j * np.log(np.diag(schur)) / T)
            blocks.append(z)
        del monodromies, schur
        if off_diagonal > 1e-10:
            raise NumericError("monodromy is not normal",
                               diagnostics={"off_diagonal": off_diagonal})
        shifts = periods * T
    else:
        eps_k, blocks = zip(*static)
        shifts, offsets, frags = times, np.zeros_like(times), {}
    index = [sector.index for sector in frame.sectors]
    w = np.zeros((dim, dim), dtype=complex)
    eps = np.empty(dim, dtype=np.result_type(*eps_k))
    for rows, z, e in zip(index, blocks, eps_k):
        w[np.ix_(rows, rows)] = z
        eps[rows] = e

    # C = W^dagger X with X = (rho x diag(p)) W, rho = rho_s0 in the joint
    # basis, the system factor contracted first; C is Hermitian, so
    # C = conj(X)^T W, taken sector by sector of W
    rho = frame.basis.conj().T @ rho_s0 @ frame.basis
    x = np.einsum("ab,bBj->aBj", rho, w.reshape(d, nr, dim))
    x *= frame.probs[:, None]
    x = np.conj(x, out=x).reshape(dim, dim)
    del w
    c = np.empty((dim, dim), dtype=complex)
    for rows, z in zip(index, blocks):
        c[:, rows] = x[rows].T @ z
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

    overlaps = {(a, b): frame.overlaps(a, b)
                for a in range(d) for b in range(a, d)}
    states = np.empty((len(times), d, d), dtype=complex)
    for r in np.unique(offsets):
        idx = np.flatnonzero(offsets == r)
        y = ([f @ z for f, z in zip(frags.pop(r), blocks)] if r > 0.0
             else blocks)
        phases = np.exp(-1j * np.outer(eps, shifts[idx]))
        back = phases.conj()
        for (a, b), pieces in overlaps.items():
            rho_ab = 0.0
            for k, l, rows_a, rows_b in pieces:
                block = y[k][rows_a].T @ y[l][rows_b].conj()
                block *= c[np.ix_(index[k], index[l])]
                rho_ab = rho_ab + np.einsum("is,is->s", phases[index[k]],
                                            block @ back[index[l]])
                del block
            states[idx, b, a] = np.conj(rho_ab)
            states[idx, a, b] = rho_ab
        del y
    states = frame.basis @ states @ frame.basis.conj().T

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
                           schedule: Optional[ControlSchedule]) -> DeviationReport:
    """Per-time trace distance to the reservoir-free reference dynamics."""
    sched = schedule if schedule is not None else ControlSchedule.off(
        period=1.0, dim=model.dim)
    rho0 = traj.initial_state
    refs = effective_dynamics(model, sched, rho0, traj.times)
    devs = np.array([trace_distance(rho, ref)
                     for rho, ref in zip(traj.reduced_states, refs)])
    m, n = _COHERENCE
    coh0 = abs(rho0[m, n])
    retention = traj.coherence(m, n) / coh0 if coh0 > 0 else None
    return DeviationReport(times=traj.times, deviations=devs,
                           sup_deviation=float(devs.max()),
                           retention=retention,
                           final_retention=None if retention is None
                           else float(retention[-1]))
