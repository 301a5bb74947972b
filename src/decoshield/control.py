"""Periodic control schedules and the decoupling condition machinery.

A schedule is a T-periodic control Hamiltonian H_c(t) that commutes with
the system Hamiltonian at all times. Two families are supported:

* smooth:   H_c(t) = (mu/T) * kappa(t/T) * H_dir with kappa 1-periodic,
* bangbang: a 1-periodic train of instantaneous kicks of weights c_l
            at phases alpha_l, with zero total weight per period.

Both are fully described by the accumulated control phase phi(t) with
V_c(t) = exp(i phi(t) H_dir), which is what every routine below consumes.
The state receives V_c(t)* = exp(-i phi(t) H_dir), so a kick of weight c
multiplies it by exp(-i c H_dir) (``effective_dynamics``, ``simulate``).
In the H_dir eigenbasis every entry of the rotated coupling
V_c(t)* Q V_c(t) is a constant times the scalar phase
exp(-i phi(t) (w_m - w_n)), so no matrix is exponentiated. The decoupling
checker evaluates the averaged coupling over a period both as a running
integral (residual) and through the equivalent pair (periodicity of
Q(t), vanishing zero Fourier mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.optimize

from .errors import ArgumentError, TuneSearchError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SystemModel",
    "ControlSchedule",
    "DDReport",
    "FourierTable",
    "vc_at",
    "q_of_t",
    "check_dd",
    "tune_amplitude",
    "fourier_modes",
    "effective_dynamics",
    "commutation_defect",
    "cosine_profile",
    "operator_norm",
    "DD_TOL",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: default absolute tolerance on operator norms for the decoupling verdict
DD_TOL = 1e-7


def operator_norm(a) -> float:
    """Spectral (operator) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def _hermitian(a, name):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"{name} must be square")
    if operator_norm(a - a.conj().T) > 1e-10 * max(1.0, operator_norm(a)):
        raise ArgumentError(f"{name} must be Hermitian")
    return a


@dataclass(frozen=True)
class SystemModel:
    """System Hamiltonian and coupling operator."""

    h_s: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        h = _hermitian(self.h_s, "H_s")
        q = _hermitian(self.q, "Q")
        if h.shape != q.shape:
            raise ArgumentError("H_s and Q must act on the same space")
        object.__setattr__(self, "h_s", h)
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]

    @classmethod
    def qubit(cls) -> "SystemModel":
        """Two-level system with gap 2 and transverse coupling."""
        return cls(SIGMA_Z.copy(), SIGMA_X.copy())


def cosine_profile():
    """1-periodic cosine profile with its exact antiderivative."""
    kappa = lambda x: np.cos(2 * np.pi * x)
    kappa_int = lambda x: np.sin(2 * np.pi * x) / (2 * np.pi)
    return kappa, kappa_int


@dataclass(frozen=True)
class ControlSchedule:
    """T-periodic control commuting with H_s, smooth or bang-bang."""

    period: float
    kind: str  # "smooth" | "bangbang"
    h_dir: np.ndarray
    mu: float = 0.0
    kappa: Optional[Callable] = field(default=None, repr=False)
    kappa_integral: Optional[Callable] = field(default=None, repr=False)
    kick_phases: Optional[np.ndarray] = None
    kick_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.period > 0:
            raise ArgumentError("period must be positive")
        object.__setattr__(self, "h_dir", _hermitian(self.h_dir, "H_dir"))
        if self.kind == "smooth":
            if self.kappa is None:
                raise ArgumentError("smooth schedule needs a profile kappa")
            if abs(float(self.kappa(0.0)) - float(self.kappa(1.0))) > 1e-12:
                raise ArgumentError("kappa must be 1-periodic: kappa(0) != kappa(1)")
            if self.kappa_integral is None:
                object.__setattr__(
                    self, "kappa_integral", _numeric_antiderivative(self.kappa)
                )
        elif self.kind == "bangbang":
            phases = np.asarray(self.kick_phases, dtype=float)
            weights = np.asarray(self.kick_weights, dtype=float)
            if phases.ndim != 1 or phases.shape != weights.shape:
                raise ArgumentError("kick phases/weights must be 1-d and congruent")
            if not np.all((phases > 0) & (phases < 1)):
                raise ArgumentError("kick phases must lie in (0, 1)")
            if not np.all(np.diff(phases) > 0):
                raise ArgumentError("kick phases must be strictly increasing")
            if abs(weights.sum()) > 1e-12:
                raise ArgumentError("kick weights must sum to zero")
            object.__setattr__(self, "kick_phases", phases)
            object.__setattr__(self, "kick_weights", weights)
        else:
            raise ArgumentError(f"unknown schedule kind {self.kind!r}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def smooth(cls, period, mu, h_dir, kappa, kappa_integral=None):
        return cls(period=period, kind="smooth", h_dir=h_dir, mu=float(mu),
                   kappa=kappa, kappa_integral=kappa_integral)

    @classmethod
    def sinusoidal(cls, period, mu, h_dir=None):
        """The cosine-profile schedule of the standard qubit scenario."""
        kappa, kint = cosine_profile()
        if h_dir is None:
            h_dir = SIGMA_Z.copy()
        return cls.smooth(period, mu, h_dir, kappa, kint)

    @classmethod
    def bangbang(cls, period, phases, weights, h_dir=None):
        if h_dir is None:
            h_dir = SIGMA_Z.copy()
        return cls(period=period, kind="bangbang", h_dir=h_dir,
                   kick_phases=np.asarray(phases, float),
                   kick_weights=np.asarray(weights, float))

    @classmethod
    def off(cls, period=1.0, dim=2):
        """No forcing; useful as the uncontrolled baseline."""
        kappa, kint = cosine_profile()
        return cls.smooth(period, 0.0, np.zeros((dim, dim)), kappa, kint)

    # -- phase and Hamiltonian --------------------------------------------

    def phase(self, t):
        """Accumulated control phase phi(t): V_c(t) = exp(i phi(t) H_dir)."""
        t = np.asarray(t, dtype=float)
        x = t / self.period
        if self.kind == "smooth":
            n = np.floor(x)
            frac = x - n
            k1 = float(self.kappa_integral(1.0))
            return self.mu * (n * k1 + np.asarray(self.kappa_integral(frac), float))
        # bang-bang: count kicks at or before t (to 1e-9 of a period)
        out = np.zeros_like(x)
        for a, c in zip(self.kick_phases, self.kick_weights):
            # kicks at x = j + a for integers j >= 0
            out = out + c * np.maximum(0.0, np.floor(x - a + 1e-9) + 1)
        return out

    def h_c(self, t):
        """Control Hamiltonian at time t (smooth schedules only)."""
        if self.kind != "smooth":
            raise ArgumentError("bang-bang control has no pointwise Hamiltonian")
        return (self.mu / self.period) * float(self.kappa(t / self.period)) * self.h_dir

    def max_control_norm(self, samples: int = 512) -> float:
        """max_t ||H_c(t)||; for kicks, the integrated weight per period / T."""
        if self.kind == "smooth":
            xs = np.linspace(0.0, 1.0, samples, endpoint=False)
            kmax = float(np.max(np.abs(np.asarray(self.kappa(xs), float))))
            return abs(self.mu) / self.period * kmax * operator_norm(self.h_dir)
        # delta kicks: report the L1 surrogate sum |c_l| ||H_dir|| / T
        return float(np.sum(np.abs(self.kick_weights))) * operator_norm(self.h_dir) / self.period

    def strength(self) -> float:
        """T * max_t ||H_c(t)||, the dimensionless control strength."""
        return self.period * self.max_control_norm()

    def segments(self):
        """Bang-bang: (start_x, end_x, phase) pieces covering one period."""
        if self.kind != "bangbang":
            raise ArgumentError("segments are only defined for bang-bang control")
        bounds = np.concatenate(([0.0], self.kick_phases, [1.0]))
        phis = np.concatenate(([0.0], np.cumsum(self.kick_weights)))
        return [(bounds[i], bounds[i + 1], phis[i]) for i in range(len(phis))]


def _numeric_antiderivative(kappa):
    """Antiderivative of a 1-periodic profile on a dense cached grid."""
    n = 1 << 14
    xs = np.linspace(0.0, 1.0, n + 1)
    vals = np.asarray(kappa(xs), dtype=float)
    cum = scipy.integrate.cumulative_trapezoid(vals, xs, initial=0.0)

    def kint(x):
        return np.interp(np.asarray(x, float), xs, cum)

    return kint


def commutation_defect(model: SystemModel, schedule: ControlSchedule) -> float:
    """||[H_s, H_dir]||; zero exactly when H_c(t) commutes with H_s at all t."""
    return operator_norm(model.h_s @ schedule.h_dir - schedule.h_dir @ model.h_s)


def _dir_basis(op, h_dir):
    """H_dir eigenbasis v, ``op`` in that basis and the Bohr differences.

    With V_c(t) = exp(i phi(t) H_dir), the rotated operator is
    V_c(t)* op V_c(t) = v (op_t * exp(-i phi(t) dw)) v*, where op_t is
    ``op`` in the eigenbasis and dw[m, n] = w_m - w_n: every entry is a
    constant times a scalar phase.
    """
    w, v = np.linalg.eigh(h_dir)
    return v, v.conj().T @ np.asarray(op, complex) @ v, w[:, None] - w[None, :]


def _rotated(op, schedule: ControlSchedule, phi: float) -> np.ndarray:
    """V_c* op V_c at accumulated control phase ``phi``."""
    v, op_t, dw = _dir_basis(op, schedule.h_dir)
    return v @ (op_t * np.exp(-1j * phi * dw)) @ v.conj().T


def vc_at(schedule: ControlSchedule, t: float) -> np.ndarray:
    """Control propagator V_c(t) with V' = i H_c(t) V, V(0) = 1."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
    w, v = np.linalg.eigh(schedule.h_dir)
    return (v * np.exp(1j * float(schedule.phase(t)) * w)) @ v.conj().T


def q_of_t(model: SystemModel, schedule: ControlSchedule, t: float) -> np.ndarray:
    """Interaction-picture coupling V_c(t)* Q V_c(t)."""
    if t < 0:
        raise ArgumentError("t must be nonnegative")
    return _rotated(model.q, schedule, float(schedule.phase(t)))


def _modes(op, schedule: ControlSchedule, ks) -> np.ndarray:
    """Fourier modes int_0^1 V_c(xT)* op V_c(xT) exp(-2 pi i k x) dx, k in ks.

    Only the scalar phases exp(-i phi dw) are transformed: smooth
    schedules by one FFT of the phase grid (uniform trapezoid rule,
    spectrally accurate for periodic integrands), kick schedules exactly
    segment by segment, the phase being constant between kicks. The
    smooth grid has at least 4096 points and more than 2 max|k|, so no
    requested mode aliases onto another.
    """
    v, op_t, dw = _dir_basis(op, schedule.h_dir)
    ks = np.asarray(ks, dtype=int)
    if schedule.kind == "bangbang":
        w = 2j * np.pi * np.where(ks == 0, 1, ks)
        coeffs = 0
        for x0, x1, phi in schedule.segments():
            # int_{x0}^{x1} exp(-2 pi i k x) dx
            weights = np.where(ks == 0, x1 - x0,
                               (np.exp(-w * x0) - np.exp(-w * x1)) / w)
            coeffs = coeffs + weights[:, None, None] * np.exp(-1j * phi * dw)
    else:
        samples = max(4096, 1 << int(2 * np.abs(ks).max()).bit_length())
        phis = schedule.phase(np.linspace(0.0, schedule.period, samples,
                                          endpoint=False))
        ds, idx = np.unique(dw, return_inverse=True)
        spectra = np.fft.fft(np.exp(-1j * phis[:, None] * ds), axis=0) / samples
        coeffs = spectra[ks % samples][:, idx.reshape(dw.shape)]
    return np.einsum("ab,kbc,dc->kad", v, op_t * coeffs, v.conj())


def _bohr_parts(model: SystemModel) -> dict:
    """Bohr components Q_w = sum_{e' - e = w} P_e Q P_e' of the coupling.

    The projectors P_e come from ``eigh(H_s)`` with eigenvalues within
    1e-10 grouped, and Bohr frequencies within 1e-10 are merged. Keys are
    the frequencies w whose component does not vanish.
    """
    e, v = np.linalg.eigh(model.h_s)
    cuts = np.flatnonzero(np.diff(e) > 1e-10) + 1
    levels = [(float(es[0]), vs @ vs.conj().T)
              for es, vs in zip(np.split(e, cuts), np.split(v, cuts, axis=1))]
    floor = 1e-14 * max(1.0, operator_norm(model.q))
    parts = {}
    for e_left, p_left in levels:
        for e_right, p_right in levels:
            block = p_left @ model.q @ p_right
            if operator_norm(block) <= floor:
                continue
            w = e_right - e_left
            w = next((u for u in parts if abs(u - w) <= 1e-10), w)
            parts[w] = parts.get(w, 0) + block
    return parts


def _bohr_modes(model: SystemModel, schedule: ControlSchedule, ks) -> dict:
    """(k, w) -> Fourier mode k of the rotated Bohr component Q_w.

    H_dir commutes with H_s, so the rotation keeps each Q_w in its own
    block; the mode (k, w) sits at the comb frequency k/T + w.
    """
    ks = np.asarray(ks, dtype=int)
    return {(k, w): mode
            for w, part in _bohr_parts(model).items()
            for k, mode in zip(ks.tolist(), _modes(part, schedule, ks))}


def _window_integral(schedule: ControlSchedule, dw, t0: float) -> np.ndarray:
    """int_{t0}^{t0+T} exp(-i phi(s) dw) ds, entrywise.

    Kick schedules: exact sum over the pieces between kicks. Smooth
    schedules: adaptive quadrature of the real and imaginary part per
    distinct dw > 0; the entry at -dw is its conjugate and dw = 0
    integrates to T.
    """
    T = schedule.period
    if schedule.kind == "bangbang":
        j0 = math.floor(t0 / T)
        kicks = [(j + a) * T for j in range(j0 - 1, j0 + 3)
                 for a in schedule.kick_phases]
        xs = np.array(sorted([t0, t0 + T] + [tk for tk in kicks
                                             if t0 < tk < t0 + T]))
        phis = schedule.phase(0.5 * (xs[:-1] + xs[1:]))
        return np.einsum("p,pmn->mn", np.diff(xs),
                         np.exp(-1j * phis[:, None, None] * dw))
    out = np.full(dw.shape, complex(T))
    for delta in np.unique(dw[dw > 0]):
        re, im = (scipy.integrate.quad(
            lambda s: f(float(schedule.phase(s)) * delta), t0, t0 + T,
            epsabs=1e-10, limit=200)[0] for f in (math.cos, math.sin))
        out[dw == delta] = re - 1j * im
        out[dw == -delta] = re + 1j * im
    return out


@dataclass(frozen=True)
class DDReport:
    """Decoupling check: running-integral residual and the equivalent pair."""

    residual: float              # window integral / T: compares with tolerance
    periodicity_defect: float
    zero_mode_norm: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.periodicity_defect < self.tolerance
                and self.zero_mode_norm < self.tolerance)

    def __str__(self):
        verdict = "pass" if self.passed else "fail"
        return (f"DD {verdict}: residual={self.residual:.3e}, "
                f"periodicity defect={self.periodicity_defect:.3e}, "
                f"zero mode={self.zero_mode_norm:.3e} (tol {self.tolerance:.1e})")


def check_dd(model: SystemModel, schedule: ControlSchedule,
             tol: float = DD_TOL, base_points: int = 16) -> DDReport:
    """Verify the decoupling condition int_t^{t+T} Q(s) ds = 0.

    The residual is the max over ``base_points`` window offsets t of
    ||int_t^{t+T} Q(s) ds|| / T. In the H_dir eigenbasis each entry of
    the window integral is a constant times a scalar phase integral
    (adaptive quadrature per Bohr difference for smooth schedules, an
    exact sum over the pieces between kicks otherwise). The equivalent
    two-condition form (Q periodic, zero Fourier mode vanishing) is
    evaluated independently.
    """
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    T = schedule.period
    _, q_t, dw = _dir_basis(model.q, schedule.h_dir)
    residual = max(
        operator_norm(q_t * _window_integral(schedule, dw, float(t0))) / T
        for t0 in np.linspace(0.0, T, base_points, endpoint=False))
    defect = operator_norm(q_of_t(model, schedule, T) - model.q)
    zero_mode = _modes(model.q, schedule, [0])[0]
    return DDReport(residual=float(residual), periodicity_defect=float(defect),
                    zero_mode_norm=operator_norm(zero_mode), tolerance=tol)


def tune_amplitude(model: SystemModel, schedule_factory, bracket,
                   tol: float = 1e-8, scan_points: int = 33) -> float:
    """Find the amplitude at which the zero Fourier mode of Q vanishes.

    ``schedule_factory`` maps an amplitude to a ControlSchedule. The
    signed surrogate is the real part of the zero mode's dominant
    coupling entry, normalized to 1 at zero amplitude; a Brent root of
    the surrogate inside ``bracket`` is returned.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ArgumentError("bracket must be an increasing interval")
    # reference entry: the largest off-diagonal coupling element
    q = model.q
    off = np.abs(q - np.diag(np.diag(q)))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    if off[i, j] == 0:
        raise ArgumentError("coupling operator has no off-diagonal part to tune")

    def surrogate(mu):
        zm = _modes(q, schedule_factory(mu), [0])[0]
        return float((zm[i, j] / q[i, j]).real)

    mus = np.linspace(lo, hi, scan_points)
    vals = [surrogate(m) for m in mus]
    scan = list(zip(mus.tolist(), vals))
    for (m0, v0), (m1, v1) in zip(scan[:-1], scan[1:]):
        if v0 == 0.0:
            return m0
        if v0 * v1 < 0:
            mu_star = scipy.optimize.brentq(surrogate, m0, m1, xtol=1e-12, rtol=1e-15)
            if abs(surrogate(mu_star)) >= tol:
                raise TuneSearchError(
                    f"root at {mu_star} does not reduce the surrogate below {tol}",
                    scan=scan)
            return float(mu_star)
    raise TuneSearchError(
        f"no sign change of the zero-mode surrogate in [{lo}, {hi}]", scan=scan)


@dataclass(frozen=True)
class FourierTable:
    """Fourier modes of Q(t) and of its rotated Bohr components."""

    cutoff: int
    modes: dict            # k -> matrix, |k| <= cutoff
    bohr: dict             # (k, w) -> matrix, |k| <= cutoff, w a Bohr frequency
    tail_bound: float
    parseval_defect: float

    def mode(self, k: int) -> np.ndarray:
        return self.modes[k]

    def zero_mode_norm(self) -> float:
        return operator_norm(self.modes[0])


def fourier_modes(model: SystemModel, schedule: ControlSchedule,
                  K: Optional[int] = None) -> FourierTable:
    """Fourier transform of the interaction-picture coupling.

    In the H_dir eigenbasis only the scalar phases exp(-i phi(t) dw) are
    transformed: by one FFT of a phase grid for smooth schedules
    (spectrally accurate for periodic integrands) and exactly, segment by
    segment, for kick schedules. With ``K=None`` a smooth table grows
    until three consecutive rings hold less than 1e-12 of mode power and
    a kick table stops at |k| = 64. The Parseval check compares the mode power with
    ||Q||_F^2, the time average of ||Q(t)||_F^2 (V_c is unitary); for
    kicks, whose modes decay like 1/k, the tail bound is that Parseval
    remainder.
    """
    if K is not None and K < 1:
        raise ArgumentError("K must be >= 1")
    if K is not None:
        k_max = K
    elif schedule.kind == "bangbang":
        k_max = 64      # 1/k modes never meet the ring-power criterion
    else:
        k_max = 2047    # the largest |k| a 4096-point phase grid resolves
    ks = np.arange(-k_max, k_max + 1)
    every = dict(zip(ks.tolist(), _modes(model.q, schedule, ks)))

    modes = {0: every[0]}
    cutoff = 0
    recent = []
    while cutoff < k_max:
        cutoff += 1
        modes[cutoff], modes[-cutoff] = every[cutoff], every[-cutoff]
        recent.append(float(np.sum(np.abs(modes[cutoff]) ** 2)
                            + np.sum(np.abs(modes[-cutoff]) ** 2)))
        if K is None and len(recent) >= 3 and sum(recent[-3:]) < 1e-12:
            break

    power = float(np.sum(np.abs(model.q) ** 2))
    mode_power = float(sum(np.sum(np.abs(m) ** 2) for m in modes.values()))
    tail_bound = (max(0.0, power - mode_power) if schedule.kind == "bangbang"
                  else sum(recent[-3:]))
    bohr = _bohr_modes(model, schedule, np.arange(-cutoff, cutoff + 1))
    return FourierTable(cutoff=cutoff, modes=modes, bohr=bohr,
                        tail_bound=float(tail_bound),
                        parseval_defect=abs(mode_power - power))


def effective_dynamics(model: SystemModel, schedule: ControlSchedule,
                       rho0: np.ndarray, t: float) -> np.ndarray:
    """Reservoir-free reference state e^{-itH_s} V_c(t)* rho0 V_c(t) e^{itH_s}."""
    rho0 = np.asarray(rho0, dtype=complex)
    _validate_state(rho0)
    w, v = np.linalg.eigh(model.h_s)
    u = (v * np.exp(-1j * t * w)) @ v.conj().T @ vc_at(schedule, t).conj().T
    return u @ rho0 @ u.conj().T


def _validate_state(rho, tol=1e-10):
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ArgumentError("state must be a square matrix")
    if operator_norm(rho - rho.conj().T) > tol:
        raise ArgumentError("state must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ArgumentError("state must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ArgumentError("state must be positive semidefinite")
