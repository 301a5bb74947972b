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
In the joint eigenbasis of H_s and H_dir (``_CouplingFrame``) every entry
of the rotated coupling V_c(t)* Q V_c(t) is a constant times the scalar
phase exp(-i phi(t) dw), dw = w_m - w_n, so no matrix is exponentiated. The
decoupling checker evaluates the averaged coupling over a period both as
a running integral (residual) and through the equivalent pair
(periodicity of Q(t), vanishing zero Fourier mode), all from one phase
grid; the residual equals the zero-mode norm whenever phi(T) dw = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
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
# H_s levels (and Bohr frequencies) within _LEVEL_TOL are one; joint-basis
# entries of Q at or below _ZERO_GATE max(1, ||Q||) are zero
_LEVEL_TOL, _ZERO_GATE = 1e-10, 1e-14
# check_dd's window offsets jT/16 and smallest smooth phase grid (16 | 4096);
# tune_amplitude's bound on the surrogate at the root and its scan points
_DD_WINDOWS, _GRID, _TUNE_TOL, _TUNE_SCAN = 16, 4096, 1e-8, 33


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
            k0 = float(self.kappa_integral(0.0))    # any antiderivative K
            k1 = float(self.kappa_integral(1.0)) - k0
            return self.mu * (n * k1 + np.asarray(self.kappa_integral(frac), float) - k0)
        # bang-bang: count kicks at or before t (to 1e-9 of a period)
        out = np.zeros_like(x)
        for a, c in zip(self.kick_phases, self.kick_weights):
            # kicks at x = j + a for integers j >= 0
            out = out + c * np.maximum(0.0, np.floor(x - a + 1e-9) + 1)
        return out

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
    cum = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (vals[1:] + vals[:-1]) / 2.0)))

    def kint(x):
        return np.interp(np.asarray(x, float), xs, cum)

    return kint


def commutation_defect(model: SystemModel, schedule: ControlSchedule) -> float:
    """||[H_s, H_dir]||; zero exactly when H_c(t) commutes with H_s at all t."""
    return operator_norm(model.h_s @ schedule.h_dir - schedule.h_dir @ model.h_s)


class _CouplingFrame:
    """Q in the joint eigenbasis ``basis`` (columns) of H_s and H_dir, with
    their levels ``es`` (ascending) and ``edir``; entries |q_mn| <= 1e-14
    max(1, ||Q||) are set to 0, the one zero gate of the package. Entry
    (m, n) of the rotated coupling at control phase phi is
    q_mn exp(-i phi dw_mn), dw_mn = edir_m - edir_n, one of ``ds``. Each of
    the index ``runs`` is one H_s level: neighbours within 1e-10 join."""

    def __init__(self, model: SystemModel, h_dir):
        e, v = np.linalg.eigh(model.h_s)
        self.runs = np.split(np.arange(len(e)), np.flatnonzero(np.diff(e) > _LEVEL_TOL) + 1)
        hd = v.conj().T @ h_dir @ v
        for run in self.runs:   # re-diagonalize H_dir inside a degenerate level
            if len(run) > 1:
                v[:, run] = v[:, run] @ np.linalg.eigh(hd[np.ix_(run, run)])[1]
        self.basis, self.es = v, e
        self.edir = np.real(np.diag(v.conj().T @ h_dir @ v))
        self.ds, at = np.unique(self.edir[:, None] - self.edir, return_inverse=True)
        self._at = at.reshape(len(e), len(e))
        self.q = v.conj().T @ model.q @ v
        self.q[np.abs(self.q) <= _ZERO_GATE * max(1.0, operator_norm(self.q))] = 0.0

    def scaled(self, coeffs) -> np.ndarray:
        """q_mn times coeffs[..., i] with ds[i] = dw_mn."""
        return self.q * coeffs[..., self._at]

    def rotated(self, phi: float) -> np.ndarray:
        """V_c* Q V_c at accumulated control phase ``phi``, in the frame."""
        return self.scaled(np.exp(-1j * phi * self.ds))

    def back(self, ops) -> np.ndarray:
        """Matrices (the last two axes) from the frame to the original basis."""
        return np.einsum("ab,...bc,dc->...ad", self.basis, ops, self.basis.conj())

    def bohr(self, ks, modes) -> dict:
        """(k, w) -> the frame-basis mode ``modes[i]`` of k = ks[i] restricted
        to Q_w = sum_{e'-e=w} P_e Q P_e' and rotated back, e the row level
        and e' the column level, a level valued at the lowest of its run;
        a w within 1e-10 of one met before joins it."""
        masks = {}
        for left in self.runs:
            for right in self.runs:
                block = np.zeros(self.q.shape, dtype=bool)
                block[np.ix_(left, right)] = self.q[np.ix_(left, right)] != 0
                if block.any():
                    w = float(self.es[right[0]]) - float(self.es[left[0]])
                    w = next((u for u in masks if abs(u - w) <= _LEVEL_TOL), w)
                    masks[w] = masks.get(w, False) | block
        return {(k, w): mode
                for w, mask in masks.items()
                for k, mode in zip(ks.tolist(), self.back(modes * mask))}


def _modes(frame: _CouplingFrame, schedule: ControlSchedule, ks) -> np.ndarray:
    """Fourier modes int_0^1 Q(xT) exp(-2 pi i k x) dx in the frame, k in ks.

    Only the scalar phases exp(-i phi dw) are transformed: smooth
    schedules by one FFT of the phase grid (uniform trapezoid rule,
    spectrally accurate for periodic integrands), kick schedules exactly
    segment by segment, the phase being constant between kicks. The
    smooth grid has at least 4096 points and more than 2 max|k|, so no
    requested mode aliases onto another.
    """
    ks = np.asarray(ks, dtype=int)
    if schedule.kind == "bangbang":
        w = 2j * np.pi * np.where(ks == 0, 1, ks)
        coeffs = 0
        for x0, x1, phi in schedule.segments():
            # int_{x0}^{x1} exp(-2 pi i k x) dx
            weights = np.where(ks == 0, x1 - x0,
                               (np.exp(-w * x0) - np.exp(-w * x1)) / w)
            coeffs = coeffs + weights[:, None] * np.exp(-1j * phi * frame.ds)
    else:
        samples = max(_GRID, 1 << int(2 * np.abs(ks).max()).bit_length())
        phis = schedule.phase(np.linspace(0.0, schedule.period, samples,
                                          endpoint=False))
        spectra = np.fft.fft(np.exp(-1j * phis[:, None] * frame.ds), axis=0) / samples
        coeffs = spectra[ks % samples]
    return frame.scaled(coeffs)


def _bohr_modes(model: SystemModel, schedule: ControlSchedule, ks) -> dict:
    """(k, w) -> Fourier mode k of the rotated Bohr component Q_w.

    H_dir commutes with H_s, so the rotation keeps each Q_w in its own
    block; the mode (k, w) sits at the comb frequency k/T + w.
    """
    frame = _CouplingFrame(model, schedule.h_dir)
    ks = np.asarray(ks, dtype=int)
    return frame.bohr(ks, _modes(frame, schedule, ks))


def _windows(frame: _CouplingFrame, schedule: ControlSchedule) -> np.ndarray:
    """int_{t0}^{t0+T} Q(s) ds / T in the frame at t0 = jT/16, j < 16.

    Kick schedules: exact sums over the pieces between kicks. Smooth ones:
    with a = phi(T) dw, exp(-i phi(s) dw) = exp(-i a s/T) sum_k c_k
    exp(2 pi i k s/T), c_k the FFT of the periodic rest on the phase grid,
    so each window is a sum of c_k times a closed-form integral, and the
    16 offsets fold into one 16-point inverse FFT; a = 0 gives c_0.
    """
    T, n = schedule.period, _DD_WINDOWS
    if schedule.kind == "bangbang":
        kicks = np.r_[schedule.kick_phases, schedule.kick_phases + 1] * T
        coeffs = []
        for t0 in np.arange(n) * T / n:
            xs = np.r_[t0, kicks[(t0 < kicks) & (kicks < t0 + T)], t0 + T]
            phis = schedule.phase(0.5 * (xs[:-1] + xs[1:]))
            coeffs.append(np.diff(xs) @ np.exp(-1j * np.outer(phis, frame.ds)) / T)
        return frame.scaled(np.array(coeffs))
    x = np.arange(_GRID) / _GRID
    slip = float(schedule.phase(T)) * frame.ds
    c = np.fft.fft(np.exp(-1j * (np.outer(schedule.phase(x * T), frame.ds)
                                 - np.outer(x, slip))), axis=0) / _GRID
    # z = a - 2 pi k: int_{t0}^{t0+T} exp(-i z s/T) ds / T
    #   = exp(-i z t0/T) exp(-i z/2) sinc(z / 2 pi)
    z = slip - 2 * np.pi * np.fft.fftfreq(_GRID, 1.0 / _GRID)[:, None]
    folded = (c * np.exp(-0.5j * z) * np.sinc(z / (2 * np.pi))).reshape(
        _GRID // n, n, -1).sum(axis=0)
    return frame.scaled(np.exp(-1j * np.outer(np.arange(n) / n, slip))
                       * np.fft.ifft(folded, axis=0) * n)


@dataclass(frozen=True)
class DDReport:
    """Decoupling check: running-integral residual and the equivalent pair,
    from one phase grid; the residual is the zero-mode norm if phi(T) dw = 0."""

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
             tol: float = DD_TOL) -> DDReport:
    """Verify the decoupling condition int_t^{t+T} Q(s) ds = 0.

    The residual is the max over the window offsets t = jT/16 of
    ||int_t^{t+T} Q(s) ds|| / T. In the joint eigenbasis each entry of the
    window integral is a constant times a scalar phase integral, in closed
    form from the phase grid's FFT for smooth schedules and an exact sum
    over the pieces between kicks otherwise (``_windows``). The equivalent
    two-condition form (Q periodic, zero Fourier mode vanishing) comes from
    the same grid; the residual equals the zero-mode norm if phi(T) dw = 0.
    """
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    frame = _CouplingFrame(model, schedule.h_dir)
    residual = np.linalg.norm(_windows(frame, schedule), 2, axis=(1, 2)).max()
    defect = operator_norm(frame.rotated(float(schedule.phase(schedule.period)))
                           - frame.q)
    zero_mode = _modes(frame, schedule, [0])[0]
    return DDReport(residual=float(residual), periodicity_defect=float(defect),
                    zero_mode_norm=operator_norm(zero_mode), tolerance=tol)


def tune_amplitude(model: SystemModel, schedule: ControlSchedule,
                   bracket) -> float:
    """Find the amplitude ``mu`` of a smooth schedule at which the zero
    Fourier mode of Q vanishes.

    The signed surrogate is the real part of the zero mode's dominant
    coupling entry, normalized to 1 at zero amplitude; a Brent root of
    the surrogate inside ``bracket`` is returned. The phase is linear in
    the amplitude, phi = mu P with P the phase at ``mu = 1``, so the frame
    and the grid of P are built once; the surrogate is Re sum_s r_s mean_x
    exp(-i mu P(x) ds_s), r_s the frame entries with H_dir level
    difference ds_s rotated back to entry (i, j) and divided by Q_ij.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise ArgumentError("bracket must be an increasing interval")
    if schedule.kind != "smooth":
        raise ArgumentError("tune_amplitude needs a smooth schedule")
    # reference entry: the largest off-diagonal coupling element
    q = model.q
    off = np.abs(q - np.diag(np.diag(q)))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    if off[i, j] == 0:
        raise ArgumentError("coupling operator has no off-diagonal part to tune")

    frame = _CouplingFrame(model, schedule.h_dir)
    r = frame.back(frame.scaled(np.eye(len(frame.ds))))[:, i, j] / q[i, j]
    nonzero = r != 0
    r, ds = r[nonzero], frame.ds[nonzero]
    unit = replace(schedule, mu=1.0).phase(
        np.linspace(0.0, schedule.period, _GRID, endpoint=False))

    def surrogate(mu):
        theta = (mu * unit)[:, None] * ds
        # Re(r_s exp(-i theta)) = Re(r_s) cos(theta) + Im(r_s) sin(theta)
        return float(np.cos(theta).sum(axis=0) @ r.real
                     + np.sin(theta).sum(axis=0) @ r.imag) / _GRID

    mus = np.linspace(lo, hi, _TUNE_SCAN)
    vals = [surrogate(m) for m in mus]
    scan = list(zip(mus.tolist(), vals))
    for (m0, v0), (m1, v1) in zip(scan[:-1], scan[1:]):
        if v0 == 0.0:
            return m0
        if v0 * v1 < 0:
            mu_star = scipy.optimize.brentq(surrogate, m0, m1, xtol=1e-12, rtol=1e-15)
            if abs(surrogate(mu_star)) >= _TUNE_TOL:
                raise TuneSearchError(
                    f"root at {mu_star} does not reduce the surrogate below {_TUNE_TOL}",
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
    a kick table stops at |k| = 64. The mode powers are read in the frame
    (the Frobenius norm does not depend on the basis), and only the kept
    modes are rotated back, to the table and its Bohr split alike. The
    Parseval check compares the mode power with ||Q||_F^2, the time
    average of ||Q(t)||_F^2 (V_c is unitary); for kicks, whose modes decay
    like 1/k, the tail bound is that Parseval remainder.
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
    frame = _CouplingFrame(model, schedule.h_dir)
    coeffs = _modes(frame, schedule, ks)
    # ||Q_k||_F^2 from the frame basis (a unitary change of basis); ring c
    # is ||Q_c||_F^2 + ||Q_-c||_F^2, c = 1..k_max
    power_k = np.sum(np.abs(coeffs) ** 2, axis=(1, 2))
    rings = power_k[k_max + 1:] + power_k[k_max - 1::-1]
    cutoff = k_max
    if K is None:
        quiet = np.flatnonzero(rings[:-2] + rings[1:-1] + rings[2:] < 1e-12)
        if len(quiet):
            cutoff = int(quiet[0]) + 3
    kept = slice(k_max - cutoff, k_max + cutoff + 1)

    power = float(np.sum(np.abs(model.q) ** 2))
    mode_power = float(power_k[kept].sum())
    tail_bound = (max(0.0, power - mode_power) if schedule.kind == "bangbang"
                  else rings[max(0, cutoff - 3):cutoff].sum())
    ks, coeffs = ks[kept], coeffs[kept]
    return FourierTable(cutoff=cutoff,
                        modes=dict(zip(ks.tolist(), frame.back(coeffs))),
                        bohr=frame.bohr(ks, coeffs),
                        tail_bound=float(tail_bound),
                        parseval_defect=abs(mode_power - power))


def effective_dynamics(model: SystemModel, schedule: ControlSchedule,
                       rho0: np.ndarray, t) -> np.ndarray:
    """Reservoir-free reference state e^{-itH_s} V_c(t)* rho0 V_c(t) e^{itH_s}
    at each time of ``t``: one state for a scalar, a stack for an array.

    In the joint eigenbasis of H_s and H_dir (``_CouplingFrame``) the
    propagator e^{-itH_s} V_c(t)* is the diagonal phase
    exp(-i (t e_s + phi(t) e_dir)), so no matrix is exponentiated.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    _validate_state(rho0)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ArgumentError("t must be nonnegative")
    frame = _CouplingFrame(model, schedule.h_dir)
    u = np.exp(-1j * (t[..., None] * frame.es
                      + np.asarray(schedule.phase(t))[..., None] * frame.edir))
    rho = frame.basis.conj().T @ rho0 @ frame.basis
    return frame.back(u[..., :, None] * rho * u[..., None, :].conj())


def _validate_state(rho, tol=1e-10):
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ArgumentError("state must be a square matrix")
    if operator_norm(rho - rho.conj().T) > tol:
        raise ArgumentError("state must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ArgumentError("state must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ArgumentError("state must be positive semidefinite")
