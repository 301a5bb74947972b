"""Independent reference values for the benchmark's correctness checks.

Nothing here imports decoshield. Every reference comes from a closed form
or from a free-fermion (Majorana) propagator built from the config alone:

* tuned sinusoidal amplitude: mu* = pi * j_{0,1} (first zero of J_0);
* sinusoidal ladder norms: |J_k(mu / pi)| (Jacobi-Anger expansion);
* two-kick ladder norms (weights +-pi/2, kicks half a period apart):
  2 / (pi |k|) for odd k, 0 for even k (Fourier series of a square wave);
* rate: xi = sum_{k != 0, a = +-1} norm_k^2 G(k/T + 2a)^2, summed until
  G vanishes, with G written out for the gaussian-p form factor;
* reduced qubit state: the model is quadratic in the Majoranas
  c0 = sx, c1 = sy, sz*gamma_j, sz*gamma'_j, so c(t) = M(t) c(0) with
  M' = A(t) M, and <sx>, <sy>, <sz> follow from M and the thermal
  covariance without the 2^N space.

The formulas hold for the configs this benchmark generates: H_s = sz,
Q = sx, H_dir = sz, gaussian-p form factor with default scale, initial
state |+><+|.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special

#: first zero of J_0 times pi: the amplitude that nulls the zero mode
MU_STAR = math.pi * float(scipy.special.jn_zeros(0, 1)[0])

#: |G(p)| is below 1e-300 beyond this frequency for every beta used here
_G_SUPPORT = 30.0


def spectral_weight(p, beta: float):
    """G(p) = 4 pi p^6 exp(-p^2) expit(beta p)^2 for f(p) = p exp(-p^2/2)."""
    p = np.asarray(p, dtype=float)
    return 4.0 * math.pi * p**6 * np.exp(-p * p) * scipy.special.expit(beta * p) ** 2


def ladder_norm(schedule: dict, k: int) -> float:
    """Norm of the ladder Fourier mode Q_{k,a} (the same for a = +-1)."""
    if schedule["kind"] == "sinusoidal":
        return abs(float(scipy.special.jv(k, schedule["mu"] / math.pi)))
    return 2.0 / (math.pi * abs(k)) if k % 2 else 0.0


def xi_reference(schedule: dict, beta: float) -> float:
    """The full closed-form rate sum; no truncation inside G's support."""
    T = schedule["period"]
    k_max = int(math.ceil((_G_SUPPORT + 2.0) * T)) + 1
    total = 0.0
    for k in range(-k_max, k_max + 1):
        if k == 0:
            continue
        n = ladder_norm(schedule, k)
        if n == 0.0:
            continue
        for a in (-1, 1):
            total += n * n * float(spectral_weight(k / T + 2.0 * a, beta)) ** 2
    return total


def _modes(reservoir: dict):
    """Midpoint mode grid: frequencies, couplings and occupations."""
    n, p_max, beta = reservoir["n_modes"], reservoir["p_max"], reservoir["beta"]
    delta = p_max / n
    w = (np.arange(1, n + 1) - 0.5) * delta
    f = w * np.exp(-0.5 * w * w)
    couplings = math.sqrt(delta * 4.0 * math.pi) * w * np.abs(f)
    return w, couplings, scipy.special.expit(-beta * w)


def _generator(w, f, lam):
    """Constant part of A: system gap 2, mode energies, coupling to c1."""
    m = 2 + 2 * len(w)
    a = np.zeros((m, m))
    a[0, 1], a[1, 0] = -2.0, 2.0
    for j, (wj, fj) in enumerate(zip(w, f)):
        g, gp = 2 + 2 * j, 3 + 2 * j
        a[g, gp], a[gp, g] = wj, -wj
        a[1, g], a[g, 1] = -math.sqrt(2.0) * lam * fj, math.sqrt(2.0) * lam * fj
    return a


def _rotation01(angle: float, m: int):
    r = np.eye(m)
    c, s = math.cos(angle), math.sin(angle)
    r[0, 0], r[0, 1], r[1, 0], r[1, 1] = c, -s, s, c
    return r


def _monodromy(a, schedule: dict):
    """M(T) for one drive period."""
    m = a.shape[0]
    T = schedule["period"]
    if schedule["kind"] == "sinusoidal":
        mu = schedule["mu"]

        def rhs(t, y):
            b = a.copy()
            h = (mu / T) * math.cos(2.0 * math.pi * t / T)
            b[0, 1] -= 2.0 * h
            b[1, 0] += 2.0 * h
            return (b @ y.reshape(m, m)).ravel()

        sol = scipy.integrate.solve_ivp(rhs, (0.0, T), np.eye(m).ravel(),
                                        method="DOP853", rtol=1e-13, atol=1e-15)
        return sol.y[:, -1].reshape(m, m)
    # a kick of weight c turns (c0, c1) by 2c; free evolution in between
    u = np.eye(m)
    t = 0.0
    for x, c in zip(schedule["phases"], schedule["weights"]):
        u = _rotation01(2.0 * c, m) @ scipy.linalg.expm(a * (x * T - t)) @ u
        t = x * T
    return scipy.linalg.expm(a * (T - t)) @ u


def reduced_states(cfg: dict, driven: bool, times) -> np.ndarray:
    """Rows (pop_0, Re rho_01, Im rho_01) of the reduced qubit state.

    ``driven`` selects the config's schedule or no control at all. Sample
    times of a driven run must be whole periods.
    """
    w, f, occ = _modes(cfg["reservoir"])
    a = _generator(w, f, cfg["coupling"])
    m = a.shape[0]
    omega = np.zeros((m, m))          # <c_k c_l> = delta_kl + i omega_kl
    for j, n in enumerate(occ):
        omega[2 + 2 * j, 3 + 2 * j] = 1.0 - 2.0 * n
        omega[3 + 2 * j, 2 + 2 * j] = -(1.0 - 2.0 * n)
    times = np.asarray(times, dtype=float)
    if driven:
        T = cfg["schedule"]["period"]
        periods = np.rint(times / T).astype(int)
        if np.max(np.abs(periods * T - times)) > 1e-9:
            raise ValueError("driven reference needs whole-period sample times")
        mono = _monodromy(a, cfg["schedule"])
        props, cur, done = [], np.eye(m), 0
        for n in periods:
            cur = np.linalg.matrix_power(mono, n - done) @ cur
            done = n
            props.append(cur)
    else:
        props = [scipy.linalg.expm(a * t) for t in times]
    # initial |+>: <sx> = 1, <sy> = <sz> = 0, so c(t) enters through column 0
    rows = []
    for mt in props:
        sx, sy = mt[0, 0], mt[1, 0]
        sz = (mt @ omega @ mt.T)[0, 1]
        rows.append((0.5 * (1.0 + sz), 0.5 * sx, -0.5 * sy))
    return np.array(rows)
