"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch (series expansions,
regularized integrals) rather than calling into the package, so that a
bug in the production code cannot hide in its own oracle.
"""

import functools
import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize


def bessel_j_series(n, x, terms=60):
    """J_n(x) by its ascending power series."""
    total = 0.0
    for k in range(terms):
        total += ((-1) ** k / (math.factorial(k) * math.factorial(n + k))
                  * (x / 2.0) ** (n + 2 * k))
    return total


def dawson_series(x, terms=80):
    """Dawson function F(x) = e^{-x^2} int_0^x e^{t^2} dt by series.

    F(x) = sum_k (-1)^k 2^k x^{2k+1} / (2k+1)!!
    """
    total = 0.0
    term = x
    for k in range(terms):
        total += term
        term *= -2.0 * x * x / (2 * k + 3)
    return total


def regularized_weights(G, x, eps_pair=(1e-2, 1e-3)):
    """Dissipative/shift weight pair from the eps-regularized resolvent.

    I(eps) = int G(p) / (x - p + i eps) dp tends to
    (standard PV) - i pi G(x); Richardson extrapolation removes the O(eps)
    error. Returns (pi G(x) estimate, shift estimate) in the package's
    sign convention, where the shift is int_0^inf (G(x+p) - G(x-p))/p dp.
    """
    p_max = getattr(G, "p_max", 50.0)
    lo, hi = x - p_max - 10.0, x + p_max + 10.0

    def one(eps):
        def re_part(p):
            d = x - p
            return float(G(p)) * d / (d * d + eps * eps)

        def im_part(p):
            d = x - p
            return -float(G(p)) * eps / (d * d + eps * eps)

        re, _ = scipy.integrate.quad(re_part, lo, hi, limit=500,
                                     points=[x], epsabs=1e-11)
        im, _ = scipy.integrate.quad(im_part, lo, hi, limit=500,
                                     points=[x], epsabs=1e-11)
        return complex(re, im)

    e1, e2 = eps_pair
    i1, i2 = one(e1), one(e2)
    # errors scale ~ eps^2 for the real part and ~ eps for the imaginary
    ratio = e1 / e2
    extrap = (ratio * i2 - i1) / (ratio - 1.0)
    diss = -extrap.imag            # pi G(x)
    shift = -extrap.real           # package PV convention flips the sign
    return diss, shift


def gaussian_p_weight(p, beta=1.0):
    """G(p) = 4 pi p^6 exp(-p^2) expit(beta p)^2 of f(p) = p exp(-p^2/2)."""
    return (4.0 * math.pi * p**6 * math.exp(-p * p)
            / (1.0 + math.exp(-beta * p)) ** 2)


def generator_by_terms(terms, lam):
    """Second-order generator summed term by term from kron products.

    Each (Q, G, PV) term adds -(i lam^2 / 2) [pi G (2 Q* B Q - {Q*Q, B})
    + i PV [B, Q*Q]] acting on row-major vec(B).
    """
    a2 = 0
    for q, g, pv in terms.values():
        q = np.asarray(q, dtype=complex)
        eye = np.eye(q.shape[0])
        qq = q.conj().T @ q
        sandwich = np.kron(q.conj().T, q.T)
        left, right = np.kron(qq, eye), np.kron(eye, qq.T)
        a2 = a2 - 0.5j * lam * lam * (math.pi * g * (2 * sandwich - left - right)
                                      + 1j * pv * (right - left))
    return a2


def linear_r2(xs, ys):
    """R^2 of a least-squares line through the origin."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    slope = float(xs @ ys) / float(xs @ xs)
    resid = ys - slope * xs
    ss_res = float(resid @ resid)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    return a


def _require_hermitian(h, rel_tol):
    scale = max(1.0, np.linalg.norm(h, 2))
    if np.linalg.norm(h - h.conj().T, 2) > rel_tol * scale:
        raise ValueError("H(t) must be Hermitian at each sample")


def _polar_unitary(u):
    """Closest unitary to u (polar factor)."""
    w, _, vh = np.linalg.svd(u)
    return w @ vh


def ordered_propagator(h, t0, t1, step):
    """Time-ordered propagator U with U' = -i H(t) U, U(t0) = 1.

    Fourth-order commutator-free Magnus integrator (Gauss nodes) with
    fixed step, scipy's ``expm`` per exponential and polar
    re-unitarization after each step. ``h`` maps a time to a Hermitian
    matrix.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if not step > 0:
        raise ValueError("step must be positive")
    h0 = _square(h(t0))
    _require_hermitian(h0, 1e-10)
    u = np.eye(h0.shape[0], dtype=complex)
    if t1 == t0:
        return u
    n = max(1, int(np.ceil((t1 - t0) / step)))
    dt = (t1 - t0) / n
    c1, c2 = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6
    a1, a2 = 0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6
    for i in range(n):
        t = t0 + i * dt
        h1 = _square(h(t + c1 * dt))
        h2 = _square(h(t + c2 * dt))
        for m in (h1, h2):
            _require_hermitian(m, 1e-9)
        u = (scipy.linalg.expm(-1j * dt * (a1 * h1 + a2 * h2))
             @ scipy.linalg.expm(-1j * dt * (a2 * h1 + a1 * h2)) @ u)
        u = _polar_unitary(u)
    return u


def partial_trace(rho, dims, keep):
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions; the kept factors stay in
    ascending index order.
    """
    rho = _square(rho)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ValueError("factor dimensions must be positive")
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(
            f"product of dims {dims} != matrix dimension {rho.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices out of range")
    resh = rho.reshape(dims + dims)
    # trace the discarded factors, highest axis first to keep indices valid
    for i in reversed([i for i in range(len(dims)) if i not in keep]):
        resh = np.trace(resh, axis1=i, axis2=i + resh.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return resh.reshape(d_keep, d_keep)


def commutator_superop(a):
    """B -> [A, B] as a d^2 x d^2 matrix on row-major vec(B)."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(a.shape[0])
    return np.kron(a, eye) - np.kron(eye, a.T)


@functools.lru_cache(maxsize=None)
def jordan_wigner_annihilators(n_modes):
    """Annihilation operators on the 2^N occupation space by kron chains.

    Basis per mode: index 0 empty, index 1 occupied; sign strings on the
    preceding factors enforce the anticommutation relations. The list is
    cached, so callers must not modify it.
    """
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    return [functools.reduce(np.kron,
                             [z] * j + [a] + [eye] * (n_modes - j - 1))
            for j in range(n_modes)]


def field_operator(modes):
    """Phi = sum_j f_j (a_j + a_j^*) / sqrt 2 from the kron-chain operators."""
    ops = jordan_wigner_annihilators(modes.n_modes)
    return sum(f / math.sqrt(2.0) * (aj + aj.conj().T)
               for f, aj in zip(modes.couplings, ops))


def total_hamiltonian(tm, t):
    """Dense H(t) = H_s x 1 + sum_j w_j 1 x a_j^* a_j + lam Q x Phi, plus
    H_c(t) x 1 = (mu / T) kappa(t / T) H_dir x 1 for a smooth schedule,
    from the kron-chain operators."""
    ops = jordan_wigner_annihilators(tm.modes.n_modes)
    nr = 2**tm.modes.n_modes
    h_s = np.asarray(tm.system.h_s, dtype=complex)
    sched = tm.schedule
    if sched is not None and sched.kind == "smooth":
        h_s = h_s + (sched.mu / sched.period) * float(
            sched.kappa(t / sched.period)) * sched.h_dir
    h_r = sum(w * aj.conj().T @ aj
              for w, aj in zip(tm.modes.frequencies, ops))
    return (np.kron(h_s, np.eye(nr))
            + np.kron(np.eye(h_s.shape[0]), h_r)
            + tm.lam * np.kron(tm.system.q, field_operator(tm.modes)))


def thermal_reservoir_state(modes):
    """Product Gibbs state, diag(1 - n_j, n_j) per mode."""
    rho = np.array([[1.0]])
    for n in modes.occupations:
        rho = np.kron(rho, np.diag([1.0 - n, n]))
    return rho


def bohr_component(h_s, q, w, tol=1e-10):
    """Q_w = sum of v_i v_i* Q v_j v_j* over eigenpairs with e_j - e_i = w."""
    e, v = np.linalg.eigh(np.asarray(h_s, dtype=complex))
    q = np.asarray(q, dtype=complex)
    out = np.zeros_like(q)
    for i in range(len(e)):
        for j in range(len(e)):
            if abs(e[j] - e[i] - w) <= tol:
                out += np.outer(v[:, i], v[:, i].conj()) @ q @ np.outer(
                    v[:, j], v[:, j].conj())
    return out


def qka_bangbang_closed_form(model, schedule, k, w):
    """Closed-form Bohr-Fourier mode Q_{k,w} of a kick schedule, k != 0.

    Q_{k,w} = -(i / 2 pi k) * sum_l exp(-2 pi i alpha_l k) dQ_l, with dQ_l
    the jump of V* Q_w V, V = expm(i phi H_dir), across kick l at phase
    alpha_l, where phi steps by the kick weight c_l.
    """
    if k == 0:
        raise ValueError("the closed form holds for k != 0")
    qw = bohr_component(model.h_s, model.q, w)
    h_dir = np.asarray(schedule.h_dir, dtype=complex)

    def rotated(phi):
        u = scipy.linalg.expm(1j * phi * h_dir)
        return u.conj().T @ qw @ u

    phis = np.concatenate(([0.0], np.cumsum(schedule.kick_weights)))
    total = np.zeros_like(qw)
    for alpha, before, after in zip(schedule.kick_phases, phis[:-1], phis[1:]):
        total += np.exp(-2j * np.pi * alpha * k) * (rotated(after)
                                                    - rotated(before))
    return -1j / (2 * np.pi * k) * total


def rotated_coupling(q, h_dir, phi):
    """V_c* Q V_c at control phase phi, V_c = expm(i phi H_dir)."""
    v = scipy.linalg.expm(1j * phi * np.asarray(h_dir, dtype=complex))
    return v.conj().T @ np.asarray(q, dtype=complex) @ v


def reference_state(h_s, h_dir, rho0, t, phi):
    """e^{-itH_s} V_c* rho0 V_c e^{itH_s} at time t and control phase phi,
    V_c = expm(i phi H_dir), from two matrix exponentials."""
    u = (scipy.linalg.expm(-1j * t * np.asarray(h_s, dtype=complex))
         @ scipy.linalg.expm(-1j * phi * np.asarray(h_dir, dtype=complex)))
    return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def zero_mode_surrogate(q, h_dir, kappa_integral, mu, points=256):
    """Re(M[i, j] / Q[i, j]) for M = mean_x expm(-i phi H_dir) Q expm(i phi H_dir),
    phi(x) = mu (K(x) - K(0)) on a uniform grid of one period (K the
    profile's antiderivative) and (i, j) the first largest off-diagonal
    entry of Q; the matrix exponentials are taken directly, one per point."""
    q = np.asarray(q, dtype=complex)
    off = np.abs(q - np.diag(np.diag(q)))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    x = np.arange(points) / points
    phi = mu * (np.asarray(kappa_integral(x), float) - float(kappa_integral(0.0)))
    u = scipy.linalg.expm(-1j * phi[:, None, None] * np.asarray(h_dir, complex))
    mean = (u @ q @ u.conj().transpose(0, 2, 1)).mean(axis=0)
    return float((mean[i, j] / q[i, j]).real)


def tuned_amplitude(q, h_dir, kappa_integral, lo, hi):
    """Root of ``zero_mode_surrogate`` in [lo, hi] (a sign change) by Brent's
    method at the tightest tolerances scipy accepts."""
    return scipy.optimize.brentq(
        lambda mu: zero_mode_surrogate(q, h_dir, kappa_integral, mu), lo, hi,
        xtol=1e-15, rtol=4 * np.finfo(float).eps)
