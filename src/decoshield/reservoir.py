"""Thermal fermionic reservoir: form factors, spectral weight, mode grids.

A radial form factor f(p) is glued into a single function g on the whole
real line that carries thermal emission/absorption on its two branches.
The induced nonnegative spectral weight G(p) controls golden-rule rates;
its principal-value integrals feed the Hamiltonian (Lamb-shift-like)
corrections. A finite star of fermionic modes discretizes the reservoir
for the exact simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.special

from .errors import ArgumentError, NumericError

__all__ = [
    "FormFactor",
    "SpectralFunction",
    "ModeSet",
    "form_factor_registry",
    "make_form_factor",
    "glue_form_factor",
    "spectral_function",
    "pv_integral",
    "discretize_modes",
]

# full solid-angle weight of the isotropic angular integral
SPHERE_WEIGHT = 4.0 * math.pi
# spectral_function: G above _SUPPORT_TOL is in the support, scanned to _P_SCAN_MAX
_SUPPORT_TOL, _P_SCAN_MAX = 1e-16, 200.0


@dataclass(frozen=True)
class FormFactor:
    """Radial coupling profile with inverse temperature."""

    f: Callable[[float], float] = field(repr=False)
    beta: float = 1.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ArgumentError("beta must be positive")


def _gaussian_p(scale=1.0):
    return lambda p: scale * p * np.exp(-0.5 * p * p)


def _gaussian(scale=1.0):
    return lambda p: scale * np.exp(-0.5 * p * p)


def _ohmic_exp(scale=1.0):
    return lambda p: scale * p * np.exp(-p)


#: selectable form factor families, keyed by config name
form_factor_registry = {
    "gaussian-p": _gaussian_p,
    "gaussian": _gaussian,
    "ohmic-exp": _ohmic_exp,
}


def make_form_factor(name: str, beta: float, **params) -> FormFactor:
    if name not in form_factor_registry:
        raise ArgumentError(
            f"unknown form factor {name!r}; choose from {sorted(form_factor_registry)}")
    return FormFactor(f=form_factor_registry[name](**params), beta=beta)


def glue_form_factor(ff: FormFactor, p):
    """Glued profile g(p): thermal weight times f on the positive branch,
    conj(f(-p)) on the negative branch; a scalar p gives a complex."""
    # [()] turns a 0-d input into a numpy scalar, whose arithmetic is cheap
    p = np.asarray(p, dtype=float)[()]
    a = abs(p)
    fv = ff.f(a)
    if np.iscomplexobj(fv):
        fv = np.where(p < 0, np.conj(fv), fv)
    # 1/sqrt(1 + e^{-beta p}) written overflow-safe as sqrt(expit(beta p))
    g = a * np.sqrt(scipy.special.expit(ff.beta * p)) * fv
    return complex(g) if np.ndim(g) == 0 else g.astype(complex)


@dataclass(frozen=True)
class SpectralFunction:
    """Nonnegative spectral weight G(p) with an effective support cutoff."""

    ff: FormFactor
    p_max: float

    def __call__(self, p):
        p = np.asarray(p, dtype=float)[()]
        a = abs(p)
        # |g| of glue_form_factor, taken on real arrays
        g = np.abs(a * np.sqrt(scipy.special.expit(self.ff.beta * p))
                   * self.ff.f(a))
        out = SPHERE_WEIGHT * p * p * g * g * scipy.special.expit(self.ff.beta * p)
        return float(out) if np.ndim(out) == 0 else out


def spectral_function(ff: FormFactor) -> SpectralFunction:
    """Build G from the glued form factor and locate its support cutoff."""
    sf = SpectralFunction(ff=ff, p_max=_P_SCAN_MAX)
    ps = np.linspace(0.0, _P_SCAN_MAX, 4001)
    above = np.nonzero(sf(ps) > _SUPPORT_TOL)[0]
    p_max = float(ps[above[-1]] + ps[1]) if above.size else 1.0
    return SpectralFunction(ff=ff, p_max=p_max)


# composite Gauss-Legendre rule of pv_integral: nodes per panel, starting
# panel width, panel doublings past the first comparison, G arguments per call
_PV_NODES = 16
_PV_PANEL = 4.0
_PV_DOUBLINGS = 6
_PV_POINTS = 1 << 12


def _pv_sums(G, x, p_max, counts, t, w):
    """Composite Gauss-Legendre sums of (G(x + p) - G(x - p)) / p over the
    intervals [0, |x|], [|x|, upper] and [upper, 10 upper], upper = |x| +
    p_max + 10, one row per entry of ``counts`` (its equal panels on
    interval i mod 3), one column per x; G is called once, on an array."""
    ax = np.abs(x)
    upper = ax + p_max + 10.0
    edges = np.stack([np.zeros_like(ax), ax, upper, 10.0 * upper])
    interval = np.repeat(np.arange(len(counts)) % 3, counts)
    panel = np.concatenate([np.arange(c) for c in counts])
    width = ((edges[interval + 1] - edges[interval])
             / np.repeat(counts, counts)[:, None])
    p = (edges[interval][..., None]
         + width[..., None] * (panel[:, None, None] + t))
    # off p = 0, where the integrand has the limit 2 G'(x); at x = 0 the
    # first interval has width 0 and its nodes sit there
    p = np.maximum(p, 1e-9)
    g = G(np.stack([x[:, None] + p, x[:, None] - p]))
    sums = ((g[0] - g[1]) / p @ w) * width
    return np.add.reduceat(sums, np.cumsum(counts) - counts, axis=0)


def pv_integral(G, x, epsabs: float = 1e-9):
    """Principal value of p -> G(p) / (p - x) at the singularity p = x, for
    a scalar x (a float) or every entry of an array x (an array of its
    shape). G must map an array of arguments to an array of values.

    Evaluated as the singularity-free half-line integral of
    (G(x + p) - G(x - p)) / p, which extends continuously to 2 G'(x) at
    p = 0, over [0, |x| + p_max + 10] with a break at p = |x| (where
    G(x - p) or G(x + p) passes p = 0) and a tail up to ten times that.
    Each piece is a composite Gauss-Legendre rule of 16 nodes per panel,
    vectorized over x, panel and node. The error estimate is the change
    from panels about 4 wide to panels half as wide; while it exceeds
    ``epsabs`` those x take panels half as wide again, at most 6 times.
    Raises NumericError on a non-finite value, an estimate still above
    ``epsabs`` past that cap, or a tail above 100 epsabs.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    p_max = getattr(G, "p_max", 50.0)
    t, w = np.polynomial.legendre.leggauss(_PV_NODES)
    t, w = 0.5 * (t + 1.0), 0.5 * w              # on [0, 1]
    counts = np.array([math.ceil(p_max / _PV_PANEL),
                       math.ceil((p_max + 10.0) / _PV_PANEL), 1])
    # the first pass takes the coarse and the fine rule, each later one a
    # rule twice as fine as the last, for the x not converged yet
    rules = [np.concatenate([counts, 2 * counts])]
    rules += [counts * 2 ** k for k in range(2, _PV_DOUBLINGS + 2)]
    value = np.zeros((3, flat.size))
    error = np.zeros((3, flat.size))
    todo = np.arange(flat.size)
    for rule in rules:
        if not todo.size:
            break
        size = max(1, _PV_POINTS // (2 * _PV_NODES * int(rule.sum())))
        sums = np.concatenate(
            [_pv_sums(G, flat[todo[i:i + size]], p_max, rule, t, w)
             for i in range(0, todo.size, size)], axis=1)
        coarse = sums[:3] if len(rule) == 6 else value[:, todo]
        error[:, todo] = np.abs(sums[-3:] - coarse)
        value[:, todo] = sums[-3:]
        # a NaN estimate leaves too; the finiteness check below takes it
        todo = todo[error[:, todo].sum(axis=0) > epsabs]
    val, tail = value[0] + value[1], value[2]
    total = val + tail
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        i = bad[0]
        raise NumericError("principal-value quadrature did not converge",
                           diagnostics={"x": float(flat[i]),
                                        "val": float(val[i]),
                                        "tail": float(tail[i])})
    if todo.size:
        i = todo[0]
        raise NumericError(
            "principal-value error estimate above epsabs after refinement",
            diagnostics={"x": float(flat[i]),
                         "estimate": float(error[:, i].sum()),
                         "tail": float(tail[i])})
    big = np.flatnonzero(np.abs(tail) > 100 * epsabs)
    if big.size:
        i = big[0]
        raise NumericError("principal-value tail estimate not convergent",
                           diagnostics={"x": float(flat[i]),
                                        "tail": float(tail[i]),
                                        "tail_err": float(error[2, i])})
    return float(total[0]) if x.ndim == 0 else total.reshape(x.shape)


@dataclass(frozen=True)
class ModeSet:
    """Finite star discretization: frequencies, couplings, occupations."""

    frequencies: np.ndarray
    couplings: np.ndarray
    occupations: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)


def discretize_modes(ff: FormFactor, N: int, p_max: float) -> ModeSet:
    """Midpoint grid on (0, p_max] with vacuum spectral weights.

    |f_j|^2 = Delta * 4 pi w_j^2 f(w_j)^2; thermal effects enter through
    the Fermi-Dirac occupations, not the couplings.
    """
    if N < 1:
        raise ArgumentError("mode count must be >= 1")
    if not p_max > 0:
        raise ArgumentError("p_max must be positive")
    delta = p_max / N
    omegas = (np.arange(1, N + 1) - 0.5) * delta
    couplings = np.sqrt(delta * SPHERE_WEIGHT * omegas**2 * ff.f(omegas)**2)
    occupations = scipy.special.expit(-ff.beta * omegas)
    return ModeSet(frequencies=omegas, couplings=couplings,
                   occupations=occupations)
