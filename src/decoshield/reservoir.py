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
import scipy.integrate
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
        g = abs(glue_form_factor(self.ff, p))
        out = SPHERE_WEIGHT * p * p * g * g * scipy.special.expit(self.ff.beta * p)
        return float(out) if np.ndim(out) == 0 else out


def spectral_function(ff: FormFactor, support_tol: float = 1e-16,
                      p_scan_max: float = 200.0) -> SpectralFunction:
    """Build G from the glued form factor and locate its support cutoff."""
    sf = SpectralFunction(ff=ff, p_max=p_scan_max)
    ps = np.linspace(0.0, p_scan_max, 4001)
    above = np.nonzero(sf(ps) > support_tol)[0]
    p_max = float(ps[above[-1]] + ps[1]) if above.size else 1.0
    return SpectralFunction(ff=ff, p_max=p_max)


def pv_integral(G, x: float, epsabs: float = 1e-9) -> float:
    """Principal value of p -> G(p) / (p - x) at the singularity p = x.

    Evaluated as the singularity-free half-line integral of
    (G(x + p) - G(x - p)) / p; the integrand extends continuously to
    2 G'(x) at p = 0.
    """
    x = float(x)
    p_max = getattr(G, "p_max", 50.0)
    upper = abs(x) + p_max + 10.0

    def integrand(p):
        if p < 1e-9:
            p = 1e-9  # continuous limit 2 G'(x); evaluate just off zero
        return (float(G(x + p)) - float(G(x - p))) / p

    val, err = scipy.integrate.quad(integrand, 0.0, upper, epsabs=epsabs * 0.1,
                                    limit=400, points=[abs(x)] if abs(x) < upper else None)
    # tail beyond the window must be negligible
    tail, tail_err = scipy.integrate.quad(integrand, upper, upper * 10,
                                          epsabs=epsabs, limit=100)
    if not (np.isfinite(val) and np.isfinite(tail)):
        raise NumericError("principal-value quadrature did not converge",
                           diagnostics={"x": x, "val": val, "tail": tail})
    if abs(tail) > 100 * epsabs:
        raise NumericError("principal-value tail estimate not convergent",
                           diagnostics={"x": x, "tail": tail, "tail_err": tail_err})
    return float(val + tail)


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
