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

from .control import operator_norm
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
    "validate_a2",
    "A2Report",
]

# full solid-angle weight of the isotropic angular integral
SPHERE_WEIGHT = 4.0 * math.pi


@dataclass(frozen=True)
class FormFactor:
    """Radial coupling profile with inverse temperature and strip proxy."""

    f: Callable[[float], float] = field(repr=False)
    beta: float = 1.0
    r_max: float = 10.0
    name: str = "custom"

    def __post_init__(self):
        if not self.beta > 0:
            raise ArgumentError("beta must be positive")
        if not self.r_max > 0:
            raise ArgumentError("r_max must be positive")


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


def make_form_factor(name: str, beta: float, r_max: float = 10.0,
                     **params) -> FormFactor:
    if name not in form_factor_registry:
        raise ArgumentError(
            f"unknown form factor {name!r}; choose from {sorted(form_factor_registry)}")
    return FormFactor(f=form_factor_registry[name](**params), beta=beta,
                      r_max=r_max, name=name)


def glue_form_factor(ff: FormFactor, p) -> complex:
    """Glued profile g(p): thermal weight times f on the positive branch,
    conj(f(-p)) on the negative branch."""
    p = float(p)
    # 1/sqrt(1 + e^{-beta p}) written overflow-safe as sqrt(expit(beta p))
    weight = abs(p) * math.sqrt(scipy.special.expit(ff.beta * p))
    if p >= 0:
        return complex(weight * ff.f(p))
    return complex(weight * np.conj(ff.f(-p)))


@dataclass(frozen=True)
class SpectralFunction:
    """Nonnegative spectral weight G(p) with an effective support cutoff."""

    ff: FormFactor
    p_max: float

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        g = np.array([abs(glue_form_factor(self.ff, x)) for x in p])
        out = SPHERE_WEIGHT * p * p * g * g * scipy.special.expit(self.ff.beta * p)
        out = np.maximum(out, 0.0)
        return float(out[0]) if scalar else out


def spectral_function(ff: FormFactor, support_tol: float = 1e-16,
                      p_scan_max: float = 200.0) -> SpectralFunction:
    """Build G from the glued form factor and locate its support cutoff."""
    sf = SpectralFunction(ff=ff, p_max=p_scan_max)
    ps = np.linspace(0.0, p_scan_max, 4001)
    vals = sf(ps)
    above = np.nonzero(vals > support_tol)[0]
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
    beta: float

    @property
    def n_modes(self) -> int:
        return len(self.frequencies)


def discretize_modes(G, ff: FormFactor, N: int, p_max: float) -> ModeSet:
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
    fvals = np.array([float(ff.f(w)) for w in omegas])
    couplings = np.sqrt(delta * SPHERE_WEIGHT * omegas**2 * fvals**2)
    occupations = scipy.special.expit(-ff.beta * omegas)
    return ModeSet(frequencies=omegas, couplings=couplings,
                   occupations=occupations, beta=ff.beta)


@dataclass(frozen=True)
class A2Report:
    """Numeric proxies for the analyticity assumption on the form factor."""

    strip_ok: bool
    strip_margin: float
    evenness_ok: bool
    evenness_defect: float
    moment_ok: bool
    moment_value: float

    @property
    def passed(self) -> bool:
        return self.strip_ok and self.evenness_ok and self.moment_ok


def validate_a2(ff: FormFactor, model, evenness_tol: float = 1e-8) -> A2Report:
    """Check the validation proxies for the form-factor assumption.

    * strip: r_max must exceed 8 ||H_s||,
    * evenness: p * f(p) must extend evenly through p = 0 (vanishing
      one-sided derivative, Richardson-extrapolated finite differences),
    * moment: int (1 + p^2) |g(p)|^2 dp must be finite.
    """
    h_norm = operator_norm(model.h_s)
    strip_margin = ff.r_max - 8.0 * h_norm
    strip_ok = strip_margin > 0

    def h(p):
        return p * float(ff.f(p))

    # one-sided derivative of p f(p) at 0+ via Richardson on step halving
    eps = 1e-4
    d1 = (h(2 * eps) - h(0.0)) / (2 * eps)
    d2 = (h(eps) - h(0.0)) / eps
    deriv = 2 * d2 - d1
    evenness_defect = abs(deriv)
    evenness_ok = evenness_defect < evenness_tol

    def moment_integrand(p):
        g = abs(glue_form_factor(ff, p))
        return (1.0 + p * p) * g * g

    val_pos, _ = scipy.integrate.quad(moment_integrand, 0.0, np.inf, limit=300)
    val_neg, _ = scipy.integrate.quad(moment_integrand, -np.inf, 0.0, limit=300)
    moment_value = val_pos + val_neg
    moment_ok = bool(np.isfinite(moment_value))

    return A2Report(strip_ok=bool(strip_ok), strip_margin=float(strip_margin),
                    evenness_ok=bool(evenness_ok),
                    evenness_defect=float(evenness_defect),
                    moment_ok=moment_ok, moment_value=float(moment_value))
