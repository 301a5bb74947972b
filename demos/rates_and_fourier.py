"""Bohr-Fourier modes of the driven coupling and the predicted decay rates.

For the tuned sinusoidal drive the mode norms ||Q_{k,w}|| follow Bessel
functions of the scaled amplitude; the qubit's Bohr frequencies are
w = +-2. The second-order generator sums the modes whose comb points
k/T + w fall in the bath's spectral support. At the bundled period
T = 0.1 no comb point does, so the residual rate xi(T) is zero; at
T = 0.5 the comb reaches the support and the qubit decoheres.
"""

import scipy.special

from decoshield.control import (ControlSchedule, SystemModel, fourier_modes,
                                operator_norm)
from decoshield.reservoir import make_form_factor, spectral_function
from decoshield.weak_coupling import decoherence_time, level_shift

model = SystemModel.qubit()
mu_star = 7.554982305222015

table = fourier_modes(model, ControlSchedule.sinusoidal(0.1, mu_star))
print("mode norms ||Q_{k,-2}|| vs |J_k(mu*/pi)|:")
for k in range(0, 6):
    nrm = operator_norm(table.bohr[(k, -2.0)])
    bessel = abs(scipy.special.jv(k, mu_star / 3.141592653589793))
    print(f"  k={k}:  {nrm:.10f}   {bessel:.10f}")
print(f"Parseval defect: {table.parseval_defect:.2e}")

sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
for period in (0.1, 0.5):
    gen = level_shift(model, ControlSchedule.sinusoidal(period, mu_star), sf,
                      lam=0.05)
    summary = decoherence_time(gen, c_const=1.0)
    combs = sorted({k / period + w for k, w in gen.terms})
    print()
    print(f"T = {period}: comb points in the support |x| <= {sf.p_max}: "
          f"{combs}")
    print(f"xi(T)  = {summary.xi:.6e}")
    print(f"t_dec  = {summary.t_dec:.6e}")
    print("level shift diagonal:", gen.s_matrix.diagonal().real)
