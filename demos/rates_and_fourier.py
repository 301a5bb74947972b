"""Fourier ladder of the driven coupling and the predicted decay rates.

For the tuned sinusoidal drive the ladder mode norms follow Bessel
functions of the scaled amplitude. The second-order generator built
from those modes gives the residual decoherence rate xi(T) and the
predicted decoherence time for the bundled scenario parameters.
"""

import scipy.special

from decoshield.control import (ControlSchedule, SystemModel, fourier_modes,
                                operator_norm)
from decoshield.reservoir import make_form_factor, spectral_function
from decoshield.weak_coupling import decoherence_time, level_shift

model = SystemModel.qubit()
period = 0.1
mu_star = 7.554982305222015
sched = ControlSchedule.sinusoidal(period, mu_star)

table = fourier_modes(model, sched)
print("ladder mode norms (lowering branch) vs |J_k(mu*/pi)|:")
for k in range(0, 6):
    nrm = operator_norm(table.ladder[(k, -1)])
    bessel = abs(scipy.special.jv(k, mu_star / 3.141592653589793))
    print(f"  k={k}:  {nrm:.10f}   {bessel:.10f}")
print(f"Parseval defect: {table.parseval_defect:.2e}")
print()

sf = spectral_function(make_form_factor("gaussian-p", beta=1.0))
gen = level_shift(model, table, sf, period, lam=0.05,
                  control_strength=sched.strength())
summary = decoherence_time(gen, c_const=1.0)
print(f"xi(T)  = {summary.xi:.6e}")
print(f"t_dec  = {summary.t_dec:.6e}")
print("level shift diagonal:", gen.s_matrix.diagonal().real)
