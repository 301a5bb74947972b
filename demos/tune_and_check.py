"""Tune the sinusoidal drive amplitude and verify decoupling.

A sinusoidal control with period T decouples the qubit from the
reservoir exactly when the amplitude mu nulls the zero Fourier mode
of the rotated coupling. This script finds that amplitude by root bracketing, then
runs the decoupling check on the tuned schedule, a detuned one, and a
two-kick bang-bang schedule for comparison.
"""

import numpy as np

from decoshield.control import ControlSchedule, SystemModel, check_dd, \
    tune_amplitude

model = SystemModel.qubit()
period = 0.1

# the search varies only the amplitude: the schedule's own mu is ignored
mu_star = tune_amplitude(model, ControlSchedule.sinusoidal(period, 1.0),
                         (6.0, 9.0))
print(f"tuned amplitude: mu* = {mu_star:.12f}")
print(f"(pi * first Bessel zero = {np.pi * 2.4048255577:.12f})")
print()

schedules = [
    ("sinusoidal, tuned", ControlSchedule.sinusoidal(period, mu_star)),
    ("sinusoidal, detuned", ControlSchedule.sinusoidal(period, 5.0)),
    ("bang-bang, two kicks", ControlSchedule.bangbang(
        period, [0.25, 0.75], [np.pi / 2, -np.pi / 2])),
]
for name, sched in schedules:
    rep = check_dd(model, sched)
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"{name:22s} {verdict}  zero mode {rep.zero_mode_norm:.3e}  "
          f"periodicity defect {rep.periodicity_defect:.3e}")
