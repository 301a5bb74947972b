"""Decoherence suppression on the bundled scenario (about 3 s on one
BLAS thread of a 2-vCPU host).

Simulates the qubit coupled to the discretized fermionic reservoir
twice -- once with the tuned sinusoidal drive and once without any
control -- and reports how much coherence each run retains.
"""

import decoshield
from decoshield.experiments import ExperimentConfig, run_experiment

cfg = ExperimentConfig.from_file(
    decoshield.scenario_path("spin-fermion-sinusoidal"))
report = run_experiment(cfg, out_dir="out/suppression")

on = report.runs["on"]
off = report.runs["off"]
print(f"decoupling check:     {'PASS' if report.dd['passed'] else 'FAIL'}")
print(f"retention, driven:    {on['final_retention']:.8f}")
print(f"retention, undriven:  {off['final_retention']:.8f}")
print(f"suppression ratio:    {on['final_retention'] / off['final_retention']:.2f}")
print(f"predicted t_dec:      {report.rates['t_dec']:.3e}")
print("trajectories written to out/suppression/")
