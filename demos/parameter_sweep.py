"""Retention versus drive period (about 5 s on one BLAS thread of a
2-vCPU host).

Shrinking the drive period pushes the coupling's Fourier weight to
higher frequencies, where the reservoir has no spectral weight, so
faster driving should retain more coherence. This sweep shows the
trend on the bundled scenario. Every period passes the same validation
as a config file (T * ||H_s|| < pi/2) before the first point runs; the
points then run one after another.
"""

import decoshield
from decoshield.experiments import ExperimentConfig, sweep

cfg = ExperimentConfig.from_file(
    decoshield.scenario_path("spin-fermion-sinusoidal"))
rows = sweep(cfg, "T", [0.2, 0.1, 0.05])

print(f"{'T':>6s} {'retention':>12s} {'xi(T)':>12s} {'t_dec':>12s}")
for row in rows:
    print(f"{row['value']:6.2f} {row['retention']:12.8f} "
          f"{row['xi']:12.3e} {row['t_dec']:12.3e}")
