"""Decoherence suppression by periodic forcing: simulator and rate tools.

A qubit (or small system) couples to a thermal fermionic reservoir; a
T-periodic control commuting with the system Hamiltonian averages the
coupling to zero over each period. The package checks and tunes that
decoupling condition, assembles the second-order effective generator
with its rates and phase corrections, simulates the exact dynamics
against a finite mode star, and runs reproducible experiment pipelines.
"""

__version__ = "0.1.0"

from .control import (DD_TOL, ControlSchedule, DDReport, FourierTable,
                      SystemModel, check_dd, cosine_profile,
                      effective_dynamics, fourier_modes, operator_norm,
                      tune_amplitude)
from .errors import (ArgumentError, ConfigError, DecouplingViolationError,
                     NumericError, ResourceError, TuneSearchError)
from .experiments import (ExperimentConfig, Report, emit_report,
                          run_experiment, sweep)
from .reservoir import (FormFactor, ModeSet, SpectralFunction,
                        discretize_modes, form_factor_registry,
                        glue_form_factor, make_form_factor, pv_integral,
                        spectral_function)
from .simulate import (DeviationReport, TotalModel, Trajectory,
                       compare_with_effective, evolve, trace_distance)
from .weak_coupling import (RateSummary, WeakCouplingGenerator,
                            corrected_propagate, decoherence_time,
                            level_shift, xi_rate)


def scenario_path(name: str):
    """Path to a bundled scenario config shipped with the package."""
    from importlib.resources import files

    path = files("decoshield") / "scenarios" / f"{name.replace('-', '_')}.json"
    if not path.is_file():
        raise ArgumentError(f"no bundled scenario named {name!r}")
    return path
