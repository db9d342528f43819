"""Numerical laboratory for finite-time blow-up in a damped extensible
beam equation with a degenerate Kirchhoff stiffness, nonlinear velocity
damping and a focusing source, on clamped intervals and squares.

The package discretizes the model, evaluates the variational constants
and certificate chains that classify initial data, constructs data at
prescribed energy levels, integrates the flow through blow-up, and
checks the certified bound sandwich against the observed blow-up time.
"""

from .bounds import (BoundReport, LowerBounds, Thm31Chain, Thm32Chain,
                     Thm33Chain, Thm34Result, Thm35Result, full_report,
                     growth_series, report_lines, summary_row, thm31_check,
                     thm31_constants, thm32_upper, thm33_upper, thm34_lower,
                     thm35_lower)
from .config import (RunConfig, SweepConfig, parse_config,
                     parse_sweep_config, serialize_config)
from .dynamics import (DEFAULT_THRESHOLDS, BlowupEstimate, StepControls,
                       StepCounts, Trajectory, adapt_dt, detect_blowup,
                       simulate)
from .errors import (BeamblowError, ConfigError, ConstructionFailure,
                     ConvergenceFailure, NewtonFailure, SolverFailure)
from .functionals import (FunctionalSnapshot, ModelParams, classify,
                          kirchhoff, lemma21_verdict, nehari_from_parts,
                          potential_J, potential_from_parts, ray_energy,
                          snapshot)
from .harness import (RunArtifacts, SuiteResult, VerifyReport, evaluate,
                      run, sweep, verify, write_artifacts)
from .mesh import (Grid, biharmonic_matrix, grad_norm_sq, inner, lap_norm_sq,
                   laplacian_matrix, make_grid, max_norm, norm_l2, norm_lq)
from .scenarios import (InitialData, PRESET_NAMES, construct_energy_level,
                        eigen_pair_basis, preset)
from .spectra import (VariationalConstants, compute_constants,
                      embedding_constant, smallest_eigen, well_depth)

__all__ = [name for name in dir() if not name.startswith("_")]
