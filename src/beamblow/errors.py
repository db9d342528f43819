"""Exception types shared across the package."""

from __future__ import annotations


class BeamblowError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(BeamblowError):
    """A run configuration file could not be parsed or validated."""


class SolverFailure(BeamblowError):
    """Time integration could not continue: the adapted step collapsed
    below dt_min, or the step budget ran out."""


class ConvergenceFailure(BeamblowError):
    """An iterative computation (eigenvalue, embedding constant, linear
    solve) failed to reach its tolerance within the iteration budget.
    Its message states the error reached wherever the computation
    measures one; ``iterations`` holds the iterations a conjugate
    gradient solve made before it failed, and is 0 for the others."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class NewtonFailure(ConvergenceFailure):
    """The Newton iteration of an implicit time step did not converge."""


class ConstructionFailure(BeamblowError):
    """Initial data construction could not satisfy its target conditions."""
