"""Energy-driven quantum state reduction: integrators for the nonlinear
stochastic master equation, the exact filtering solution, and a Monte Carlo
harness that verifies the model's analytic consequences."""

from .config import CHECK_NAMES, RunConfig
from .dynamics import (
    SmeConstants,
    TimeGrid,
    Trajectory,
    integrate_lindblad,
    lindblad_rhs,
    sample_noise,
    simulate_sme,
    sme_euler_raw,
    sme_step,
    sse_step,
    variance_bound,
)
from .errors import ReductionLabError
from .filtering import (
    FilterModel,
    closed_form_state,
    closed_form_trajectory,
    default_horizon,
    recovered_brownian,
    sde_gap,
    state_decomposition,
)
from .harness import EnsembleSummary, Verdict, run_ensemble
from .spectral import (
    DEFAULT_TOLS,
    SpectralDecomposition,
    StateMoments,
    ToleranceSet,
    luders_state,
    moments,
    offdiag_norms,
    spectral_decompose,
    validate_density,
)

__version__ = "0.1.0"
