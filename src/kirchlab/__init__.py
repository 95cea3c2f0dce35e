"""Spectral laboratory for Kirchhoff dynamics with weak dissipation.

Simulates eps u'' + b(t) u' + m(|A^(1/2)u|^2) A u = 0 on finite spectra,
together with its first-order limit and boundary-layer corrector, and
verifies decay rates, regime classification, and perturbation orders on
exact finite-dimensional instances.
"""

from .analysis import (
    BoundEntry,
    BoundSet,
    RateFit,
    VerificationEntry,
    VerificationReport,
    default_window,
    fit_eps_order,
    fit_exponential_rate,
    fit_power_rate,
    hamiltonian_floor,
    perturbation_errors,
    predicted_bounds,
    verify_bounds,
)
from .energies import (
    EnergySeries,
    apriori_margin,
    apriori_satisfied,
    energy_suite,
)
from .harness import (
    AnalysisOptions,
    ArtifactBundle,
    ExperimentPlan,
    load_config,
    plan_hash,
    run_plan,
)
from .integrate import (
    BLEW_UP,
    COMPLETED,
    STEP_UNDERFLOW,
    CorrectorTrajectory,
    IntegratorSettings,
    OutputGrid,
    SolverStats,
    Trajectory,
    corrector,
    residual_norm,
    solve_hyperbolic,
    solve_hyperbolic_sweep,
    solve_parabolic_direct,
    solve_parabolic_reparam,
)
from .model import (
    ConstantDissipation,
    LipschitzTable,
    PowerLawDissipation,
    PowerNonlinearity,
    Regime,
    classify_regime,
    compute_w0,
    p_gamma,
)
from .spectral import ConfigurationError, Spectrum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigurationError",
    "Spectrum",
    "PowerNonlinearity",
    "LipschitzTable",
    "PowerLawDissipation",
    "ConstantDissipation",
    "Regime",
    "p_gamma",
    "classify_regime",
    "compute_w0",
    "OutputGrid",
    "IntegratorSettings",
    "SolverStats",
    "Trajectory",
    "CorrectorTrajectory",
    "COMPLETED",
    "BLEW_UP",
    "STEP_UNDERFLOW",
    "solve_hyperbolic",
    "solve_hyperbolic_sweep",
    "solve_parabolic_reparam",
    "solve_parabolic_direct",
    "corrector",
    "residual_norm",
    "EnergySeries",
    "energy_suite",
    "apriori_margin",
    "apriori_satisfied",
    "RateFit",
    "BoundEntry",
    "BoundSet",
    "VerificationEntry",
    "VerificationReport",
    "fit_power_rate",
    "fit_exponential_rate",
    "fit_eps_order",
    "predicted_bounds",
    "verify_bounds",
    "perturbation_errors",
    "hamiltonian_floor",
    "default_window",
    "AnalysisOptions",
    "ExperimentPlan",
    "ArtifactBundle",
    "load_config",
    "run_plan",
    "plan_hash",
]
