"""Spectral fixed-point solver for quasi-periodic response solutions."""

__version__ = "0.1.0"

from .multipliers import (
    EpsilonDomain,
    JordanBlock,
    LinearPart,
    ResonanceError,
    apply_scaled_inverse,
    gamma_bound,
    l_eps,
)
from .ode import (
    OdeProblem,
    SolveReport,
    SolverConfig,
    analyticity_probe,
    low_regularity_solve,
    picard_step,
    residual,
    solve_fixed_point,
    sweep_epsilon,
    sweep_sigma_ladder,
    time_integration_crosscheck,
)
from .pde import (
    PdeProblem,
    apply_n_inverse,
    boussinesq_nonlinearity,
    check_beta,
    pde_residual,
    pde_solve_fixed_point,
)
from .spectral import (
    FourierField,
    NonlinearitySpec,
    NormSpec,
    SpectralLattice,
    analyze,
    check_nonresonance,
    compose,
    directional_derivative,
    norm,
    product,
    spatial_derivative,
    synthesize,
)
from .verification import (
    LiouvilleSpec,
    build_liouville,
    certify_bounds,
    newton_oracle_ode,
    newton_oracle_pde,
    nondiff_probe,
)

__all__ = [name for name in dir() if not name.startswith("_")]
