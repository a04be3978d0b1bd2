"""Pseudospectral simulation and Monte Carlo verification toolkit for
truncated cubic wave / Klein-Gordon dynamics on the 2-torus."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Multiplier,
    PhaseState,
    SpectralError,
    SpectralField,
    apply_multiplier,
    bessel_power,
    derivative,
    dyadic_block,
    field_from_dict,
    field_to_dict,
    grid_sup_norm,
    inner_product,
    integrate,
    pointwise_product,
    project_ball,
    riesz_power,
    sobolev_norm,
    state_from_dict,
    state_to_dict,
    zero_field,
)
from .sampling import (  # noqa: F401
    EnsembleSpec,
    counterterm,
    sample,
    wave_counterterm,
)
from .dynamics import (  # noqa: F401
    IntegrationError,
    IntegratorSpec,
    ModelSpec,
    evolve,
    trajectory,
)
from .energy import (  # noqa: F401
    ChaosComponents,
    EnergyRateTerms,
    EnergyReport,
    UnsupportedParameterError,
    chaos_components,
    energy_rate_terms,
    energy_report,
    hamiltonian,
    quartic_correction,
    renormalized_energy,
    truncated_energy,
)
from .measures import (  # noqa: F401
    KakutaniSummary,
    comparison_statistic,
    kakutani_terms,
)
from .montecarlo import (  # noqa: F401
    DegenerateEnsembleError,
    FUNCTIONALS,
    LpEstimate,
    RateFit,
    chaos_growth_check,
    collect_values,
    convergence_rate_study,
    estimate_lp,
    fit_rate,
    lp_growth_experiment,
    resolve_radius,
    sup_norm_moment_study,
    tail_estimate_study,
)
