"""Bell-test simulator with setting-dependent hidden-variable textures.

Closed-form correlation models, switching-synchronization algebra for the
two Bell quantities S and S', a deterministic Monte Carlo event engine that
cross-validates every closed form, and sweep tooling for the proposed
frequency-scan experiment.
"""

__version__ = "0.8.0"

from .choice import (
    ASPECT_FREQUENCY_ALICE,
    ASPECT_FREQUENCY_BOB,
    ASPECT_ROUND_TRIP,
    ChoiceQuad,
    STANDARD_QUAD,
    StationConfig,
    SyncFractions,
    bell_coefficients,
    bell_values,
    corr_fc,
    mix_fractions,
    q_fc,
    s_chsh_fc,
    s_chsh_fixed,
    s_prime,
    s_prime_fc,
    s_prime_fc_closed,
    s_prime_fixed,
    sync_fraction,
)
from .models import (
    HvMixture,
    Model,
    UNIFORM_MIXTURE,
    ValidationError,
    coincidence_mixture,
    corr,
    corr_mclhv,
    corr_mixture,
    corr_qm,
    corr_sc,
    detect_prob,
    normalize_angle,
    texture_mixture,
)
from .montecarlo import (
    EstimateWithError,
    RngSpec,
    Trials,
    estimate_s_chsh,
    estimate_s_prime,
    estimate_sync_fractions,
    run_choice_trials,
    run_static,
    run_timeline,
    sample_lambda,
)
from .sweep import (
    AspectReport,
    Extremum,
    ReferenceLines,
    SweepSeries,
    SweepSpec,
    SweepVariable,
    aspect_point,
    aspect_stations,
    find_extrema,
    measure_bell,
    run_sweep,
    series_extrema,
)

__all__ = [name for name in dir() if not name.startswith("_")]
