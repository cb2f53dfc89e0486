"""Bell-test simulator with setting-dependent hidden-variable textures.

Closed-form correlation models, switching-synchronization algebra for the
two Bell quantities S and S', a deterministic Monte Carlo event engine that
cross-validates every closed form, and sweep tooling for the proposed
frequency-scan experiment.
"""

__version__ = "0.10.0"


# defined before the submodules are imported below: ``cli`` and ``sweep`` use it
def _lazy_engine(namespace: dict, names: tuple[str, ...]):
    """(bind, __getattr__) for a module whose Monte Carlo paths use the engine's
    ``names``: ``bind()`` imports ``montecarlo``, and with it numpy, and sets
    each name ``namespace`` does not hold yet, so a wrapper set before the first
    run is kept; the PEP 562 ``__getattr__`` binds on a first lookup of one."""

    def bind() -> None:
        from importlib import import_module  # ``from . import`` would call __getattr__

        montecarlo = import_module(".montecarlo", __name__)
        for name in names:
            if name not in namespace:  # the submodule name itself is set by the import
                namespace[name] = getattr(montecarlo, name)

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        bind()
        return namespace[name]

    return bind, __getattr__


#: the Monte Carlo engine's exports: ``import bellsim`` loads no numpy, and
#: the first lookup of one of these (or of ``montecarlo``) loads the engine
_ENGINE = ("EstimateWithError", "RngSpec", "Trials", "estimate_s_chsh", "estimate_s_prime",
           "estimate_sync_fractions", "run_choice_trials", "run_static", "run_timeline",
           "sample_lambda")
__getattr__ = _lazy_engine(globals(), ("montecarlo", *_ENGINE))[1]

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

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | {"montecarlo", *_ENGINE})
