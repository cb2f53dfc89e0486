"""The span tracer in benchmarks/ wraps bellsim names it looks up by string.

A rename or a moved import would break a traced benchmark run without
failing anything else, so every name it wraps must resolve, and its hooks
must still count the pairs of the package's trial store.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bellsim import (
    STANDARD_QUAD,
    RngSpec,
    measure_bell,
    mix_fractions,
    run_choice_trials,
    run_timeline,
)
from bellsim.sweep import aspect_stations

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    missing = []
    for module_name, class_name, attr, _span, _hook in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
    assert not missing, f"names the tracer cannot wrap: {missing}"


def _timeline(pbs, stream):
    return run_timeline(*aspect_stations(), 20_000, 1e-4, RngSpec(40, stream), pbs=pbs)


def _choice(pbs, stream):
    return run_choice_trials(STANDARD_QUAD, mix_fractions(0.9, 0.8), 20_000,
                             RngSpec(41, stream), pbs=pbs)


@pytest.mark.parametrize("engine", [_timeline, _choice], ids=["timeline", "choice"])
def test_hooks_count_pairs_of_engine_output(engine):
    spans = _load_spans()
    tracer = spans.Tracer()
    runs = [engine(pbs, k) for k, pbs in
            enumerate(((True, True), (True, False), (False, True)))]
    for trials in runs:
        spans._count_trials(tracer, (), {}, trials)
    main, alice_only, bob_only = runs
    spans._used_s_prime(tracer, (main, alice_only, bob_only, STANDARD_QUAD), {}, None)

    singles_a = int(np.count_nonzero(alice_only.a_m == STANDARD_QUAD.a_alt))
    singles_b = int(np.count_nonzero(bob_only.b_m == STANDARD_QUAD.b))
    assert singles_a > 0 and singles_b > 0
    assert tracer.counts["montecarlo.pairs"] == sum(len(t) for t in runs)
    assert tracer.counts["montecarlo.used_pairs"] == len(main) + singles_a + singles_b
    assert tracer.trial_bytes_per_pair <= 30


@pytest.mark.parametrize("kind", ["timeline", "stepped", "choice"])
def test_tracer_counts_the_pairs_of_a_measurement(kind):
    # measure_bell must call the engine by the names the tracer wraps
    spans = _load_spans()
    alice, bob = aspect_stations()
    kwargs = {"timeline": {"stations": (alice, bob)},
              "stepped": {"stations": (replace(alice, switch_frequency=0.0), bob)},
              "choice": {"sf": mix_fractions(0.9, 0.8)}}[kind]
    n = 20_001
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.begin_invocation(1)
        measure_bell(STANDARD_QUAD, n, RngSpec(42), duration=1e-4, **kwargs)
        counts = tracer.end_invocation({})
    assert counts["montecarlo.pairs"] == 3 * n
