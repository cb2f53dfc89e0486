"""What a command loads: closed-form commands and ``--help`` start without
numpy, the Monte Carlo engine loads the first time a run needs it, and the
float formatter only when ``export-trials`` writes a stream.

Each check runs in a fresh interpreter, since this process has long since
imported numpy.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bellsim

PACKAGE_ROOT = str(Path(bellsim.__file__).resolve().parents[1])
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
       "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}

#: runs ``main(argv)`` with its output discarded and reports the exit code
#: and whether numpy, the engine and the float formatter were loaded
CHILD = """
import contextlib, io, json, sys
from bellsim.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(json.dumps([code, *(name in sys.modules
                          for name in ("numpy", "bellsim.montecarlo", "bellsim.floattext"))]))
"""


def _child(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ASPECT = ["--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns"]
SWEEP = ["sweep", "--start", "0", "--stop", "100MHz", "--points", "3"]
COMMANDS = ["curves", "bell", "sweep", "sync", "aspect", "export-trials"]


#: command lines, whether each loads the engine, and whether the formatter
LOADS = [
    ([], False, False),  # importing bellsim.cli, and with it bellsim
    (["curves", "--points", "3"], False, False),
    (["sync", *ASPECT], False, False),
    (["aspect"], False, False),
    (["bell", *ASPECT, "--engine", "closed"], False, False),
    (SWEEP, False, False),
    (["--help"], False, False),
    *(([command, "--help"], False, False) for command in COMMANDS),
    (["bell", "--f", "0.9", "--engine", "mc", "--pairs", "300"], True, False),
    ([*SWEEP, "--engines", "closed_form,monte_carlo", "--mc-pairs", "300"], True, False),
    (["export-trials", *ASPECT, "--pairs", "30", "--output", "{out}"], True, True),
]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """(exit code, numpy, engine and formatter loaded) of each of ``LOADS``,
    each in its own interpreter, two at a time."""
    out = tmp_path_factory.mktemp("startup") / "trials.jsonl"
    argvs = [json.dumps([a.format(out=out) for a in argv]) for argv, _, _ in LOADS]
    with ThreadPoolExecutor(2) as pool:
        return [json.loads(text) for text in pool.map(functools.partial(_child, CHILD), argvs)]


@pytest.mark.parametrize("case", range(len(LOADS)),
                         ids=[" ".join(argv) or "import" for argv, _, _ in LOADS])
def test_numpy_loads_only_with_the_engine(case, loaded):
    code, numpy_loaded, engine_loaded, formatter_loaded = loaded[case]
    assert code == 0
    assert numpy_loaded == engine_loaded == LOADS[case][1]
    assert formatter_loaded == LOADS[case][2]


#: a counting wrapper on each module's run_timeline, set before any engine
#: call, must be the one a Monte Carlo command calls; once the original is
#: back, the wrapper is called no more
WRAPPED = """
import json, sys
from bellsim import cli, sweep
calls = []

def counting(module):
    def run_timeline(*args, **kwargs):
        calls.append(module.__name__)
        from bellsim.montecarlo import run_timeline
        return run_timeline(*args, **kwargs)
    return run_timeline

cli.run_timeline, sweep.run_timeline = counting(cli), counting(sweep)
loaded = "numpy" in sys.modules
out = sys.argv[1]
bell = ["bell", "--f", "0.9", "--engine", "mc", "--pairs", "300", "--output", out + ".csv"]
export = ["export-trials", "--pairs", "30", "--output", out + ".jsonl"]
outputs = []
for restore in (False, True):
    if restore:
        from bellsim.montecarlo import run_timeline
        cli.run_timeline = sweep.run_timeline = run_timeline
    codes = [cli.main(bell), cli.main(export)]
    outputs.append([open(out + ext).read() for ext in (".csv", ".jsonl")])
    print(json.dumps([loaded, codes, calls]))
print(json.dumps(outputs[0] == outputs[1]))
"""


def test_wrappers_set_before_the_first_run_are_kept(tmp_path):
    wrapped, restored, same_bytes = map(json.loads, _child(WRAPPED, str(tmp_path / "out"))
                                        .splitlines())
    calls = ["bellsim.sweep"] * 3 + ["bellsim.cli"]  # main, Alice-only, Bob-only; the export
    assert wrapped == [False, [0, 0], calls]
    assert restored == [False, [0, 0], calls]
    assert same_bytes


#: ``bellsim.__all__`` of 0.8.0, which imported the engine eagerly
ALL = {
    "ASPECT_FREQUENCY_ALICE", "ASPECT_FREQUENCY_BOB", "ASPECT_ROUND_TRIP", "AspectReport",
    "ChoiceQuad", "EstimateWithError", "Extremum", "HvMixture", "Model", "ReferenceLines",
    "RngSpec", "STANDARD_QUAD", "StationConfig", "SweepSeries", "SweepSpec", "SweepVariable",
    "SyncFractions", "Trials", "UNIFORM_MIXTURE", "ValidationError", "aspect_point",
    "aspect_stations", "bell_coefficients", "bell_values", "choice", "coincidence_mixture",
    "corr", "corr_fc", "corr_mclhv", "corr_mixture", "corr_qm", "corr_sc", "detect_prob",
    "estimate_s_chsh", "estimate_s_prime", "estimate_sync_fractions", "find_extrema",
    "measure_bell", "mix_fractions", "models", "montecarlo", "normalize_angle", "q_fc",
    "run_choice_trials", "run_static", "run_sweep", "run_timeline", "s_chsh_fc",
    "s_chsh_fixed", "s_prime", "s_prime_fc", "s_prime_fc_closed", "s_prime_fixed",
    "sample_lambda", "series_extrema", "sweep", "sync_fraction", "texture_mixture",
}


def test_public_names_are_unchanged():
    assert set(bellsim.__all__) == ALL
    for name in ALL:
        assert getattr(bellsim, name) is not None


def test_engine_names_resolve_to_the_engine():
    from bellsim import RngSpec, cli, montecarlo, run_timeline, sweep

    assert RngSpec is montecarlo.RngSpec
    assert run_timeline is montecarlo.run_timeline is cli.run_timeline is sweep.run_timeline


@pytest.mark.parametrize("module", ["bellsim", "bellsim.cli", "bellsim.sweep"])
def test_an_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match=f"^module '{module}' has no attribute "
                                             "'no_such_name'$"):
        importlib.import_module(module).no_such_name  # noqa: B018
