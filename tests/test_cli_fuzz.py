"""Adversarial command lines and config files: every subcommand's flags with
edge values.

Whatever the input, the CLI exits 0, 1 (validation) or 3 (i/o), never 2 or
with a traceback, and a run that succeeds prints only finite numbers.  Pair
and point counts are at most 2000, or so large that the memory check
rejects them before anything is allocated.
"""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from bellsim.cli import build_parser, main

#: A valid, small invocation of each subcommand; drawn flags are appended.
BASE = {
    "curves": ("curves", "--points", "5"),
    "bell": ("bell", "--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--pairs", "2000"),
    "sweep": ("sweep", "--start", "0", "--stop", "100MHz", "--points", "3",
              "--mc-pairs", "2000"),
    "sync": ("sync", "--nu-a", "46.2MHz"),
    "aspect": ("aspect",),
    "export-trials": ("export-trials", "--pairs", "50", "--output", "{out}"),
}

NUMBERS = ("nan", "inf", "-inf", "-0", "0", "-1", "0.5", "2.5", "1e300", "-1e300",
           "1e-300", "1e-320")
TAGGED = ("46.2MHz", "1e300Hz", "-3MHz", "43ns", "1e-300s", "1e300s", "90deg", "0.3rad",
          "nandeg", "1e300deg", "-infrad", "MHz", "ns", "deg", "10degs", "1GHzz", "abc", "",
          "0deg,22.5deg,45deg,67.5deg", "-10deg,0.3rad,45deg,1.2rad", "1,2,3,4", "0deg,,",
          ",", "nan,nan", "0.5,0.5", "1,-1", "0.3,0.7,0.1")
CHOICES = ("s", "sprime", "closed", "mc", "both", "csv", "jsonl", "svg", "uniform", "grid",
           "poisson", "closed_form", "monte_carlo", "closed_form,monte_carlo",
           "frequency_common", "frequency_alice_only", "f_direct", "distance_ratio",
           "s_prime", "s_chsh", "qm,sc,vt,mclhv", "vt", "qm,bogus", "bogus")
COUNTS = ("-1", "0", "1", "2", "5", "nan", "1e3", "", "1000000000000000")
PAIRS = (*COUNTS, "2000")
SEEDS = ("-1", "0", "7", "1.5", "18446744073709551616")
PATHS = ("{out}", "{missing}/out", "{dir}")
PLOTS = ("{plot}", "{missing}/plot.svg", "{dir}")

VALUES = {
    "--points": COUNTS, "--pairs": PAIRS, "--mc-pairs": PAIRS, "--workers": PAIRS,
    "--seed": SEEDS, "--output": PATHS, "--plot": PLOTS, "--config": PATHS,
}
GENERIC = NUMBERS + TAGGED + CHOICES


def _value_actions() -> dict[str, list[argparse.Action]]:
    """Each subcommand's options that take a value, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [action for action in parser._actions if action.nargs != 0]
            for name, parser in sub.choices.items()}


ACTIONS = _value_actions()
FLAGS = {name: tuple(opt for action in actions for opt in action.option_strings)
         for name, actions in ACTIONS.items()}
#: the same options as config keys ("nu_a" for --nu-a)
KEYS = {name: tuple(action.dest for action in actions) for name, actions in ACTIONS.items()}


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(BASE)))
    argv = list(BASE[command])
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, max_size=3,
                              unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(VALUES.get(flag, GENERIC)))}")
    return argv


# "nan", "inf" or "infinity" as a word of output
NON_FINITE = re.compile(r"(?<![A-Za-z_])(nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)


@settings(max_examples=200, deadline=None)
@given(command_lines())
# the breaches fixed at the input edge, each pinned
@example(["sync", "--nu-a=1e300"])
@example(["sync", "--nu-a=1e300", "--round-trip-a=1e300s"])
@example(["sweep", "--start=0", "--stop=1e300Hz", "--points=3"])
@example(["export-trials", "--nu-a=46MHz", "--nu-b=48MHz", "--round-trip=1e300s",
          "--pairs=10", "--output={out}"])
@example(["export-trials", "--pairs=10", "--emission=poisson", "--duration=1e-320",
          "--output={out}"])
@example(["bell", "--nu-a=10MHz", "--nu-b=10MHz", "--round-trip-a=43ns",
          "--round-trip-b=93ns", "--engine=mc", "--pairs=2000"])
@example(["sweep", "--variable=frequency_common", "--start=0", "--stop=100MHz",
          "--points=11", "--round-trip-a=43ns", "--round-trip-b=93ns",
          "--engines=monte_carlo", "--mc-pairs=2000"])
@example(["bell", "--f=0.5", "--seed=-1", "--engine=mc", "--pairs=1000"])
@example(["sweep", "--start=0", "--stop=1MHz", "--points=3", "--weights=nan,nan"])
def test_exit_code_and_finite_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out, plot = Path(tmp, "out"), Path(tmp, "plot.svg")
        fields = dict(out=out, plot=plot, missing=Path(tmp, "missing"), dir=tmp)
        argv = [a.format(**fields) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 3), (argv, code, err)
        assert "Traceback" not in err and "runtime error" not in err, (argv, err)
        if code == 0:
            texts = [stdout.getvalue()] + [p.read_text(encoding="utf-8")
                                           for p in (out, plot) if p.is_file()]
            for text in texts:
                assert not NON_FINITE.search(text), (argv, NON_FINITE.search(text))


#: JSON values of a config key: numbers, non-finite and huge ones too, the
#: types a key must not hold, tagged text and a NUL byte
JSON_VALUES = (1e300, -1e300, float("nan"), float("inf"), float("-inf"), 10**30, 0, -1, 0.5,
               2000, True, False, None, [], ["46.2MHz"], {}, {"points": 3}, "\u0000",
               *TAGGED, *CHOICES, *SEEDS, *PATHS, *PLOTS)


@st.composite
def config_files(draw) -> tuple[list[str], dict, bool]:
    """A valid base invocation, 1-3 of its subcommand's keys with values, and
    whether they go in the subcommand's section (else at the top level)."""
    command = draw(st.sampled_from(sorted(BASE)))
    keys = draw(st.lists(st.sampled_from(KEYS[command]), min_size=1, max_size=3, unique=True))
    values = {key: draw(st.sampled_from(JSON_VALUES)) for key in keys}
    return list(BASE[command]), values, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(config_files())
# a NUL byte in a path from the config file exited 2 ("embedded null byte")
@example((["aspect"], {"output": "\u0000"}, True))
@example((list(BASE["sweep"]), {"plot": "\u0000"}, False))
@example((["export-trials", "--pairs", "50"], {"output": "\u0000"}, True))
def test_config_file_exit_code(case):
    argv, values, in_section = case
    with tempfile.TemporaryDirectory() as tmp:
        fields = dict(out=Path(tmp, "out"), plot=Path(tmp, "plot.svg"),
                      missing=Path(tmp, "missing"), dir=tmp)
        # path templates become paths under tmp
        values = {k: v.format(**fields) if isinstance(v, str) else v for k, v in values.items()}
        config = {argv[0]: values} if in_section else values
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = [a.format(**fields) for a in argv] + ["--config", str(cfg)]
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a bare path from the config, such as "abc", is written here
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        err = stderr.getvalue()
        assert code in (0, 1, 3), (argv, config, code, err)
        assert "Traceback" not in err and "runtime error" not in err, (argv, config, err)
