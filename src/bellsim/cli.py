"""Command-line surface.

Subcommands: ``curves`` (correlation-vs-angle tables), ``bell`` (one Bell
value with its components), ``sweep`` (frequency / fraction / distance
sweeps), ``sync`` (square-wave sync fractions), ``aspect`` (the 1982
reconstruction) and ``export-trials`` (raw Monte Carlo event streams).
Each option is one row of ``_FLAGS``, which the parser, ``Options.get`` and
the provenance headers (``Options.record``) all read.

Every invocation is reproducible: the seed defaults to DEFAULT_SEED, all
structured outputs start with a provenance header echoing the resolved
parameters, and ``provenance_to_argv`` rebuilds an equivalent command line
from that header.

A JSON config file (``--config``) may supply any long-option value; keys use
underscores ("nu_a"), top-level keys apply to every subcommand and a section
named after a subcommand overrides them.  Explicit flags win over the file.
A key no subcommand declares, a section key its subcommand does not declare
and an object not named after a subcommand are rejected.  A value reads as
the same text on the command line would: a JSON string as it is, a JSON
number as its ``repr`` ("seed": 1.5 fails as --seed 1.5 does); true, false,
null, arrays and objects are rejected for a key that is read.  ``bell``
takes its sync fractions from one of --f, --f-a/--f-b and --nu-a/--nu-b.

Exit codes: 0 success, 1 validation error, 2 runtime/numeric error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, _lazy_engine
from .choice import (
    ChoiceQuad,
    STANDARD_QUAD,
    StationConfig,
    SyncFractions,
    corr_fc,
    fractions_for,
    mix_fractions,
    s_chsh_fc,
    s_prime_fc,
)
from .models import Model, ValidationError, _check_fits, corr
from .output import format_float, provenance_header, render_table, write_table
from .svgplot import LinePlot
from .sweep import (
    CLOSED_FORM,
    MONTE_CARLO,
    DEFAULT_SEED,
    POINT_BYTES,
    SweepSpec,
    SweepVariable,
    aspect_point,
    measure_bell,
    run_sweep,
)
from .units import parse_angle_list, parse_frequency, parse_phase, parse_time

# engine names, bound when bell or export-trials first runs one (no numpy at import);
# the last three are only here for benchmarks/spans.py, which wraps them by name
_bind_engine, __getattr__ = _lazy_engine(globals(), (
    "RngSpec", "run_timeline", "estimate_s_chsh", "estimate_s_prime", "run_choice_trials"))

STANDARD_QUAD_TEXT = "0deg,22.5deg,45deg,67.5deg"
#: --format of every table; a command that draws a plot also takes svg
_TABLE_FORMATS = ("csv", "jsonl")
_PLOT_FORMATS = (*_TABLE_FORMATS, "svg")
_MODEL_ORDER = (Model.QUANTUM, Model.SEMI_CLASSICAL, Model.TEXTURE, Model.MAX_CLASSICAL_LHV)
#: the provenance names of a measurement's quad and stations
_STATION_PARAMS = ("quad", "nu_a", "nu_b", "round_trip_a", "round_trip_b")


class _Parser(argparse.ArgumentParser):
    # validation failures exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _path(text: str) -> str:
    """A file path: any text without a NUL byte, which no file system accepts."""
    if "\0" in text:
        raise ValueError("a path cannot hold a NUL byte")
    return text


def _quad_text(quad: ChoiceQuad) -> str:
    return ",".join(f"{v!r}rad" for v in (quad.a, quad.b, quad.a_alt, quad.b_alt))


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


#: kind: (parser of a flag's text or default, provenance writer of its value).
#: The quad, frequency and time parsers look their unit parser up in this
#: module at each call, so benchmarks/spans.py can wrap it by name.  A sweep
#: "bound" parses as a float for f_direct, else as a frequency.
_KINDS = {
    "quad": (lambda text: ChoiceQuad(*parse_angle_list(text, 4)), _quad_text),
    "frequency": (lambda text: parse_frequency(text), repr),
    "time": (lambda text: parse_time(text), repr),
    "bound": (None, repr),
    "phase": (parse_phase, float),
    "count": (int, int),
    "float": (float, float),
    "floats": (lambda text: tuple(float(p) for p in text.split(",")),
               lambda values: ",".join(map(repr, values))),
    "choice": (str, str),
    "list": (lambda text: tuple(item for item in text.split(",") if item), ",".join),
    "path": (_path, str),
}

_ALL = ("curves", "bell", "sweep", "sync", "aspect", "export-trials")
_MC = ("bell", "sweep", "export-trials")  # the subcommands with a Monte Carlo engine
_RUN = ("bell", "export-trials")  # the subcommands that run one timeline
_STATIONS = ("bell", "sweep", "sync", "export-trials")
_PLOTS = ("curves", "sweep")

#: Every option: (name, kind, default, choices, help, subcommands).  A default
#: or choices that differ by subcommand are a dict whose None entry is for the
#: rest.  A default is parsed as flag text is; "--x" is the value of --x.
_FLAGS = (
    ("config", "path", None, None, "JSON config file; flags override it", _ALL),
    ("seed", "count", DEFAULT_SEED, None, "RNG seed", _MC),
    ("output", "path", None, None, "output file path (default: stdout)", _ALL),
    ("format", "choice", {"curves": "csv", "sweep": "csv"},
     {"curves": _PLOT_FORMATS, "sweep": _PLOT_FORMATS, None: _TABLE_FORMATS}, "output format",
     ("curves", "bell", "sweep", "sync", "aspect")),
    ("variable", "choice", "frequency_common", tuple(SweepVariable), "swept value", ("sweep",)),
    ("start", "bound", None, None, "sweep start (f_direct: a fraction)", ("sweep",)),
    ("stop", "bound", None, None, "sweep stop", ("sweep",)),
    ("points", "count", {"curves": 181, "sweep": 1201}, None, "grid points", _PLOTS),
    ("models", "list", "qm,sc,vt,mclhv", _MODEL_ORDER, "comma list of models", ("curves",)),
    ("quad", "quad", STANDARD_QUAD_TEXT, None, "a,b,a',b' as tagged angles", _MC),
    ("nu_a", "frequency", "0", None, "Alice's switching frequency, needed by sync", _STATIONS),
    ("nu_b", "frequency", "0", None, "Bob's switching frequency", _STATIONS),
    ("round_trip", "time", "43ns", None, "shared round trip time", _STATIONS),
    ("round_trip_a", "time", "--round-trip", None, "Alice's round trip time", _STATIONS),
    ("round_trip_b", "time", "--round-trip", None, "Bob's round trip time", _STATIONS),
    ("phase_a", "phase", "0", None, "Alice's switching phase, e.g. 90deg (bare: rad)", _RUN),
    ("phase_b", "phase", "0", None, "Bob's switching phase, e.g. 90deg (bare: rad)", _RUN),
    ("form", "choice", "sprime", ("sprime", "s"), "Bell quantity", ("bell",)),
    ("engine", "choice", "closed", ("closed", "mc", "both"), "Bell engine", ("bell",)),
    ("f", "float", None, None, "common sync fraction", ("bell",)),
    ("f_a", "float", None, None, "Alice's sync fraction", ("bell",)),
    ("f_b", "float", None, None, "Bob's sync fraction", ("bell",)),
    ("engines", "list", CLOSED_FORM, (CLOSED_FORM, MONTE_CARLO), "comma list of engines",
     ("sweep",)),
    ("pairs", "count", {"bell": 1_000_000}, None, "Monte Carlo pairs", _RUN),
    ("mc_pairs", "count", 200_000, None, "Monte Carlo pairs per sweep point", ("sweep",)),
    ("duration", "time", "1ms", None, "Monte Carlo timeline duration", _MC),
    ("workers", "count", 1, None, "Monte Carlo worker threads", _RUN),
    ("emission", "choice", "uniform", ("uniform", "grid", "poisson"), "emission times",
     ("export-trials",)),
    ("weights", "floats", None, None, "station texture weights, e.g. 0.5,0.5", ("sweep",)),
    ("plot", "path", None, None, "also write an SVG plot to this path", ("sweep",)),
    ("plot_field", "choice", "s_prime", ("s_prime", "s_chsh"), "plotted value", ("sweep",)),
)


def _rows(command: str) -> dict[str, tuple]:
    """The options of ``command``: name -> (kind, default, choices, help)."""
    def pick(value):
        return value.get(command, value.get(None)) if isinstance(value, dict) else value

    return {name: (kind, pick(default), pick(choices), help)
            for name, kind, default, choices, help, commands in _FLAGS if command in commands}


class Options:
    """A subcommand's options: flag > config section > config top level >
    the default of its ``_FLAGS`` row."""

    def __init__(self, args: argparse.Namespace, command: str):
        self._rows = _rows(command)
        self._values: dict = {}
        config = {}
        if args.config:
            try:
                config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise ValidationError(f"--config {args.config}: not a JSON file ({exc})") from None
            if not isinstance(config, dict):
                raise ValidationError("config file must hold a JSON object")
        for key, value in config.items():
            if key in _COMMANDS:
                if not isinstance(value, dict):
                    raise ValidationError(f"config section {key!r} must be an object")
                for name in sorted(value.keys() - _rows(key).keys()):
                    raise ValidationError(f"config key {name!r} in section {key!r} is not an "
                                          f"option of {key}")
            elif isinstance(value, dict):
                raise ValidationError(f"config section {key!r} is not a subcommand")
            elif all(key != row[0] for row in _FLAGS):
                raise ValidationError(f"config key {key!r} is not an option of any subcommand")
        # the raw value of each option given, by flag or config key
        self._given = {k: v for k, v in config.items() if k not in _COMMANDS}
        self._given.update(config.get(command, {}))
        self._given.update((k, v) for k, v in vars(args).items() if v is not None)

    def __contains__(self, name) -> bool:
        """Whether the subcommand declares option ``name``."""
        return name in self._rows

    def given(self, name: str) -> bool:
        """Whether option ``name`` is set by its flag or the config file."""
        return name in self._given

    def get(self, name: str):
        """Option ``name`` (its flag, config or default value) parsed by its
        kind, then, if enumerated, checked against its choices (each item, if
        the kind gives a tuple); a bad value raises a ``ValidationError``
        naming the flag or config key.  Each option is parsed once."""
        if name in self._values:
            return self._values[name]
        kind, value, choices, _help = self._rows[name]
        if name in self._given:
            value = self._given[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = repr(value)
            elif not isinstance(value, str):
                raise ValidationError(f"config key {name!r} must be a JSON string or number, "
                                      f"not {json.dumps(value)}")
        elif isinstance(value, str) and value.startswith("--"):
            value = self.get(value[2:].replace("-", "_"))
        if value is not None:
            if kind == "bound":
                kind = "float" if self.get("variable") == SweepVariable.F_DIRECT else "frequency"
            try:
                value = _KINDS[kind][0](value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{_flag(name)}: cannot parse {value!r} ({exc})") from None
        if choices is not None and value is not None:
            for item in value if isinstance(value, tuple) else (value,):
                if item not in choices:
                    raise ValidationError(f"{_flag(name)}: unknown value {item!r} (choose from "
                                          f"{' | '.join(choices)})")
        self._values[name] = value
        return value

    def record(self, *names: str) -> dict:
        """Provenance params: each option of ``names`` as its kind writes it."""
        return {name: _KINDS[self._rows[name][0]][1](self.get(name)) for name in names}


def _seed(opts: Options) -> int:
    """--seed: any non-negative integer (``np.random.SeedSequence`` entropy)."""
    seed = opts.get("seed")
    if seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _provenance(command: str, seed, params: dict) -> dict:
    return {
        "tool": "bellsim",
        "version": __version__,
        "command": command,
        "seed": seed,
        "params": params,
    }


def provenance_to_argv(provenance: dict) -> list[str]:
    """Rebuild an equivalent argv (minus --output) from a provenance header.
    Each option is one ``--key=value`` word, so a value such as a quad that
    starts with a negative angle is not read as an option."""
    argv = [provenance["command"]]
    params = dict(provenance["params"])
    if provenance.get("seed") is not None:
        params.setdefault("seed", provenance["seed"])
    return argv + [f"{_flag(key)}={value}" for key, value in params.items() if value is not None]


def _emit(opts: Options, command: str, seed, params: dict, columns: dict,
          plot=None, text: tuple[str, str] = ("", "")) -> int:
    """Write a command's result, the one way out of the CLI.

    With --output or --format (csv by default), the provenance records the
    format, and the table, or the plot that ``plot`` (a builder taking the
    provenance) draws for svg, goes to --output, else stdout; --plot, where
    declared and given, also gets the plot.  Without either, the first cell
    of each column prints as ``key: value`` lines between the heading and
    footer of ``text`` (either may be empty).
    """
    output, fmt = opts.get("output"), opts.get("format")
    plot_path = opts.get("plot") if "plot" in opts else None
    if fmt is None and output is None:
        head, foot = text
        lines = [f"{key}: {format_float(cells[0]) if isinstance(cells[0], float) else cells[0]}"
                 for key, cells in columns.items()]
        sys.stdout.write("".join(f"{line}\n" for line in (head, *lines, foot) if line))
        return 0
    fmt = fmt or "csv"
    provenance = _provenance(command, seed, {**params, "format": fmt})
    figure = plot(provenance) if fmt == "svg" else None
    if output is None:
        sys.stdout.write(figure.render() if figure else render_table(columns, provenance, fmt))
    elif figure:
        figure.write(output)
    else:
        write_table(output, columns, provenance, fmt)
    if plot_path is not None:
        (figure or plot(provenance)).write(plot_path)
    return 0


# --- curves -------------------------------------------------------------------


def cmd_curves(opts: Options) -> int:
    names = opts.get("models")
    if not names:
        raise ValidationError("no models selected")
    models = [m for m in _MODEL_ORDER if m.value in names]
    points = opts.get("points")
    if points < 2:
        raise ValidationError("need at least two grid points")
    _check_fits("--points", points, POINT_BYTES, "curve points")
    deltas = [math.pi * i / (points - 1) for i in range(points)]
    columns = {"delta": deltas, **{m.value: [corr(m, delta, 0.0) for delta in deltas]
                                   for m in models}}
    # the header lists the models in table order, each once
    params = {"models": ",".join(m.value for m in models), **opts.record("points")}

    def plot(provenance) -> LinePlot:
        figure = LinePlot("Correlation vs angle difference", "a - b (rad)", "E(a,b)",
                          provenance)
        for m in models:
            figure.add_series(m.value, deltas, columns[m.value])
        return figure

    return _emit(opts, "curves", None, params, columns, plot=plot)


# --- bell ---------------------------------------------------------------------


def _stations(opts: Options) -> tuple[ChoiceQuad, StationConfig, StationConfig]:
    """The quad and both stations from --nu-a/--nu-b, --round-trip[-a|-b]
    and, where the subcommand declares them, --quad (else the standard quad)
    and --phase-a/--phase-b (else phase 0)."""
    quad = opts.get("quad") if "quad" in opts else STANDARD_QUAD
    opts.get("round_trip")  # a bad value fails even when both stations set their own

    def station(key: str, setting_1: float, setting_2: float) -> StationConfig:
        return StationConfig(
            setting_1, setting_2,
            opts.get(f"nu_{key}"),
            opts.get(f"phase_{key}") if f"phase_{key}" in opts else 0.0,
            opts.get(f"round_trip_{key}"),
        )

    return quad, station("a", quad.a, quad.a_alt), station("b", quad.b, quad.b_alt)


def _resolve_fractions(opts: Options) -> tuple[ChoiceQuad, SyncFractions, tuple | None, tuple]:
    """Sync fractions from one source, --f, --f-a/--f-b, or station
    frequencies, with the names the header records; the stations come back
    only for the last."""
    quad, alice, bob = _stations(opts)
    f, f_a, f_b = opts.get("f"), opts.get("f_a"), opts.get("f_b")
    given = [names for names in (("f",), ("f_a", "f_b"), ("nu_a", "nu_b"))
             if any(map(opts.given, names))]
    if len(given) != 1:
        sources = " and ".join("/".join(map(_flag, names)) for names in given)
        raise ValidationError("give --f, --f-a/--f-b, or --nu-a/--nu-b"
                              + (f", not {sources}" if given else ""))
    if not all(map(opts.given, given[0])):
        raise ValidationError(f"{' and '.join(map(_flag, given[0]))} must be given together")
    if f is not None:
        return quad, mix_fractions(f, f), None, ("quad", "f")
    if f_a is not None:
        return quad, mix_fractions(f_a, f_b), None, ("quad", "f_a", "f_b")
    return quad, fractions_for(alice, bob), (alice, bob), (*_STATION_PARAMS, "phase_a", "phase_b")


_BELL_LABELS = {
    "s": ("e_ab", "e_ab_alt", "e_a_alt_b", "e_a_alt_b_alt"),
    "sprime": ("n_ab", "n_ab_alt", "n_a_alt_b", "n_a_alt_b_alt"),
}


def cmd_bell(opts: Options) -> int:
    form = opts.get("form")
    engine = opts.get("engine")
    quad, sf, stations, names = _resolve_fractions(opts)
    seed = _seed(opts)
    mc = engine in ("mc", "both")
    params = opts.record(*names, *(("pairs", "duration") if mc else ()), "form", "engine")

    columns: dict = {
        "form": [form],
        "f_alice": [sf.f_alice],
        "f_bob": [sf.f_bob],
        "f": [sf.f],
        "f_prime": [sf.f_prime],
    }
    for (term, _), label in zip(quad.bell_terms(), _BELL_LABELS[form]):
        e = corr_fc(term, sf)
        # Malus outcomes: n(a, b) = (1 + E(a, b)) / 4
        columns[label] = [e if form == "s" else (1.0 + e) / 4.0]
    columns["value"] = [s_chsh_fc(quad, sf) if form == "s" else s_prime_fc(quad, sf)]

    if mc:
        pairs = opts.get("pairs")
        if pairs < 1:
            raise ValidationError("monte carlo needs --pairs >= 1")
        _bind_engine()
        s_p, s_c = measure_bell(quad, pairs, RngSpec(seed), sf=sf, stations=stations,
                                duration=opts.get("duration"), workers=opts.get("workers"))
        est = s_c if form == "s" else s_p
        columns.update(mc_value=[est.value], mc_std_error=[est.std_error],
                       mc_pairs=[est.n_trials])
    return _emit(opts, "bell", seed, params, columns)


# --- sweep --------------------------------------------------------------------


def _sweep_plot(series, provenance, which: str) -> LinePlot:
    ref = series.reference
    if which == "s_prime":
        plot = LinePlot("S' vs switching frequency", "frequency (Hz)", "S'", provenance)
        plot.band = (ref.lhv_s_prime_min, ref.lhv_s_prime_max)
        plot.add_ref_line("quantum", ref.quantum_s_prime)
        plot.add_ref_line("semiclassical", ref.semiclassical_s_prime)
    else:
        plot = LinePlot("S vs switching frequency", "frequency (Hz)", "S", provenance)
        plot.band = (0.0, ref.lhv_s_max)
        plot.add_ref_line("quantum", ref.quantum_s)
        plot.add_ref_line("semiclassical", ref.semiclassical_s)
    plot.add_series(which, series.points, series.columns[which])
    if MONTE_CARLO in series.spec.engines:
        plot.add_series(f"mc_{which}", series.points, series.columns[f"mc_{which}"])
    return plot


def cmd_sweep(opts: Options) -> int:
    variable = opts.get("variable")
    start = opts.get("start")
    stop = opts.get("stop")
    if start is None or stop is None:
        raise ValidationError("sweep needs --start and --stop")
    quad, alice, bob = _stations(opts)
    engines = opts.get("engines")
    weights = opts.get("weights")
    if weights is not None and len(weights) != 2:
        raise ValidationError("--weights needs two comma-separated values")
    seed = _seed(opts)
    spec = SweepSpec(
        variable=variable,
        start=start,
        stop=stop,
        num_points=opts.get("points"),
        quad=quad,
        alice=alice,
        bob=bob,
        engines=engines,
        mc_pairs_per_point=opts.get("mc_pairs"),
        mc_duration=opts.get("duration"),
        station_weights=weights,
        seed=seed,
    )
    names = ["variable", "start", "stop", "points", *_STATION_PARAMS, "engines"]
    if MONTE_CARLO in engines:
        names += ["mc_pairs", "duration"]
    if weights is not None:
        names.append("weights")
    which = opts.get("plot_field")
    # recorded before the sweep: recorded after it, its header took an
    # in-process loop of sweep_mc from ~40 to ~9,700 page faults a call
    params = opts.record(*names, "plot_field")
    series = run_sweep(spec)
    return _emit(opts, "sweep", seed, params, series.columns,
                 plot=lambda provenance: _sweep_plot(series, provenance, which))


# --- sync ---------------------------------------------------------------------


def cmd_sync(opts: Options) -> int:
    if not opts.given("nu_a"):
        raise ValidationError("sync needs --nu-a")
    _quad, alice, bob = _stations(opts)
    sf = fractions_for(alice, bob)
    columns: dict = {"nu_a": [alice.switch_frequency], "round_trip_a": [alice.round_trip_time],
                     "f_alice": [sf.f_alice]}
    names: tuple = ("nu_a", "round_trip_a")
    if opts.given("nu_b"):
        columns.update(nu_b=[bob.switch_frequency], round_trip_b=[bob.round_trip_time],
                       f_bob=[sf.f_bob], f=[sf.f], f_prime=[sf.f_prime])
        names = _STATION_PARAMS[1:]
    return _emit(opts, "sync", None, opts.record(*names), columns)


# --- aspect -------------------------------------------------------------------


def cmd_aspect(opts: Options) -> int:
    report = aspect_point()
    heading = "1982 periodic-switching reconstruction (46.2 / 48.4 MHz, 43 ns round trip)"
    comparison = (f"predicted S' {format_float(report.reported.s_prime)} vs measured "
                  f"{report.measured_s_prime} +/- {report.measured_s_prime_error}")
    columns = {key: [value] for key, value in report.as_dict().items()}
    return _emit(opts, "aspect", None, {}, columns, text=(heading, comparison))


# --- export-trials --------------------------------------------------------------


def cmd_export_trials(opts: Options) -> int:
    pairs = opts.get("pairs")
    if pairs is None or pairs < 1:
        raise ValidationError("no trials requested (need --pairs >= 1)")
    output = opts.get("output")
    if output is None:
        raise ValidationError("export-trials needs --output")
    _quad, alice, bob = _stations(opts)
    duration = opts.get("duration")
    emission = opts.get("emission")
    workers = opts.get("workers")
    seed = _seed(opts)
    params = opts.record(*_STATION_PARAMS, "phase_a", "phase_b", "pairs", "duration", "emission")
    _bind_engine()
    trials = run_timeline(alice, bob, pairs, duration, RngSpec(seed),
                          emission=emission, workers=workers)
    provenance = _provenance("export-trials", seed, params)
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_header(provenance) + "\n")
        _write_trial_lines(fh, trials)
    return 0


# a record is json.dumps of its dict, field for field (floats and ints print as
# their repr): its emission time, then a tail fixed by the other seven fields
_HEAD = '{"emission_time": '
_TAIL = (', "lambda": {}, "a_v": {}, "b_v": {}, "a_m": {}, "b_m": {}, '
         '"alpha": {}, "beta": {}}}\n{{"emission_time": ').format
_WRITE_BLOCK = 4096  # records per write; larger blocks raise peak memory


def _write_trial_lines(fh, trials) -> None:
    """One JSON line per record.  A block's records share few tails (the
    texture atoms times the 64 setting and outcome bits): each distinct tail
    is formatted once, and it ends with the next record's head.  The
    emission times are ``floattext.reprs`` of the block, the text
    ``float.__repr__`` gives."""
    import numpy as np

    from .floattext import reprs
    from .montecarlo import _bits

    if not len(trials):
        return
    a_text, b_text = ([repr(v) for v in row] for row in trials.settings.tolist())
    sign = ("-1", "1")
    fh.write(_HEAD)
    for lo in range(0, len(trials), _WRITE_BLOCK):
        block = slice(lo, lo + _WRITE_BLOCK)
        lam, lam_idx = np.unique(trials.hidden_angle[block], return_inverse=True)
        key = lam_idx * 64 + _bits(trials.a_v_idx[block], trials.b_v_idx[block],
                                   trials.a_m_idx[block], trials.b_m_idx[block],
                                   trials.alpha[block] > 0, trials.beta[block] > 0)
        keys, tail_idx = np.unique(key, return_inverse=True)
        lam_text = [repr(v) for v in lam.tolist()]
        tails = [_TAIL(lam_text[k >> 6], a_text[k >> 5 & 1], b_text[k >> 4 & 1],
                       a_text[k >> 3 & 1], b_text[k >> 2 & 1], sign[k >> 1 & 1], sign[k & 1])
                 for k in keys.tolist()]
        parts = [""] * (2 * len(tail_idx))
        parts[::2] = reprs(trials.emission_time[block])
        parts[1::2] = map(tails.__getitem__, tail_idx.tolist())
        if block.stop >= len(trials):
            parts[-1] = parts[-1][:-len(_HEAD)]  # no record follows the last
        fh.write("".join(parts))


# --- parser -------------------------------------------------------------------


_COMMANDS = {
    "curves": (cmd_curves, "correlation-vs-angle tables for the four models"),
    "bell": (cmd_bell, "one Bell value (S or S') with its components"),
    "sweep": (cmd_sweep, "sweep frequency, fraction, or distance split"),
    "sync": (cmd_sync, "square-wave sync fractions f_A, f_B, f, f'"),
    "aspect": (cmd_aspect, "the 1982 reconstruction report"),
    "export-trials": (cmd_export_trials, "write a Monte Carlo event stream as JSON lines"),
}


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every subcommand.  Given ``command``, only that
    subcommand gets its options, the others none; without it, each gets its
    own."""
    parser = _Parser(prog="bellsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command not in (None, name):
            continue
        for option, (_kind, default, choices, text) in _rows(name).items():
            if choices is not None:
                text += f": {' | '.join(choices)}"
            if default is not None:
                text += f" (default {default})"
            p.add_argument(_flag(option), help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level takes no option with a value, so its first word that is
    # not an option is the subcommand argparse runs (or rejects)
    parser = build_parser(next((word for word in argv if not word.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = Options(args, args.command)
        for name in ("output", "plot", "format"):  # a bad value fails before any work
            if name in opts:
                opts.get(name)
        return _COMMANDS[args.command][0](opts)
    except ValidationError as exc:
        print(f"bellsim: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"bellsim: i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # numeric / runtime failures
        print(f"bellsim: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
