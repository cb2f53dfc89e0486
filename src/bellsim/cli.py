"""Command-line surface.

Subcommands: ``curves`` (correlation-vs-angle tables), ``bell`` (one Bell
value with its components), ``sweep`` (frequency / fraction / distance
sweeps), ``sync`` (square-wave sync fractions), ``aspect`` (the 1982
reconstruction) and ``export-trials`` (raw Monte Carlo event streams).

Every invocation is reproducible: the seed defaults to DEFAULT_SEED, all
structured outputs start with a provenance header echoing the resolved
parameters, and ``provenance_to_argv`` rebuilds an equivalent command line
from that header.

A JSON config file (``--config``) may supply any long-option value; keys use
underscores ("nu_a"), top-level keys apply to every subcommand and a section
named after a subcommand overrides them.  Explicit flags win over the file.
A value reads as the same text on the command line would: a JSON string as
it is, a JSON number as its ``repr`` ("seed": 1.5 fails as --seed 1.5 does);
true, false, null, arrays and objects are rejected for a key that is read.

Exit codes: 0 success, 1 validation error, 2 runtime/numeric error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .choice import (
    ASPECT_ROUND_TRIP,
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
from .models import Model, ValidationError, corr
from .montecarlo import RngSpec, _bits, _check_fits, run_timeline
# importable here so that benchmarks/spans.py can wrap them by this module's name
from .montecarlo import estimate_s_chsh, estimate_s_prime, run_choice_trials  # noqa: F401
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

STANDARD_QUAD_TEXT = "0deg,22.5deg,45deg,67.5deg"
#: --format of every table; a command that draws a plot also takes svg
_TABLE_FORMATS = ("csv", "jsonl")
_MODEL_ORDER = (Model.QUANTUM, Model.SEMI_CLASSICAL, Model.TEXTURE, Model.MAX_CLASSICAL_LHV)


class _Parser(argparse.ArgumentParser):
    # validation failures exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class Options:
    """Flag > config-section > config-global > default resolution."""

    def __init__(self, args: argparse.Namespace, command: str):
        self._args = vars(args)
        config = {}
        path = self._args.get("config")
        if path:
            try:
                config = json.loads(Path(path).read_text(encoding="utf-8"))
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise ValidationError(f"--config {path}: not a JSON file ({exc})") from None
            if not isinstance(config, dict):
                raise ValidationError("config file must hold a JSON object")
        merged = {k: v for k, v in config.items() if not isinstance(v, dict)}
        section = config.get(command, {})
        if not isinstance(section, dict):
            raise ValidationError(f"config section {command!r} must be an object")
        merged.update(section)
        self._cfg = merged

    def __contains__(self, name) -> bool:
        """Whether the subcommand declares option ``name``."""
        return name in self._args

    def get(self, name, default=None, parse=None, choices=None):
        """Option ``name`` parsed by ``parse``, then, if enumerated, checked
        against ``choices`` (each item, if ``parse`` gives a tuple); a bad
        value raises a ``ValidationError`` naming the flag or config key."""
        value = self._args.get(name)
        if value is None and name in self._cfg:
            value = self._cfg[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = repr(value)
            elif not isinstance(value, str):
                raise ValidationError(f"config key {name!r} must be a JSON string or number, "
                                      f"not {json.dumps(value)}")
        if value is None:
            value = default
        flag = f"--{name.replace('_', '-')}"
        if value is not None and parse is not None:
            try:
                value = parse(value)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{flag}: cannot parse {value!r} ({exc})") from None
        if choices is not None and value is not None:
            for item in value if isinstance(value, tuple) else (value,):
                if item not in choices:
                    raise ValidationError(f"{flag}: unknown value {item!r} (choose from "
                                          f"{' | '.join(choices)})")
        return value


def _items(text: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated list."""
    return tuple(item for item in text.split(",") if item)


def _seed(opts: Options) -> int:
    """--seed: any non-negative integer (``np.random.SeedSequence`` entropy)."""
    seed = opts.get("seed", DEFAULT_SEED, parse=int)
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
    return argv + [f"--{key.replace('_', '-')}={value}"
                   for key, value in params.items() if value is not None]


def _quad_text(quad: ChoiceQuad) -> str:
    return ",".join(f"{v!r}rad" for v in (quad.a, quad.b, quad.a_alt, quad.b_alt))


def _path(text: str) -> str:
    """A file path: any text without a NUL byte, which no file system accepts."""
    if "\0" in text:
        raise ValueError("a path cannot hold a NUL byte")
    return text


def _outlet(opts: Options, plot: bool = False,
            report: bool = False) -> tuple[str | None, str | None, str | None]:
    """Where a command's result goes: (--output, --plot, --format), read
    before the command computes, so a bad value fails at once.

    --format is csv or jsonl, or also svg for a command that draws a ``plot``;
    it is None, for a command that can ``report``, when neither --output nor
    --format is given.  --plot is None where it is not declared.
    """
    output = opts.get("output", parse=_path)
    plot_path = opts.get("plot", parse=_path) if "plot" in opts else None
    fmt = opts.get("format", None if report and output is None else "csv",
                   choices=(*_TABLE_FORMATS, "svg") if plot else _TABLE_FORMATS)
    return output, plot_path, fmt


def _emit(outlet: tuple, command: str, seed, params: dict, rows: list[dict],
          plot=None, text: tuple[str, str] = ("", "")) -> int:
    """Write a command's result to its ``_outlet``, the one way out of the CLI.

    With a format, the provenance records it, and the table, or the plot
    that ``plot`` (a builder taking the provenance) draws for svg, goes to
    --output, else stdout; --plot, where given, also gets the plot.  Without
    one, the one row prints as ``key: value`` lines between the heading and
    footer of ``text`` (either may be empty).
    """
    output, plot_path, fmt = outlet
    if fmt is None:
        head, foot = text
        lines = [f"{key}: {format_float(value) if isinstance(value, float) else value}"
                 for key, value in rows[0].items()]
        sys.stdout.write("".join(f"{line}\n" for line in (head, *lines, foot) if line))
        return 0
    provenance = _provenance(command, seed, {**params, "format": fmt})
    figure = plot(provenance) if fmt == "svg" else None
    if output is None:
        sys.stdout.write(figure.render() if figure else render_table(rows, provenance, fmt))
    elif figure:
        figure.write(output)
    else:
        write_table(output, rows, provenance, fmt)
    if plot_path is not None:
        (figure or plot(provenance)).write(plot_path)
    return 0


# --- curves -------------------------------------------------------------------


def cmd_curves(opts: Options) -> int:
    outlet = _outlet(opts, plot=True)
    names = opts.get("models", "qm,sc,vt,mclhv", parse=_items,
                     choices=tuple(m.value for m in _MODEL_ORDER))
    if not names:
        raise ValidationError("no models selected")
    models = [Model(n) for n in names]
    points = opts.get("points", 181, parse=int)
    if points < 2:
        raise ValidationError("need at least two grid points")
    _check_fits("--points", points, POINT_BYTES, "curve points")
    rows = []
    for i in range(points):
        delta = math.pi * i / (points - 1)
        row: dict = {"delta": delta}
        for m in _MODEL_ORDER:
            if m in models:
                row[m.value] = corr(m, delta, 0.0)
        rows.append(row)
    params = {"models": ",".join(m.value for m in _MODEL_ORDER if m in models),
              "points": points}

    def plot(provenance) -> LinePlot:
        figure = LinePlot("Correlation vs angle difference", "a - b (rad)", "E(a,b)",
                          provenance)
        for m in _MODEL_ORDER:
            if m in models:
                figure.add_series(m.value, [r["delta"] for r in rows],
                                  [r[m.value] for r in rows])
        return figure

    return _emit(outlet, "curves", None, params, rows, plot=plot)


# --- bell ---------------------------------------------------------------------


def _parse_quad(text: str) -> ChoiceQuad:
    return ChoiceQuad(*parse_angle_list(text, 4))


def _stations(opts: Options, quad: bool = True,
              phases: bool = True) -> tuple[ChoiceQuad, StationConfig, StationConfig, dict]:
    """The quad and both stations from --nu-a/--nu-b (default 0, not
    switching), --round-trip[-a|-b] and, unless each is off, --quad (else the
    standard quad) and --phase-a/--phase-b; with the provenance params that
    rebuild them."""
    quad = opts.get("quad", STANDARD_QUAD_TEXT, parse=_parse_quad) if quad else STANDARD_QUAD
    rt = opts.get("round_trip", ASPECT_ROUND_TRIP, parse=parse_time)

    def station(key: str, setting_1: float, setting_2: float) -> StationConfig:
        return StationConfig(
            setting_1, setting_2,
            opts.get(f"nu_{key}", 0.0, parse=parse_frequency),
            opts.get(f"phase_{key}", 0.0, parse=parse_phase) if phases else 0.0,
            opts.get(f"round_trip_{key}", rt, parse=parse_time),
        )

    alice = station("a", quad.a, quad.a_alt)
    bob = station("b", quad.b, quad.b_alt)
    params = {
        "quad": _quad_text(quad),
        "nu_a": repr(alice.switch_frequency), "nu_b": repr(bob.switch_frequency),
        "round_trip_a": repr(alice.round_trip_time),
        "round_trip_b": repr(bob.round_trip_time),
    }
    if phases:
        params.update(phase_a=alice.switch_phase, phase_b=bob.switch_phase)
    return quad, alice, bob, params


def _resolve_fractions(opts: Options) -> tuple[ChoiceQuad, SyncFractions, tuple | None, dict]:
    """Sync fractions from --f, --f-a/--f-b, or station frequencies; the
    stations come back only for the last."""
    quad, alice, bob, station_params = _stations(opts)
    f = opts.get("f", parse=float)
    f_a = opts.get("f_a", parse=float)
    f_b = opts.get("f_b", parse=float)
    params: dict = {"quad": station_params["quad"]}
    if f is not None:
        return quad, mix_fractions(f, f), None, {**params, "f": f}
    if f_a is not None or f_b is not None:
        if f_a is None or f_b is None:
            raise ValidationError("--f-a and --f-b must be given together")
        return quad, mix_fractions(f_a, f_b), None, {**params, "f_a": f_a, "f_b": f_b}
    given = [opts.get(key) is not None for key in ("nu_a", "nu_b")]
    if any(given):
        if not all(given):
            raise ValidationError("--nu-a and --nu-b must be given together")
        return quad, fractions_for(alice, bob), (alice, bob), station_params
    raise ValidationError("give --f, --f-a/--f-b, or --nu-a/--nu-b")


_BELL_LABELS = {
    "s": ("e_ab", "e_ab_alt", "e_a_alt_b", "e_a_alt_b_alt"),
    "sprime": ("n_ab", "n_ab_alt", "n_a_alt_b", "n_a_alt_b_alt"),
}


def cmd_bell(opts: Options) -> int:
    outlet = _outlet(opts, report=True)
    form = opts.get("form", "sprime", choices=("sprime", "s"))
    engine = opts.get("engine", "closed", choices=("closed", "mc", "both"))
    quad, sf, stations, params = _resolve_fractions(opts)
    seed = _seed(opts)

    row: dict = {
        "form": form,
        "f_alice": sf.f_alice,
        "f_bob": sf.f_bob,
        "f": sf.f,
        "f_prime": sf.f_prime,
    }
    for (term, _), label in zip(quad.bell_terms(), _BELL_LABELS[form]):
        e = corr_fc(term, sf)
        # Malus outcomes: n(a, b) = (1 + E(a, b)) / 4
        row[label] = e if form == "s" else (1.0 + e) / 4.0
    row["value"] = s_chsh_fc(quad, sf) if form == "s" else s_prime_fc(quad, sf)

    if engine in ("mc", "both"):
        pairs = opts.get("pairs", 1_000_000, parse=int)
        if pairs < 1:
            raise ValidationError("monte carlo needs --pairs >= 1")
        duration = opts.get("duration", 1e-3, parse=parse_time)
        workers = opts.get("workers", 1, parse=int)
        s_p, s_c = measure_bell(quad, pairs, RngSpec(seed), sf=sf, stations=stations,
                                duration=duration, workers=workers)
        est = s_c if form == "s" else s_p
        row["mc_value"] = est.value
        row["mc_std_error"] = est.std_error
        row["mc_pairs"] = est.n_trials
        params.update(pairs=pairs, duration=repr(duration))
    params.update(form=form, engine=engine)
    return _emit(outlet, "bell", seed, params, [row])


# --- sweep --------------------------------------------------------------------


def _sweep_spec(opts: Options) -> tuple[SweepSpec, dict]:
    variable = opts.get("variable", "frequency_common",
                        choices=tuple(v.value for v in SweepVariable))
    parse_x = float if variable == SweepVariable.F_DIRECT else parse_frequency
    start = opts.get("start", parse=parse_x)
    stop = opts.get("stop", parse=parse_x)
    if start is None or stop is None:
        raise ValidationError("sweep needs --start and --stop")
    # the sweep has no phase flags; its stations switch in phase
    quad, alice, bob, station_params = _stations(opts, phases=False)
    engines = opts.get("engines", CLOSED_FORM, parse=_items, choices=(CLOSED_FORM, MONTE_CARLO))
    weights = opts.get("weights", parse=lambda v: tuple(float(p) for p in v.split(",")))
    if weights is not None and len(weights) != 2:
        raise ValidationError("--weights needs two comma-separated values")
    seed = _seed(opts)
    spec = SweepSpec(
        variable=variable,
        start=start,
        stop=stop,
        num_points=opts.get("points", 1201, parse=int),
        quad=quad,
        alice=alice,
        bob=bob,
        engines=engines,
        mc_pairs_per_point=opts.get("mc_pairs", 200_000, parse=int),
        mc_duration=opts.get("duration", 1e-3, parse=parse_time),
        station_weights=weights,
        seed=seed,
    )
    params = {
        "variable": spec.variable.value,
        "start": repr(start),
        "stop": repr(stop),
        "points": spec.num_points,
        **station_params,
        "engines": ",".join(engines),
    }
    if MONTE_CARLO in engines:
        params.update(mc_pairs=spec.mc_pairs_per_point, duration=repr(spec.mc_duration))
    if weights is not None:
        params["weights"] = f"{weights[0]!r},{weights[1]!r}"
    return spec, params


def _series_rows(series) -> list[dict]:
    return [{
        "x": p.x,
        "f_alice": p.f_alice,
        "f_bob": p.f_bob,
        "s_prime": p.s_prime,
        "s_chsh": p.s_chsh,
        "mc_s_prime": None if p.mc_s_prime is None else p.mc_s_prime.value,
        "mc_s_prime_err": None if p.mc_s_prime is None else p.mc_s_prime.std_error,
        "mc_s_chsh": None if p.mc_s_chsh is None else p.mc_s_chsh.value,
        "mc_s_chsh_err": None if p.mc_s_chsh is None else p.mc_s_chsh.std_error,
    } for p in series.points]


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
    xs = [p.x for p in series.points]
    plot.add_series(which, xs, [getattr(p, which) for p in series.points])
    if series.points[0].mc_s_prime is not None:
        field = "mc_s_prime" if which == "s_prime" else "mc_s_chsh"
        plot.add_series(field, xs, [getattr(p, field).value for p in series.points])
    return plot


def cmd_sweep(opts: Options) -> int:
    outlet = _outlet(opts, plot=True)
    spec, params = _sweep_spec(opts)
    which = opts.get("plot_field", "s_prime", choices=("s_prime", "s_chsh"))
    params["plot_field"] = which
    series = run_sweep(spec)
    return _emit(outlet, "sweep", spec.seed, params, _series_rows(series),
                 plot=lambda provenance: _sweep_plot(series, provenance, which))


# --- sync ---------------------------------------------------------------------


def cmd_sync(opts: Options) -> int:
    outlet = _outlet(opts, report=True)
    if opts.get("nu_a") is None:
        raise ValidationError("sync needs --nu-a")
    _quad, alice, bob, station_params = _stations(opts, quad=False, phases=False)
    sf = fractions_for(alice, bob)
    row: dict = {"nu_a": alice.switch_frequency, "round_trip_a": alice.round_trip_time,
                 "f_alice": sf.f_alice}
    if opts.get("nu_b") is not None:
        row.update(nu_b=bob.switch_frequency, round_trip_b=bob.round_trip_time,
                   f_bob=sf.f_bob, f=sf.f, f_prime=sf.f_prime)
    params = {key: value for key, value in station_params.items() if key in row}
    return _emit(outlet, "sync", None, params, [row])


# --- aspect -------------------------------------------------------------------


def cmd_aspect(opts: Options) -> int:
    outlet = _outlet(opts, report=True)
    report = aspect_point()
    heading = "1982 periodic-switching reconstruction (46.2 / 48.4 MHz, 43 ns round trip)"
    comparison = (f"predicted S' {format_float(report.reported.s_prime)} vs measured "
                  f"{report.measured_s_prime} +/- {report.measured_s_prime_error}")
    return _emit(outlet, "aspect", None, {}, [report.as_dict()], text=(heading, comparison))


# --- export-trials --------------------------------------------------------------


def cmd_export_trials(opts: Options) -> int:
    pairs = opts.get("pairs", parse=int)
    if pairs is None or pairs < 1:
        raise ValidationError("no trials requested (need --pairs >= 1)")
    output = opts.get("output", parse=_path)
    if output is None:
        raise ValidationError("export-trials needs --output")
    _quad, alice, bob, params = _stations(opts)
    duration = opts.get("duration", 1e-3, parse=parse_time)
    emission = opts.get("emission", "uniform", choices=("uniform", "grid", "poisson"))
    workers = opts.get("workers", 1, parse=int)
    seed = _seed(opts)
    trials = run_timeline(alice, bob, pairs, duration, RngSpec(seed),
                          emission=emission, workers=workers)
    params.update(pairs=pairs, duration=repr(duration), emission=emission)
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
    is formatted once, and it ends with the next record's head."""
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
        parts[::2] = map(float.__repr__, trials.emission_time[block].tolist())
        parts[1::2] = map(tails.__getitem__, tail_idx.tolist())
        if block.stop >= len(trials):
            parts[-1] = parts[-1][:-len(_HEAD)]  # no record follows the last
        fh.write("".join(parts))


# --- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bellsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, formats=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        if seed:
            p.add_argument("--seed", help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--output", help="output file path (default: stdout)")
        if formats:
            p.add_argument("--format", help="csv | jsonl | svg (where supported)")

    def stations(p, quad=True, phases=True):
        # the flags _stations reads
        if quad:
            p.add_argument("--quad", help="a,b,a',b' as tagged angles")
        p.add_argument("--nu-a", help="Alice's switching frequency (default 0: fixed; sync needs it)")
        p.add_argument("--nu-b", help="Bob's switching frequency (default 0: fixed)")
        p.add_argument("--round-trip", help="shared round trip time, e.g. 43ns (default 43ns)")
        p.add_argument("--round-trip-a", help="Alice's round trip time")
        p.add_argument("--round-trip-b", help="Bob's round trip time")
        if phases:
            p.add_argument("--phase-a", help="Alice's switching phase, e.g. 90deg (bare: rad)")
            p.add_argument("--phase-b", help="Bob's switching phase, e.g. 90deg (bare: rad)")

    p = sub.add_parser("curves", help="correlation-vs-angle tables for the four models")
    common(p)
    p.add_argument("--models", help="comma list from qm,sc,vt,mclhv")
    p.add_argument("--points", help="grid points over [0, pi]")

    p = sub.add_parser("bell", help="one Bell value (S or S') with its components")
    common(p, seed=True)
    stations(p)
    p.add_argument("--form", help="sprime | s")
    p.add_argument("--engine", help="closed | mc | both")
    p.add_argument("--f", help="common sync fraction")
    p.add_argument("--f-a", help="Alice's sync fraction")
    p.add_argument("--f-b", help="Bob's sync fraction")
    p.add_argument("--pairs", help="Monte Carlo pairs")
    p.add_argument("--duration", help="Monte Carlo timeline duration")
    p.add_argument("--workers", help="Monte Carlo worker threads")

    p = sub.add_parser("sweep", help="sweep frequency, fraction, or distance split")
    common(p, seed=True)
    p.add_argument("--variable", help="frequency_common | frequency_alice_only | f_direct | distance_ratio")
    p.add_argument("--start", help="sweep start (frequency or fraction)")
    p.add_argument("--stop", help="sweep stop")
    p.add_argument("--points", help="grid points (default 1201)")
    stations(p, phases=False)
    p.add_argument("--engines", help="closed_form[,monte_carlo]")
    p.add_argument("--mc-pairs", help="Monte Carlo pairs per sweep point")
    p.add_argument("--duration", help="Monte Carlo timeline duration per point")
    p.add_argument("--weights", help="station texture weights, e.g. 0.5,0.5")
    p.add_argument("--plot", help="also write an SVG plot to this path")
    p.add_argument("--plot-field", help="s_prime | s_chsh (default s_prime)")

    p = sub.add_parser("sync", help="square-wave sync fractions f_A, f_B, f, f'")
    common(p)
    stations(p, quad=False, phases=False)

    p = sub.add_parser("aspect", help="the 1982 reconstruction report")
    common(p)

    p = sub.add_parser("export-trials", help="write a Monte Carlo event stream as JSON lines")
    common(p, seed=True, formats=False)
    stations(p)
    p.add_argument("--pairs", help="number of pairs to simulate")
    p.add_argument("--duration", help="timeline duration (default 1ms)")
    p.add_argument("--emission", help="uniform | grid | poisson")
    p.add_argument("--workers", help="worker threads")

    return parser


_COMMANDS = {
    "curves": cmd_curves,
    "bell": cmd_bell,
    "sweep": cmd_sweep,
    "sync": cmd_sync,
    "aspect": cmd_aspect,
    "export-trials": cmd_export_trials,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = Options(args, args.command)
        return _COMMANDS[args.command](opts)
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
