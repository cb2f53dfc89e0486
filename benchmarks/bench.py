"""End-to-end and per-layer benchmark of the bellsim command line.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload bell_aspect --seed 1 --seconds 25 --trace 0

Each run drives ``bellsim.cli.main(argv)`` in this process, repeatedly, for
``--seconds`` seconds, with the workload seed passed as ``--seed``.  The
first invocation is a warm-up and is not timed.  Every invocation's output
files are checked (see the ``_check_*`` functions) and must be byte-identical
to the first one's; an invocation that exits non-zero or fails a check
counts as failed.

``--trace 0`` reports the end-to-end metrics (median wall time per
invocation rescaled to a reference machine speed, set-up time, peak RSS).
After every invocation the harness times a fixed calibration kernel of the
kind of work the workload does (``calibrate``); dividing each invocation by
the kernel times on either side of it cancels the drift in speed of a
shared machine, which moves the kernel and bellsim alike.

``--trace 1`` spends half of the run untraced and half with every layer
boundary wrapped (``spans.py``), and reports per-layer self times and exact
counts, plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold a full
report with the environment, the exact counts and the rates.  See README.md
in this directory for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy

from spans import COUNTED_CALLS, LAYERS, TIMED_SPANS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

#: Statistical gate for Monte Carlo against closed form, as in the test suite.
SIGMAS = 4.0
#: Fresh interpreters timed per run for ``setup_s`` (after one untimed warm-up).
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import bellsim.cli; bellsim.cli.build_parser()"
)

#: End-to-end metrics of ``--trace 0`` and their units (BENCHMARK.json order).
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_CAL_KEYS = numpy.random.default_rng(20240601).random(1 << 17)
#: Repeats of a kernel per calibration; the fastest counts, so that a burst
#: of other work on the machine (page writeback after an invocation that
#: wrote a file, say) does not.
_CAL_REPEATS = 3


def _array_kernel() -> None:
    """Work like the engine's: a stable sort of 2**17 random doubles."""
    numpy.sort(_CAL_KEYS, kind="stable")


def _array_kernel_2threads() -> None:
    """The array kernel on two threads at once, as the engine runs with
    ``--workers 2``: it slows down when either processor does."""
    threads = [threading.Thread(target=_array_kernel) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _interpreter_kernel() -> None:
    """Work like per-record encoding and the closed forms: small objects in
    the interpreter, 2500 dicts of floats encoded as JSON."""
    for i in range(2500):
        json.dumps({"t": i * 1.5e-9, "l": i * 0.37, "a": i & 1, "b": 3})


#: Calibration kernels and the seconds each takes on the reference machine
#: (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 1.26); ``wall_ref_s`` is the
#: wall time an invocation would take there.
KERNELS = {
    "array": (_array_kernel, 0.016),
    "array_2threads": (_array_kernel_2threads, 0.017),
    "interpreter": (_interpreter_kernel, 0.015),
}


def calibrate(kernel: str) -> float:
    """Seconds for the fastest of a few runs of a calibration kernel.

    A kernel never changes with bellsim, so the ratio of an invocation's
    wall time to it tracks bellsim and not the speed the machine has at the
    moment.
    """
    run = KERNELS[kernel][0]
    gc.collect()
    times = []
    for _ in range(_CAL_REPEATS):
        t0 = perf_counter()
        run()
        times.append(perf_counter() - t0)
    return min(times)


class CheckFailed(Exception):
    """An output of a bellsim invocation is wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: bellsim argv; ``{key}`` fields name the output files below
    argv: tuple[str, ...]
    #: (key, file name in the work directory) of every output file
    outputs: tuple[tuple[str, str], ...]
    #: simulated pairs per invocation, main and both single-polarizer runs
    pairs: int
    #: sweep points per invocation (0 for a non-sweep command)
    points: int
    #: rates reported beside ``wall_s``: any of "pairs", "records", "points"
    rates: tuple[str, ...]
    check: Callable[["Workload", dict], dict]
    #: calibration kernel (a key of KERNELS) doing the kind of work that
    #: takes most of an invocation, so that both slow down together
    kernel: str


def _agree(what: str, mc: float, closed: float, std_error: float) -> None:
    if not abs(mc - closed) <= SIGMAS * std_error:
        raise CheckFailed(
            f"{what}: Monte Carlo {mc!r} vs closed form {closed!r} "
            f"(z = {(mc - closed) / std_error:.2f}, gate {SIGMAS} sigma)")


def _check_svg(path: Path) -> None:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"{path.name}: not well-formed SVG: {exc}") from None
    if not root.tag.endswith("svg") or root.find("{*}polyline") is None:
        raise CheckFailed(f"{path.name}: no plotted series")


def _read_rows(w: Workload, path: Path) -> list[dict]:
    from bellsim.output import read_table

    _provenance, rows = read_table(path)
    if len(rows) != w.points:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {w.points}")
    return rows


def _check_bell(w: Workload, files: dict) -> dict:
    from bellsim.output import read_table

    _provenance, rows = read_table(files["out"])
    if len(rows) != 1:
        raise CheckFailed(f"bell: {len(rows)} rows, expected 1")
    row = rows[0]
    _agree("bell S'", row["mc_value"], row["value"], row["mc_std_error"])
    if row["mc_pairs"] != w.pairs // 3:
        raise CheckFailed(f"bell: mc_pairs {row['mc_pairs']}, expected {w.pairs // 3}")
    return {"cli.records": 1}


def _check_sweep_mc(w: Workload, files: dict) -> dict:
    rows = _read_rows(w, files["csv"])
    for row in rows:
        _agree(f"S' at x={row['x']!r}", row["mc_s_prime"], row["s_prime"], row["mc_s_prime_err"])
        _agree(f"S at x={row['x']!r}", row["mc_s_chsh"], row["s_chsh"], row["mc_s_chsh_err"])
    _check_svg(files["svg"])
    return {"cli.records": len(rows)}


#: Bob's round trip in ``sweep_closed``; S' peaks where Bob is in sync, at nu = n/T.
CLOSED_ROUND_TRIP_B = 43e-9
CLOSED_STOP = 100e6


def _check_sweep_closed(w: Workload, files: dict) -> dict:
    from bellsim.sweep import find_extrema

    rows = _read_rows(w, files["csv"])
    step = CLOSED_STOP / (w.points - 1)
    maxima = [e.x for e in find_extrema([r["x"] for r in rows], [r["s_prime"] for r in rows])
              if e.kind == "max"]
    expected = []
    n = 1
    while n / CLOSED_ROUND_TRIP_B < CLOSED_STOP - step:
        expected.append(n / CLOSED_ROUND_TRIP_B)
        n += 1
    if len(maxima) != len(expected) or any(
            abs(found - want) > step for found, want in zip(maxima, expected)):
        raise CheckFailed(f"sweep_closed: S' maxima at {maxima}, expected near {expected}")
    _check_svg(files["svg"])
    return {"cli.records": len(rows)}


_TRIAL_KEYS = {"emission_time", "lambda", "a_v", "b_v", "a_m", "b_m", "alpha", "beta"}


def _check_export(w: Workload, files: dict) -> dict:
    from bellsim import cli

    path = files["out"]
    records = 0
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"export: record {records + 1} does not parse: {exc}") from None
            if record.keys() != _TRIAL_KEYS:
                raise CheckFailed(f"export: record {records + 1} has keys {sorted(record)}")
            records += 1
    if records != w.pairs:
        raise CheckFailed(f"export: {records} records, expected {w.pairs}")
    # the header must rebuild a command line that writes the same stream
    rerun = path.with_name("rerun-" + path.name)
    argv = cli.provenance_to_argv(header["provenance"]) + ["--output", str(rerun)]
    try:
        if cli.main(argv) != 0:
            raise CheckFailed(f"export: provenance argv {argv} failed")
        if _digest(rerun) != _digest(path):
            raise CheckFailed("export: provenance argv writes a different stream")
    finally:
        rerun.unlink(missing_ok=True)
    return {"cli.records": records}


def _workloads(bell_pairs: int, sweep_pairs: int, export_pairs: int,
               closed_points: int) -> dict[str, Workload]:
    sweep_points = 11
    aspect = ("--nu-a", "46.2MHz", "--nu-b", "48.4MHz", "--round-trip", "43ns")
    items = (
        Workload(
            "bell_aspect",
            "the 1982 headline run: three large multi-chunk timelines on 2 threads; "
            "sort and chunk sampling dominate",
            ("bell", *aspect, "--form", "sprime", "--engine", "both",
             "--pairs", str(bell_pairs), "--workers", "2", "--format", "jsonl",
             "--output", "{out}"),
            (("out", "bell.jsonl"),), 3 * bell_pairs, 0, ("pairs",), _check_bell,
            "array_2threads"),
        Workload(
            "sweep_mc",
            "30 small single-chunk timelines on 1 worker plus the choice sampler at nu=0: "
            "per-call and estimator cost, no chunk parallelism",
            ("sweep", "--variable", "frequency_common", "--start", "0", "--stop", "100MHz",
             "--round-trip", "43ns", "--points", str(sweep_points),
             "--engines", "closed_form,monte_carlo", "--mc-pairs", str(sweep_pairs),
             "--output", "{csv}", "--plot", "{svg}"),
            (("csv", "sweep.csv"), ("svg", "sweep.svg")),
            sweep_points * 3 * sweep_pairs, sweep_points, ("pairs", "points"), _check_sweep_mc,
            "array"),
        Workload(
            "export_stream",
            "writes a JSONL event stream: per-record encoding in cli dominates, "
            "the engine is a small share",
            ("export-trials", *aspect, "--pairs", str(export_pairs), "--output", "{out}"),
            (("out", "trials.jsonl"),), export_pairs, 0, ("pairs", "records"), _check_export,
            "interpreter"),
        Workload(
            "sweep_closed",
            "unequal-weight closed-form sweep (mixture expansion, no Monte Carlo) "
            "with CSV and SVG output",
            ("sweep", "--variable", "distance_ratio", "--start", "0", "--stop", "100MHz",
             "--round-trip-a", "20ns", "--round-trip-b", "43ns",
             "--points", str(closed_points), "--output", "{csv}", "--plot", "{svg}"),
            (("csv", "sweep.csv"), ("svg", "sweep.svg")),
            0, closed_points, ("points",), _check_sweep_closed,
            "interpreter"),
    )
    return {w.name: w for w in items}


# sweep_mc and export_stream are sized so that a run times a dozen invocations
WORKLOADS = _workloads(bell_pairs=1_000_000, sweep_pairs=100_000,
                       export_pairs=100_000, closed_points=1201)
#: The same workloads at sizes for the benchmark's own smoke tests.
TINY_WORKLOADS = _workloads(bell_pairs=20_000, sweep_pairs=5_000,
                            export_pairs=300, closed_points=241)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Invokes one workload repeatedly and checks every invocation."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.files = {key: workdir / name for key, name in w.outputs}
        fields = {key: str(path) for key, path in self.files.items()}
        self.argv = [part.format(**fields) for part in w.argv] + ["--seed", str(seed)]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: tuple[dict, dict] | None = None

    def window(self, seconds: float, tracer=None) -> tuple[list[float], list[int], list[float]]:
        """Invoke until ``seconds`` have passed, timing the calibration kernel
        after each invocation; return timed walls, their indices and the
        kernel times around them (one more than walls: ``cals[i]`` runs just
        before ``walls[i]`` and ``cals[i + 1]`` just after)."""
        from bellsim import cli

        walls, indices, cals = [], [], []
        deadline = perf_counter() + seconds
        first = True
        while first or not walls or perf_counter() < deadline:
            index = self.attempted
            self.attempted += 1
            gc.collect()
            span = nullcontext()
            if tracer is not None:
                tracer.begin_invocation(index)
                span = tracer.span("cli.main")
            t0 = perf_counter()
            with span:
                rc = cli.main(self.argv)
            wall = perf_counter() - t0
            checked = perf_counter()
            counts = self._verify(rc)
            deadline += perf_counter() - checked  # checking is not part of the window
            if tracer is not None:
                if rc != 0:
                    tracer.counts["cli.failed"] += 1
                self._verify_traced(tracer.end_invocation(counts or {}))
            cals.append(calibrate(self.w.kernel))
            if not first:
                walls.append(wall)
                indices.append(index)
            first = False
        return walls, indices, cals

    def _fail(self, message: str) -> None:
        self.failed += 1
        if message not in self.errors:
            self.errors.append(message)
            print(f"bench: {self.w.name}: {message}", file=sys.stderr)

    def _verify(self, rc: int) -> dict | None:
        """Check one invocation's outputs; return its output counts."""
        if rc != 0:
            self._fail(f"bellsim exited {rc}")
            return None
        digests = {key: _digest(path) for key, path in self.files.items()}
        if self.reference is None:
            try:
                counts = self.w.check(self.w, self.files)
            except CheckFailed as exc:
                counts = None
                self._fail(str(exc))
            except (KeyError, TypeError, ValueError, OSError) as exc:
                # output in an unexpected format fails the check, not the harness
                counts = None
                self._fail(f"output check raised {exc!r}")
            if counts is not None:
                counts["cli.bytes_written"] = sum(p.stat().st_size for p in self.files.values())
            self.reference = (digests, counts)
            return counts
        ref_digests, ref_counts = self.reference
        if ref_counts is None:
            self._fail("output equals an invocation that failed its check")
        elif digests != ref_digests:
            self._fail("output bytes differ from the first invocation with the same seed")
            return None
        return ref_counts

    def _verify_traced(self, counts: dict) -> None:
        expected = {"montecarlo.pairs": self.w.pairs, "sweep.points": self.w.points}
        for key, want in expected.items():
            if counts.get(key) != want:
                self._fail(f"traced {key} = {counts.get(key)}, expected {want}")

    def cleanup(self) -> None:
        for path in self.files.values():
            path.unlink(missing_ok=True)


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds from a fresh interpreter to a built bellsim parser."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    # untimed warm-up: writes the bytecode cache a first user run also leaves
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def ref_wall(walls: list[float], cals: list[float], ref_s: float) -> float:
    """Median wall time per invocation at the reference machine speed, where
    the calibration kernel takes ``ref_s`` seconds.

    Each invocation is divided by the mean of the kernel times just before
    and just after it, so a change in machine speed that lasts longer than
    an invocation cancels out.
    """
    return ref_s * statistics.median(
        wall * 2.0 / (before + after) for wall, before, after in zip(walls, cals, cals[1:]))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, invocations: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "invocations": invocations,
    }


def _code_hash() -> str:
    h = hashlib.sha256(f"{sys.version}|{numpy.__version__}".encode())
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_counts(w: Workload, seed: int, counts: dict, workdir: Path) -> list[str]:
    """Record this run's exact counts; list any that differ from an earlier run
    of the same code, workload, sizes and seed in the same work directory."""
    key = hashlib.sha256(json.dumps([_code_hash(), w.argv, seed]).encode()).hexdigest()
    path = workdir / "counts.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        known = {}
    before = known.setdefault(key, {})
    diffs = [f"{name}: {before[name]!r} earlier, {value!r} now"
             for name, value in counts.items() if name in before and before[name] != value]
    before.update(counts)
    path.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    return diffs


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("cli.bytes_written", "montecarlo.trial_bytes_per_pair"):
        return "B"
    if name.endswith("_fraction"):
        return "fraction"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric ``--trace 1`` reports (BENCHMARK.json order)."""
    names = [f"{n}.self_s" for n in TIMED_SPANS] + [f"{n}.calls" for n in COUNTED_CALLS]
    names += ["montecarlo.pairs", "montecarlo.trial_bytes_per_pair",
              "montecarlo.useful_pair_fraction", "sweep.points",
              "cli.bytes_written", "cli.records"]
    names += [f"{layer}.failed" for layer in LAYERS]
    names.append("bench.trace_overhead_s")
    return names


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path = WORK) -> dict:
    """One benchmark run; returns the full report (``result`` is the contract line)."""
    rundir = workdir / w.name
    rundir.mkdir(parents=True, exist_ok=True)
    runner = Runner(w, seed, rundir)
    report = {"workload": w.name, "why": w.why, "argv": runner.argv,
              "trace": int(trace)}
    try:
        if not trace:
            setup_s = measure_setup()
            walls, _, cals = runner.window(seconds)
            wall_s = statistics.median(walls)
            cal_s = statistics.median(cals)
            metrics = {
                "wall_ref_s": ref_wall(walls, cals, KERNELS[w.kernel][1]),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            invocations = {"timed": len(walls)}
            report["wall_samples_s"] = walls
            report["calibration_samples_s"] = cals
        else:
            walls_u, _, cals = runner.window(seconds / 2.0)
            tracer = Tracer()
            with tracer.patched():
                walls_t, indices, _ = runner.window(seconds / 2.0, tracer)
            tracer.write(rundir / "spans.csv.gz")
            wall_s = statistics.median(walls_u)
            cal_s = statistics.median(cals)
            metrics, unsteady = tracer.layer_metrics(indices)
            for name in unsteady:
                runner.errors.append(f"exact count {name} differs between traced invocations")
            metrics["bench.trace_overhead_s"] = statistics.median(walls_t) - wall_s
            invocations = {"timed": len(walls_u), "traced": len(walls_t)}
            report["wall_samples_s"] = walls_u
            report["traced_wall_samples_s"] = walls_t
            report["calibration_samples_s"] = cals
    finally:
        runner.cleanup()

    output_counts = runner.reference[1] if runner.reference else None
    counts = {"montecarlo.pairs": w.pairs, "sweep.points": w.points, **(output_counts or {})}
    if trace:
        counts.update({k: v for k, v in metrics.items() if _layer_unit(k) != "s"
                       and not k.endswith(".failed")})
    for diff in compare_counts(w, seed, counts, workdir):
        runner.errors.append(f"exact count changed between runs: {diff}")
        print(f"bench: {w.name}: exact count changed between runs: {diff}", file=sys.stderr)

    if trace:
        names = per_layer_names()
    else:
        names = list(END_TO_END)
    # a run whose output check failed has no output counts; it reports 0 for them
    result_metrics = {n: {"value": metrics.get(n, 0), "unit": _layer_unit(n) if trace
                          else END_TO_END[n]} for n in names}
    rate_counts = {"pairs": w.pairs, "records": counts.get("cli.records", 0), "points": w.points}
    extra = {f"{r}_per_s": {"value": rate_counts[r] / wall_s, "unit": "1/s"} for r in w.rates}
    extra["error_rate"] = {"value": runner.failed / runner.attempted, "unit": "fraction"}
    extra["wall_s"] = {"value": wall_s, "unit": "s"}
    extra[f"calibration_{w.kernel}_s"] = {"value": cal_s, "unit": "s"}
    if trace:
        extra["wall_ref_s"] = {"value": ref_wall(walls_u, cals, KERNELS[w.kernel][1]),
                               "unit": "s"}
    report["metrics"] = {**result_metrics, **extra}
    report["counts"] = counts
    report["environment"] = environment(seed, invocations)
    report["errors"] = runner.errors
    report["result"] = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }
    return report


def _import_bellsim() -> None:
    """Import bellsim from this checkout's src/, never from an installed copy."""
    if not (SRC / "bellsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bellsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellsim

    if Path(bellsim.__file__).resolve().parent != SRC / "bellsim":
        raise SystemExit(f"bench: imported bellsim from {bellsim.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_bellsim()
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
