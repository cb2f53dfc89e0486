"""Span tracing of bellsim's layers from outside the package.

``Tracer.patched()`` replaces the public names that bellsim's callers look
up (``bellsim.cli.run_timeline``, ``bellsim.sweep.s_prime_mixture``,
``Trials.sorted_by_time``, ``LinePlot.write``, ...) with wrappers that record
a span per call, and puts every original back on exit.  No file of the
package is changed, and the wrappers only observe arguments and results, so
a traced invocation writes the same bytes as an untraced one.

A span is ``(invocation, span_id, parent_id, name, start, end, failed)``.
Spans stay in memory until ``write()``; ``layer_metrics()`` turns them into
per-invocation self times (a span's duration minus that of its children)
and exact counts.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import statistics
import threading
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from time import perf_counter

import numpy as np

#: Angle tolerance of bellsim's estimators when they group records by setting.
_ANGLE_ATOL = 1e-12

#: Span names whose self time is reported as ``<name>.self_s``.
TIMED_SPANS = (
    "cli.main",
    "units.parse",
    "models.mixture",
    "choice.closed_form",
    "montecarlo.run_timeline",
    "montecarlo.run_choice_trials",
    "montecarlo.concat",
    "montecarlo.sort",
    "montecarlo.estimate",
    "sweep.run_sweep",
    "output.write_table",
    "svgplot.write",
)

#: Layers whose boundary exceptions are counted as ``<layer>.failed``.
LAYERS = ("cli", "units", "models", "choice", "montecarlo", "sweep", "output", "svgplot")

#: Span names whose call count is reported as ``<name>.calls``.
COUNTED_CALLS = ("units.parse", "models.mixture", "choice.closed_form", "montecarlo.run_timeline")

_HOOK_SPAN = "bench.hooks"


def _count_trials(tracer: "Tracer", args, kwargs, trials) -> None:
    tracer.counts["montecarlo.pairs"] += len(trials)
    if not tracer.trial_bytes_per_pair:
        tracer.trial_bytes_per_pair = sum(
            getattr(trials, f.name).dtype.itemsize for f in fields(trials)
        )


def _used_s_prime(tracer: "Tracer", args, kwargs, result) -> None:
    trials, alice_only, bob_only, quad = args
    tracer.use_pairs(trials, len(trials))
    tracer.use_pairs(alice_only, int(np.count_nonzero(
        np.isclose(alice_only.a_m, quad.a_alt, rtol=0.0, atol=_ANGLE_ATOL))))
    tracer.use_pairs(bob_only, int(np.count_nonzero(
        np.isclose(bob_only.b_m, quad.b, rtol=0.0, atol=_ANGLE_ATOL))))


def _used_s_chsh(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.use_pairs(args[0], len(args[0]))


def _count_points(tracer: "Tracer", args, kwargs, series) -> None:
    tracer.counts["sweep.points"] += len(series.points)


# (module, class or None, attribute, span name, hook run after each call)
TARGETS = (
    ("bellsim.cli", None, "parse_angle_list", "units.parse", None),
    ("bellsim.cli", None, "parse_frequency", "units.parse", None),
    ("bellsim.cli", None, "parse_time", "units.parse", None),
    ("bellsim.choice", None, "texture_mixture", "models.mixture", None),
    ("bellsim.choice", None, "coincidence_mixture", "models.mixture", None),
    ("bellsim.choice", None, "corr_mixture", "models.mixture", None),
    ("bellsim.sweep", None, "s_prime_fc", "choice.closed_form", None),
    ("bellsim.sweep", None, "s_chsh_fc", "choice.closed_form", None),
    ("bellsim.sweep", None, "s_prime_mixture", "choice.closed_form", None),
    ("bellsim.sweep", None, "s_chsh_mixture", "choice.closed_form", None),
    ("bellsim.cli", None, "run_timeline", "montecarlo.run_timeline", _count_trials),
    ("bellsim.sweep", None, "run_timeline", "montecarlo.run_timeline", _count_trials),
    ("bellsim.cli", None, "run_choice_trials", "montecarlo.run_choice_trials", _count_trials),
    ("bellsim.sweep", None, "run_choice_trials", "montecarlo.run_choice_trials", _count_trials),
    ("bellsim.montecarlo", "Trials", "concat", "montecarlo.concat", None),
    ("bellsim.montecarlo", "Trials", "sorted_by_time", "montecarlo.sort", None),
    ("bellsim.cli", None, "estimate_s_prime", "montecarlo.estimate", _used_s_prime),
    ("bellsim.sweep", None, "estimate_s_prime", "montecarlo.estimate", _used_s_prime),
    ("bellsim.cli", None, "estimate_s_chsh", "montecarlo.estimate", _used_s_chsh),
    ("bellsim.sweep", None, "estimate_s_chsh", "montecarlo.estimate", _used_s_chsh),
    ("bellsim.cli", None, "run_sweep", "sweep.run_sweep", _count_points),
    ("bellsim.cli", None, "write_table", "output.write_table", None),
    ("bellsim.svgplot", "LinePlot", "write", "svgplot.write", None),
)


class Tracer:
    """Records spans and counts for the bellsim invocations of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.invocation = 0
        self.counts: Counter = Counter()
        self.trial_bytes_per_pair = 0
        self.per_invocation: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._used: dict[int, tuple] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, parent, span_id, name, perf_counter()

    def _close(self, token: tuple, failed: bool) -> None:
        end = perf_counter()
        stack, parent, span_id, name, start = token
        stack.pop()
        self.spans.append((self.invocation, span_id, parent, name, start, end, failed))
        if failed:
            self.counts[name.split(".", 1)[0] + ".failed"] += 1

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; nested spans become its children."""
        token = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(token, failed)

    def use_pairs(self, trials, n_used: int) -> None:
        """Count pairs of ``trials`` that entered an estimator group, once per object."""
        key = id(trials)
        ref, before = self._used.get(key, (None, 0))
        if ref is None or ref() is not trials:
            before = 0
        if n_used > before:
            self.counts["montecarlo.used_pairs"] += n_used - before
            before = n_used
        self._used[key] = (weakref.ref(trials), before)

    def _wrap(self, fn, name: str, hook):
        # span() without the generator: some targets run ~50k times an invocation
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(token, failed)
            if hook is not None:
                # a sibling span, so hook time is not charged to the caller
                with self.span(_HOOK_SPAN):
                    hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers on every target; restore the originals on exit."""
        saved = []
        try:
            for module_name, class_name, attr, name, hook in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, hook))
                    else:
                        new = self._wrap(raw, name, hook)
                else:
                    raw = getattr(owner, attr)
                    new = self._wrap(raw, name, hook)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def begin_invocation(self, index: int) -> None:
        self.invocation = index
        self.counts = Counter()
        self.trial_bytes_per_pair = 0
        self._used.clear()

    def end_invocation(self, extra: dict) -> dict:
        """Freeze the counts of the current invocation and return them."""
        pairs = self.counts["montecarlo.pairs"]
        counts = {
            "montecarlo.pairs": pairs,
            "montecarlo.trial_bytes_per_pair": self.trial_bytes_per_pair,
            "montecarlo.useful_pair_fraction": (
                self.counts["montecarlo.used_pairs"] / pairs if pairs else 0.0),
            "sweep.points": self.counts["sweep.points"],
        }
        counts.update(extra)
        counts.update({f"{layer}.failed": self.counts[f"{layer}.failed"] for layer in LAYERS})
        self.per_invocation[self.invocation] = counts
        self._used.clear()
        return counts

    def _per_span(self) -> tuple[dict, dict]:
        """Per invocation and span name: summed self time and call count."""
        child_time: dict[int, float] = defaultdict(float)
        for _inv, _sid, parent, _name, start, end, _failed in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        times: dict[int, Counter] = defaultdict(Counter)
        calls: dict[int, Counter] = defaultdict(Counter)
        for inv, sid, _parent, name, start, end, _failed in self.spans:
            times[inv][name] += (end - start) - child_time[sid]
            calls[inv][name] += 1
        return times, calls

    def layer_metrics(self, invocations: list[int]) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics over ``invocations``: the median of each self time,
        and each exact count, with the names of counts that differ between them."""
        times, calls = self._per_span()
        metrics: dict[str, float] = {}
        for name in TIMED_SPANS:
            metrics[f"{name}.self_s"] = statistics.median(times[i][name] for i in invocations)
        counts = {i: {**{f"{n}.calls": calls[i][n] for n in COUNTED_CALLS},
                      **self.per_invocation[i]} for i in invocations}
        first = counts[invocations[0]]
        unsteady = sorted({k for i in invocations for k in first if counts[i][k] != first[k]})
        metrics.update(first)
        return metrics, unsteady

    def write(self, path: Path) -> None:
        """Write every recorded span as a gzipped CSV row.

        A traced ``sweep_closed`` run records several hundred thousand spans,
        hence the compact format.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("invocation,span,parent,name,start,end,failed\n")
            for inv, sid, parent, name, start, end, failed in self.spans:
                fh.write(f"{inv},{sid},{'' if parent is None else parent},{name},"
                         f"{start!r},{end!r},{int(failed)}\n")
