"""Tests of the benchmark harness itself.

They live outside the package's ``testpaths``, so the package suite does not
run them.  Run them with:

    python -m pytest -q benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench
import spans

bench._import_bellsim()

BENCHMARK_JSON = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bellsim_namespace() -> dict:
    """Every attribute of every bellsim module and of the classes they define."""
    import bellsim

    snapshot = {}
    modules = [bellsim] + [m for name, m in sys.modules.items() if name.startswith("bellsim.")]
    for module in modules:
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    snapshot[(module.__name__, name, attr)] = raw
    return snapshot


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(bench.TINY_WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    report = bench.run(bench.TINY_WORKLOADS[name], seed=11, seconds=0.1, trace=trace,
                       workdir=tmp_path)
    result = report["result"]
    assert report["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK_JSON[section]}
    assert report["metrics"]["error_rate"]["value"] == 0.0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in BENCHMARK_JSON["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in BENCHMARK_JSON["per_layer"]] == bench.per_layer_names()
    assert BENCHMARK_JSON["command"] == ["python3", "benchmarks/bench.py"]


def test_ref_wall_cancels_a_change_in_machine_speed():
    walls, cals = [0.5, 0.6, 0.4], [0.02, 0.03, 0.02, 0.02]
    base = bench.ref_wall(walls, cals, 0.03)
    assert base == pytest.approx(0.03 * 0.5 / 0.025)
    # the machine runs 1.4x slower throughout the run: invocations and kernels alike
    assert bench.ref_wall([w * 1.4 for w in walls], [c * 1.4 for c in cals], 0.03) == \
        pytest.approx(base)
    # bellsim itself gets 2x faster
    assert bench.ref_wall([w / 2 for w in walls], cals, 0.03) == pytest.approx(base / 2)


def test_traced_run_leaves_nothing_patched(tmp_path):
    before = _bellsim_namespace()
    bench.run(bench.TINY_WORKLOADS["sweep_mc"], seed=2, seconds=0.1, trace=True,
              workdir=tmp_path)
    after = _bellsim_namespace()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_patched_restores_originals_when_the_body_raises():
    before = _bellsim_namespace()
    with pytest.raises(RuntimeError):
        with spans.Tracer().patched():
            assert _bellsim_namespace() != before
            raise RuntimeError("boom")
    after = _bellsim_namespace()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [
        (1, 1, None, "cli.main", 0.0, 10.0, False),
        (1, 2, 1, "montecarlo.run_timeline", 1.0, 7.0, False),
        (1, 3, 2, "montecarlo.sort", 4.0, 6.5, False),
        (1, 4, 1, "output.write_table", 8.0, 9.0, False),
    ]
    tracer.per_invocation = {1: {}}
    metrics, unsteady = tracer.layer_metrics([1])
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["montecarlo.run_timeline.self_s"] == pytest.approx(3.5)
    assert metrics["montecarlo.sort.self_s"] == pytest.approx(2.5)
    assert metrics["montecarlo.run_timeline.calls"] == 1
    assert unsteady == []


def test_wrapper_counts_failures_at_the_boundary():
    tracer = spans.Tracer()

    def broken():
        raise ValueError("bad")

    wrapped = tracer._wrap(broken, "units.parse", None)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.counts["units.failed"] == 1
    assert tracer.spans[0][3] == "units.parse" and tracer.spans[0][6] is True


class _Trials:
    pass


def test_useful_pairs_count_each_trials_object_once():
    tracer = spans.Tracer()
    trials = _Trials()
    tracer.use_pairs(trials, 10)
    tracer.use_pairs(trials, 10)
    tracer.use_pairs(trials, 4)
    tracer.use_pairs(_Trials(), 5)
    assert tracer.counts["montecarlo.used_pairs"] == 15


def test_failed_output_check_is_counted(tmp_path):
    w = bench.TINY_WORKLOADS["bell_aspect"]
    wrong = dataclasses.replace(w, pairs=w.pairs + 3)
    report = bench.run(wrong, seed=1, seconds=0.1, trace=False, workdir=tmp_path)
    result = report["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert report["metrics"]["error_rate"]["value"] == 1.0


def test_output_in_an_unexpected_format_fails_the_check(tmp_path):
    def check(w, files):
        return {}["mc_value"]

    w = dataclasses.replace(bench.TINY_WORKLOADS["sweep_closed"], check=check)
    report = bench.run(w, seed=1, seconds=0.1, trace=True, workdir=tmp_path)
    assert report["result"]["correct"] is False
    assert report["result"]["failed"] == report["result"]["attempted"]


def test_changed_counts_between_runs_are_reported(tmp_path):
    w = bench.TINY_WORKLOADS["sweep_closed"]
    assert bench.compare_counts(w, 3, {"cli.records": 241}, tmp_path) == []
    assert bench.compare_counts(w, 3, {"cli.records": 241}, tmp_path) == []
    assert bench.compare_counts(w, 4, {"cli.records": 7}, tmp_path) == []
    assert len(bench.compare_counts(w, 3, {"cli.records": 240}, tmp_path)) == 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "sweep_closed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
