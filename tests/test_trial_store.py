"""Trial storage: settings as indices into a per-station table.

The export stream is checked byte for byte against an independent encoder
(one ``json.dumps`` per record of the angle views), and ``Trials.concat``
against the angles of the parts it merges.
"""

import io
import json
import math

import numpy as np
import pytest

from bellsim import STANDARD_QUAD, RngSpec, StationConfig, Trials, ValidationError, run_timeline
from bellsim.cli import _write_trial_lines, main

ROUND_TRIP = 43e-9
QUAD_TEXT = ",".join(f"{v!r}rad" for v in (STANDARD_QUAD.a, STANDARD_QUAD.b,
                                          STANDARD_QUAD.a_alt, STANDARD_QUAD.b_alt))


def _reference_lines(trials: Trials) -> str:
    columns = (trials.emission_time, trials.hidden_angle, trials.a_v, trials.b_v,
               trials.a_m, trials.b_m, trials.alpha, trials.beta)
    lines = []
    for t, lam, a_v, b_v, a_m, b_m, alpha, beta in zip(*(c.tolist() for c in columns)):
        lines.append(json.dumps({
            "emission_time": t, "lambda": lam,
            "a_v": a_v, "b_v": b_v, "a_m": a_m, "b_m": b_m,
            "alpha": alpha, "beta": beta,
        }) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("emission", ["uniform", "grid", "poisson"])
def test_export_matches_independent_encoder(emission, tmp_path):
    pairs = 10_000  # more than two write blocks
    path = tmp_path / "trials.jsonl"
    assert main(["export-trials", "--quad", QUAD_TEXT, "--nu-a", "46.2MHz", "--nu-b", "48.4MHz",
                 "--round-trip", "43ns", "--pairs", str(pairs), "--emission", emission,
                 "--workers", "2", "--seed", "11", "--output", str(path)]) == 0
    alice = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 46.2e6, 0.0, ROUND_TRIP)
    bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, ROUND_TRIP)
    trials = run_timeline(alice, bob, pairs, 1e-3, RngSpec(11), emission=emission, workers=2)
    assert len(trials) > 2 * 4096
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert json.loads(header)["provenance"]["params"]["emission"] == emission
    assert body == _reference_lines(trials)


ALICE = StationConfig(STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 46.2e6, 0.0, ROUND_TRIP)
BOB = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, ROUND_TRIP)


def _written(trials: Trials) -> str:
    fh = io.StringIO()
    _write_trial_lines(fh, trials)
    return fh.getvalue()


@pytest.mark.parametrize("pairs", [1, 4095, 4096, 4097, 8192])
def test_writer_at_block_edges(pairs):
    # the writer formats whole 4096-record blocks; the last record ends the file
    trials = run_timeline(ALICE, BOB, pairs, 1e-3, RngSpec(13), workers=2)
    assert len(trials) == pairs
    assert _written(trials) == _reference_lines(trials)


@pytest.mark.parametrize("pbs", [(True, False), (False, True), (False, False)])
def test_writer_with_flat_hidden_angles(pbs):
    # without a polarizer the texture has a flat component: almost every
    # record has its own hidden angle, so almost every tail is distinct
    trials = run_timeline(ALICE, BOB, 5_000, 1e-3, RngSpec(14), pbs=pbs)
    assert len(np.unique(trials.hidden_angle)) > 1_000
    assert _written(trials) == _reference_lines(trials)


def test_poisson_stream_without_records_is_its_header(tmp_path):
    # one expected pair: seed 5 draws none
    path = tmp_path / "trials.jsonl"
    assert main(["export-trials", "--pairs", "1", "--emission", "poisson", "--seed", "5",
                 "--output", str(path)]) == 0
    header, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert json.loads(header)["provenance"]["params"]["emission"] == "poisson"
    assert body == ""
    trials = run_timeline(ALICE, BOB, 1, 1e-3, RngSpec(5), emission="poisson")
    assert len(trials) == 0 and _written(trials) == ""


def _stepped_alice_run(step: int, stream: int, alt: float = STANDARD_QUAD.a_alt) -> Trials:
    # a zero-frequency wave over (a, alt) holds a at phase 0 and alt at phase pi
    alice = StationConfig(STANDARD_QUAD.a, alt, 0.0, step * math.pi, ROUND_TRIP)
    bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, ROUND_TRIP)
    return run_timeline(alice, bob, 3_000, 1e-4, RngSpec(12, stream))


def test_concat_of_fixed_alice_runs_keeps_every_angle():
    parts = [_stepped_alice_run(0, 0), _stepped_alice_run(1, 1)]
    for part, setting in zip(parts, (STANDARD_QUAD.a, STANDARD_QUAD.a_alt)):
        assert np.all(part.a_v == setting) and np.all(part.a_m == setting)
    merged = Trials.concat(parts)
    assert np.array_equal(merged.settings, [[STANDARD_QUAD.a, STANDARD_QUAD.a_alt],
                                            [STANDARD_QUAD.b, STANDARD_QUAD.b_alt]])
    for name in ("a_v", "b_v", "a_m", "b_m", "hidden_angle", "alpha", "emission_time"):
        want = np.concatenate([getattr(p, name) for p in parts])
        assert np.array_equal(getattr(merged, name), want), name


def test_concat_rejects_a_third_setting():
    # a part on another settings table is not merged into one
    parts = [_stepped_alice_run(0, 0), _stepped_alice_run(1, 1), _stepped_alice_run(1, 2, 0.3)]
    with pytest.raises(ValidationError, match="different settings tables"):
        Trials.concat(parts)
