"""Trial storage: settings as indices into a per-station table.

The export stream is checked byte for byte against an independent encoder
(one ``json.dumps`` per record of the angle views), and ``Trials.concat``
against the angles of the parts it merges.
"""

import json

import numpy as np
import pytest

from bellsim import STANDARD_QUAD, RngSpec, StationConfig, Trials, ValidationError, run_timeline
from bellsim.cli import main

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


def _fixed_alice_run(setting: float, stream: int) -> Trials:
    alice = StationConfig.fixed(setting, ROUND_TRIP)
    bob = StationConfig(STANDARD_QUAD.b, STANDARD_QUAD.b_alt, 48.4e6, 0.0, ROUND_TRIP)
    return run_timeline(alice, bob, 3_000, 1e-4, RngSpec(12, stream))


def test_concat_of_fixed_alice_runs_keeps_every_angle():
    parts = [_fixed_alice_run(STANDARD_QUAD.a, 0), _fixed_alice_run(STANDARD_QUAD.a_alt, 1)]
    merged = Trials.concat(parts)
    assert np.array_equal(merged.settings, [[STANDARD_QUAD.a, STANDARD_QUAD.a_alt],
                                            [STANDARD_QUAD.b, STANDARD_QUAD.b_alt]])
    for name in ("a_v", "b_v", "a_m", "b_m", "hidden_angle", "alpha", "emission_time"):
        want = np.concatenate([getattr(p, name) for p in parts])
        assert np.array_equal(getattr(merged, name), want), name


def test_concat_rejects_a_third_setting():
    parts = [_fixed_alice_run(s, k) for k, s in
             enumerate((STANDARD_QUAD.a, STANDARD_QUAD.a_alt, 0.3))]
    with pytest.raises(ValidationError, match="more than two settings"):
        Trials.concat(parts)
