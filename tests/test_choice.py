"""Sync-fraction algebra and the in-sync / out-of-sync / unbalanced decomposition.

The closed forms are built from the per-station correlation ``corr_fc``; the
atom expansion (``q_fc`` with ``corr_mixture`` / ``coincidence_mixture``) and
quadrature are the independent oracles they are checked against.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellsim import (
    UNIFORM_MIXTURE,
    ChoiceQuad,
    Model,
    STANDARD_QUAD,
    StationConfig,
    ValidationError,
    bell_coefficients,
    coincidence_mixture,
    corr_fc,
    corr_mixture,
    corr_qm,
    corr_sc,
    mix_fractions,
    q_fc,
    s_chsh_fc,
    s_chsh_fixed,
    s_prime,
    s_prime_fc,
    s_prime_fc_closed,
    s_prime_fixed,
    sync_fraction,
    texture_mixture,
)
from bellsim.choice import s_chsh_mixture, s_prime_mixture

SQRT2 = math.sqrt(2)
ROUND_TRIP = 43e-9

#: Fully out of sync (the out-of-sync part E_os) and the two one-sided
#: extremes whose difference is the unbalanced part E_ub.
OUT_OF_SYNC = mix_fractions(0.0, 0.0)
ALICE_IN_SYNC = mix_fractions(1.0, 0.0)
BOB_IN_SYNC = mix_fractions(0.0, 1.0)


def random_quad(rng) -> ChoiceQuad:
    return ChoiceQuad(*rng.uniform(-math.pi, math.pi, size=4))


def n_fc(quad: ChoiceQuad, sf) -> float:
    """Both-click probability from the closed-form correlation."""
    return (1.0 + corr_fc(quad, sf)) / 4.0


def exact_sync_fraction(frequency: float, round_trip: float) -> Fraction:
    x = Fraction(round_trip) * Fraction(frequency)
    return 1 - 2 * abs(x - round(x))


class TestSyncFraction:
    def test_aspect_values(self):
        # exact square-wave values for the 1982 parameters
        assert sync_fraction(46.2e6, ROUND_TRIP) == pytest.approx(0.9732, abs=1e-4)
        assert sync_fraction(48.4e6, ROUND_TRIP) == pytest.approx(0.8376, abs=1e-4)

    def test_integer_fit_gives_one(self):
        for n in (1, 2, 3, 7):
            assert sync_fraction(n / ROUND_TRIP, ROUND_TRIP) == pytest.approx(1.0, abs=1e-9)

    def test_half_integer_fit_gives_zero(self):
        for n in (0, 1, 2, 5):
            assert sync_fraction((n + 0.5) / ROUND_TRIP, ROUND_TRIP) == pytest.approx(
                0.0, abs=1e-7
            )

    def test_no_switching_is_in_sync(self):
        assert sync_fraction(0.0, ROUND_TRIP) == 1.0

    def test_triangle_midpoint(self):
        assert sync_fraction(0.25 / ROUND_TRIP, ROUND_TRIP) == pytest.approx(0.5, abs=1e-9)

    def test_periodic_in_frequency(self):
        rng = np.random.default_rng(5)
        period = 1.0 / ROUND_TRIP
        for nu in rng.uniform(0, 100e6, size=50):
            for k in (1, 3):
                assert sync_fraction(nu, ROUND_TRIP) == pytest.approx(
                    sync_fraction(nu + k * period, ROUND_TRIP), abs=1e-9
                )

    def test_exact_near_the_nodes(self):
        # arccos(cos(.)) loses half the digits here (2e-9 off); the triangle does not
        for n in (1, 2, 3, 7):
            nu = (n + 1e-9) / ROUND_TRIP
            want = exact_sync_fraction(nu, ROUND_TRIP)
            assert abs(Fraction(sync_fraction(nu, ROUND_TRIP)) - want) <= 4e-15

    def test_bounds_and_errors(self):
        rng = np.random.default_rng(6)
        for nu in rng.uniform(0, 1e9, size=200):
            assert 0.0 <= sync_fraction(nu, ROUND_TRIP) <= 1.0
        with pytest.raises(ValidationError):
            sync_fraction(1e6, 0.0)
        with pytest.raises(ValidationError):
            sync_fraction(-1.0, ROUND_TRIP)

    def test_rejects_more_than_2_52_periods(self):
        # beyond 2**52 a float has no fractional part: f would read 1
        assert sync_fraction(2.0**52, 1.0) == 1.0
        for nu, rt in ((2.0**53, 1.0), (1e300, ROUND_TRIP), (1e300, 1e300),
                       (math.inf, ROUND_TRIP), (math.nan, ROUND_TRIP), (1e6, math.inf)):
            with pytest.raises(ValidationError, match=r"more than 2\*\*52"):
                sync_fraction(nu, rt)


class TestMixFractions:
    def test_aspect_reported_chain(self):
        sf = mix_fractions(0.97, 0.83)
        assert sf.f == pytest.approx(0.90, abs=1e-12)
        assert sf.f_prime == pytest.approx(0.07, abs=1e-12)

    def test_endpoints(self):
        assert mix_fractions(1.0, 1.0).f == 1.0
        assert mix_fractions(1.0, 1.0).f_prime == 0.0
        sf = mix_fractions(0.5, 0.5)
        assert (sf.f, sf.f_prime) == (0.5, 0.0)

    def test_construction_rule_exact(self):
        rng = np.random.default_rng(8)
        for fa, fb in rng.random((100, 2)):
            sf = mix_fractions(fa, fb)
            assert sf.f == (fa + fb) / 2
            assert sf.f_prime == (fa - fb) / 2

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            mix_fractions(1.2, 0.5)
        with pytest.raises(ValidationError):
            mix_fractions(0.5, -0.1)


class TestStationConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            StationConfig(0.0, 0.1, switch_frequency=-1.0)
        with pytest.raises(ValidationError):
            StationConfig(0.0, 0.1, round_trip_time=0.0)
        with pytest.raises(ValidationError):
            StationConfig(0.0, 0.1, switching="sometimes")

    # a nan one left the station's indices all 0 on the timeline
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["switch_frequency", "switch_phase", "round_trip_time"])
    def test_non_finite_timing_is_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
            StationConfig(0.0, 0.1, **{name: value})

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.1])
    def test_sync_probability_outside_the_unit_interval(self, p):
        with pytest.raises(ValidationError, match="sync_probability"):
            StationConfig(0.0, 0.1, switching="random", sync_probability=p)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_periodic_station_keeps_the_default_sync_probability(self, p):
        with pytest.raises(ValidationError, match="random switching only"):
            StationConfig(0.0, 0.1, 46.2e6, sync_probability=p)

    def test_sync_fraction_modes(self):
        fixed = StationConfig.fixed(0.2)
        assert fixed.sync_fraction() == 1.0
        random = StationConfig.random_choice(0.0, math.pi / 4)
        assert random.sync_fraction() == 0.5
        biased = StationConfig(0.0, math.pi / 4, switching="random", sync_probability=0.3)
        assert biased.sync_fraction() == 0.3
        periodic = StationConfig(0.0, math.pi / 4, 46.2e6)
        assert periodic.sync_fraction() == pytest.approx(0.9732, abs=1e-4)


class TestQfc:
    def test_full_sync_collapses_to_measured_mixture(self):
        sf = mix_fractions(1.0, 1.0)
        got = q_fc(STANDARD_QUAD, sf).merged()
        want = texture_mixture([STANDARD_QUAD.a, STANDARD_QUAD.b]).merged()
        assert got.atoms == want.atoms

    def test_zero_sync_collapses_to_alternate_mixture(self):
        sf = mix_fractions(0.0, 0.0)
        got = q_fc(STANDARD_QUAD, sf).merged()
        want = texture_mixture([STANDARD_QUAD.a_alt, STANDARD_QUAD.b_alt]).merged()
        assert got.atoms == want.atoms

    def test_sixteen_atoms_and_closed_form_value(self):
        sf = mix_fractions(0.97, 0.83)
        q = q_fc(STANDARD_QUAD, sf)
        assert len(q.atoms) == 16
        value = corr_mixture(STANDARD_QUAD.a, STANDARD_QUAD.b, q)
        # f = 0.90, out-of-sync and unbalanced parts vanish at these angles
        assert value == pytest.approx(0.9 * SQRT2 / 2, abs=1e-12)
        assert value == pytest.approx(corr_fc(STANDARD_QUAD, sf), abs=1e-12)


class TestDecomposition:
    def test_corr_os_examples(self):
        # fully out of sync: the texture comes from the alternate settings
        in_sync_quad = ChoiceQuad(0.3, -0.2, 0.3, -0.2)
        assert corr_fc(in_sync_quad, OUT_OF_SYNC) == pytest.approx(
            corr_qm(0.3, -0.2), abs=1e-12
        )
        assert corr_fc(STANDARD_QUAD, OUT_OF_SYNC) == pytest.approx(0.0, abs=1e-12)
        qd = ChoiceQuad(0.0, 0.0, math.pi / 4, math.pi / 4)
        assert corr_fc(qd, OUT_OF_SYNC) == pytest.approx(0.0, abs=1e-12)

    def test_corr_os_equals_alternate_mixture(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            qd = random_quad(rng)
            direct = corr_fc(qd, OUT_OF_SYNC)
            via_atoms = corr_mixture(qd.a, qd.b, texture_mixture([qd.a_alt, qd.b_alt]))
            assert abs(direct - via_atoms) <= 1e-12

    def test_corr_ub_examples(self):
        # E_ub = E(f_A=1, f_B=0) - E(f_A=0, f_B=1)
        def e_ub(qd):
            return corr_fc(qd, ALICE_IN_SYNC) - corr_fc(qd, BOB_IN_SYNC)

        assert e_ub(STANDARD_QUAD) == pytest.approx(0.0, abs=1e-12)
        assert e_ub(ChoiceQuad(0.1, 0.7, 0.1, 0.7)) == pytest.approx(0.0, abs=1e-12)
        assert e_ub(ChoiceQuad(0.0, 0.0, math.pi / 8, 0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_corr_ub_equals_mixture_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            qd = random_quad(rng)
            direct = corr_fc(qd, ALICE_IN_SYNC) - corr_fc(qd, BOB_IN_SYNC)
            diff = corr_mixture(
                qd.a, qd.b, texture_mixture([qd.a, qd.b_alt])
            ) - corr_mixture(qd.a, qd.b, texture_mixture([qd.a_alt, qd.b]))
            assert abs(direct - diff) <= 1e-12

    def test_corr_fc_endpoints_and_random_choice(self):
        qd = ChoiceQuad(0.1, 0.9, -0.4, 1.2)
        assert corr_fc(qd, mix_fractions(1.0, 1.0)) == pytest.approx(
            corr_qm(qd.a, qd.b), abs=1e-12
        )
        half = corr_fc(qd, mix_fractions(0.5, 0.5))
        out_of_sync = corr_mixture(qd.a, qd.b, texture_mixture([qd.a_alt, qd.b_alt]))
        assert half == pytest.approx(0.5 * (corr_qm(qd.a, qd.b) + out_of_sync), abs=1e-12)

    def test_corr_fc_matches_mixture_expansion(self):
        rng = np.random.default_rng(20250810)
        for _ in range(1000):
            qd = random_quad(rng)
            sf = mix_fractions(rng.random(), rng.random())
            lhs = corr_fc(qd, sf)
            rhs = corr_mixture(qd.a, qd.b, q_fc(qd, sf))
            assert abs(lhs - rhs) <= 1e-12

    def test_station_weights_are_validated(self):
        sf = mix_fractions(0.9, 0.8)
        for bad in ((0.6, 0.6), (-0.1, 1.1)):
            with pytest.raises(ValidationError):
                corr_fc(STANDARD_QUAD, sf, bad)


angles = st.floats(-math.pi, math.pi, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.tuples(angles, angles, angles, angles), unit, unit, unit)
def test_closed_forms_match_atom_expansion_for_any_weights(angles4, f_a, f_b, w_a):
    """Per Bell term: E, n = (1+E)/4, S and S' against the 16-atom mixtures."""
    quad = ChoiceQuad(*angles4)
    sf = mix_fractions(f_a, f_b)
    weights = (w_a, 1.0 - w_a)
    for term, _ in quad.bell_terms():
        q = q_fc(term, sf, weights)
        e = corr_fc(term, sf, weights)
        assert abs(e - corr_mixture(term.a, term.b, q)) <= 1e-12
        assert abs((1.0 + e) / 4.0 - coincidence_mixture(term.a, term.b, q)) <= 1e-12
    assert abs(s_chsh_fc(quad, sf, weights) - s_chsh_mixture(quad, sf, weights)) <= 1e-12
    assert abs(s_prime_fc(quad, sf, weights) - s_prime_mixture(quad, sf, weights)) <= 1e-12


class TestChsh:
    def test_fixed_model_values_at_standard_angles(self):
        assert s_chsh_fixed(Model.QUANTUM, STANDARD_QUAD) == pytest.approx(2 * SQRT2, abs=1e-12)
        assert s_chsh_fixed(Model.SEMI_CLASSICAL, STANDARD_QUAD) == pytest.approx(SQRT2, abs=1e-12)
        assert s_chsh_fixed(Model.MAX_CLASSICAL_LHV, STANDARD_QUAD) == pytest.approx(2.0, abs=1e-12)

    def test_linear_in_f_with_slope_2sqrt2(self):
        for f in np.linspace(0, 1, 21):
            sf = mix_fractions(f, f)
            assert s_chsh_fc(STANDARD_QUAD, sf) == pytest.approx(2 * SQRT2 * f, abs=1e-12)

    def test_independent_of_f_prime_at_standard_angles(self):
        for d in (0.0, 0.05, 0.2):
            sf = mix_fractions(0.7 + d, 0.7 - d)
            assert s_chsh_fc(STANDARD_QUAD, sf) == pytest.approx(2 * SQRT2 * 0.7, abs=1e-12)

    def test_lhv_bound_over_random_quads(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            qd = random_quad(rng)
            assert s_chsh_fixed(Model.SEMI_CLASSICAL, qd) <= 2.0 + 1e-12
            assert s_chsh_fixed(Model.MAX_CLASSICAL_LHV, qd) <= 2.0 + 1e-12

    def test_weighted_mixture_form_agrees_at_equal_weights(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            qd = random_quad(rng)
            sf = mix_fractions(rng.random(), rng.random())
            assert s_chsh_mixture(qd, sf) == pytest.approx(s_chsh_fc(qd, sf), abs=1e-12)


class TestSinglesChannel:
    """Both-click probabilities n = (1 + E)/4 against Malus's law."""

    def test_n_examples(self):
        assert (1.0 + corr_qm(0.0, 0.0)) / 4.0 == 0.5
        assert (1.0 + corr_sc(0.0, math.pi / 8)) / 4.0 == pytest.approx(
            (2 + SQRT2 / 2) / 8, abs=1e-12
        )
        assert n_fc(STANDARD_QUAD, OUT_OF_SYNC) == pytest.approx(0.25, abs=1e-12)
        in_sync = math.cos(math.pi / 8) ** 2 / 2
        assert n_fc(STANDARD_QUAD, mix_fractions(0.9, 0.9)) == pytest.approx(
            0.9 * in_sync + 0.1 * 0.25, abs=1e-12
        )

    def test_n_sc_against_malus_quadrature(self):
        from scipy import integrate

        def oracle(a, b):
            val, _ = integrate.quad(
                lambda lam: math.cos(a - lam) ** 2 * math.cos(b - lam) ** 2 / math.pi,
                -math.pi / 2,
                math.pi / 2,
                epsabs=1e-13,
            )
            return val

        rng = np.random.default_rng(13)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, size=2)
            assert (1.0 + corr_sc(a, b)) / 4.0 == pytest.approx(oracle(a, b), abs=1e-9)
            assert coincidence_mixture(a, b, UNIFORM_MIXTURE) == pytest.approx(
                oracle(a, b), abs=1e-9
            )

    def test_n_fc_matches_coincidence_mixture(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            qd = random_quad(rng)
            sf = mix_fractions(rng.random(), rng.random())
            lhs = n_fc(qd, sf)
            rhs = coincidence_mixture(qd.a, qd.b, q_fc(qd, sf))
            assert abs(lhs - rhs) <= 1e-12

    def test_n_ub_matches_mixture_difference(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            qd = random_quad(rng)
            direct = n_fc(qd, ALICE_IN_SYNC) - n_fc(qd, BOB_IN_SYNC)
            diff = coincidence_mixture(
                qd.a, qd.b, texture_mixture([qd.a, qd.b_alt])
            ) - coincidence_mixture(qd.a, qd.b, texture_mixture([qd.a_alt, qd.b]))
            assert abs(direct - diff) <= 1e-12

    def test_dispatcher(self):
        # S' of the fixed models against their both-click mixtures
        qd = ChoiceQuad(0.1, 0.5, -0.7, 1.1)
        mixtures = {
            Model.SEMI_CLASSICAL: lambda a, b: UNIFORM_MIXTURE,
            Model.TEXTURE: lambda a, b: texture_mixture([a, b]),
        }
        for model, mixture in mixtures.items():
            n_values = tuple(
                coincidence_mixture(t.a, t.b, mixture(t.a, t.b)) for t, _ in qd.bell_terms()
            )
            assert s_prime_fixed(model, qd) == pytest.approx(s_prime(n_values), abs=1e-12)
        assert s_prime_fixed(Model.QUANTUM, qd) == pytest.approx(
            s_prime_fixed(Model.TEXTURE, qd), abs=1e-12
        )
        with pytest.raises(ValidationError):
            s_prime_fixed(Model.MAX_CLASSICAL_LHV, qd)


class TestBellCoefficients:
    def test_standard_quad_is_zero_sqrt2_sqrt2(self):
        # S_signed = sqrt(2) (f_A + f_B) = 2 sqrt(2) f at the standard quad
        c0, c_alice, c_bob = bell_coefficients(STANDARD_QUAD)
        assert abs(c0) <= 1e-15
        assert abs(c_alice - SQRT2) <= 1e-15
        assert abs(c_bob - SQRT2) <= 1e-15


class TestSPrime:
    def test_quantum_and_semiclassical_values(self):
        assert s_prime_fixed(Model.QUANTUM, STANDARD_QUAD) == pytest.approx(
            0.20710678118654746, abs=1e-12
        )
        assert s_prime_fixed(Model.SEMI_CLASSICAL, STANDARD_QUAD) == pytest.approx(
            -0.14644660940672627, abs=1e-12
        )

    def test_closed_form_in_f(self):
        assert s_prime_fc_closed(1.0) == pytest.approx(0.20710678118654746, abs=1e-12)
        assert s_prime_fc_closed(0.0) == -0.5
        assert s_prime_fc_closed(0.90) == pytest.approx(0.13639610306789274, abs=1e-12)

    def test_closed_form_matches_assembly_on_f_grid(self):
        for f in np.linspace(0, 1, 101):
            sf = mix_fractions(f, f)
            assert abs(s_prime_fc(STANDARD_QUAD, sf) - s_prime_fc_closed(f)) <= 1e-12

    def test_assembly_handles_unbalanced_fractions(self):
        # S' at the standard angles depends only on f, not on f'
        sf = mix_fractions(0.97, 0.83)
        assert s_prime_fc(STANDARD_QUAD, sf) == pytest.approx(
            s_prime_fc_closed(0.90), abs=1e-12
        )

    def test_semiclassical_stays_in_lhv_band(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            qd = random_quad(rng)
            value = s_prime_fixed(Model.SEMI_CLASSICAL, qd)
            assert -1.0 - 1e-12 <= value <= 0.0 + 1e-12

    def test_probability_validation(self):
        with pytest.raises(ValidationError):
            s_prime((1.2, 0.2, 0.2, 0.2))

    def test_weighted_mixture_form_agrees_at_equal_weights(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            qd = random_quad(rng)
            sf = mix_fractions(rng.random(), rng.random())
            assert s_prime_mixture(qd, sf) == pytest.approx(s_prime_fc(qd, sf), abs=1e-12)
