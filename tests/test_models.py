"""Closed-form model checks against independent quadrature and enumeration oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bellsim import (
    HvMixture,
    Model,
    UNIFORM_MIXTURE,
    ValidationError,
    coincidence_mixture,
    corr,
    corr_mclhv,
    corr_mixture,
    corr_qm,
    corr_sc,
    detect_prob,
    normalize_angle,
    texture_mixture,
)

HALF_PI = math.pi / 2

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def lhv_corr_quadrature(a, b, response_plus):
    """Four-outcome oracle: E = sum_{alpha,beta} alpha*beta * integral of the
    factorized outcome probabilities over a uniform hidden angle."""
    total = 0.0
    for alpha in (1, -1):
        for beta in (1, -1):
            def integrand(lam):
                pa = response_plus(a, lam)
                pb = response_plus(b, lam)
                pa = pa if alpha == 1 else 1.0 - pa
                pb = pb if beta == 1 else 1.0 - pb
                return pa * pb / math.pi
            val, _ = integrate.quad(integrand, -HALF_PI, HALF_PI, epsabs=1e-13, limit=200)
            total += alpha * beta * val
    return total


def malus_plus(setting, lam):
    return math.cos(setting - lam) ** 2


def sign_plus(setting, lam):
    # +1 with certainty when the sign response is positive
    return 1.0 if math.cos(2.0 * (setting - lam)) >= 0.0 else 0.0


class TestNormalizeAngle:
    def test_identity(self):
        assert normalize_angle(0.0) == 0.0

    def test_period_wrap(self):
        assert normalize_angle(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_three_quarters(self):
        assert normalize_angle(3 * math.pi / 4) == pytest.approx(-math.pi / 4, abs=1e-15)

    def test_lower_endpoint_maps_to_upper(self):
        assert normalize_angle(-HALF_PI) == HALF_PI

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError):
            normalize_angle(bad)

    @given(finite_angles)
    @settings(max_examples=300, deadline=None)
    def test_in_canonical_interval(self, theta):
        r = normalize_angle(theta)
        assert -HALF_PI < r <= HALF_PI

    @given(finite_angles)
    @settings(max_examples=300, deadline=None)
    def test_congruent_mod_pi(self, theta):
        r = normalize_angle(theta)
        # sin of the difference vanishes iff r = theta (mod pi)
        assert abs(math.sin(r - theta)) < 1e-9

    @given(st.floats(min_value=-HALF_PI, max_value=HALF_PI, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_canonical_angle_is_kept(self, theta):
        # the fold gives a canonical angle back bit for bit
        assert normalize_angle(theta) == theta

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_fold_is_idempotent(self, theta):
        r = normalize_angle(theta)
        assert normalize_angle(r) == r

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_pi_periodic(self, theta):
        assert normalize_angle(theta) == pytest.approx(
            normalize_angle(theta + math.pi), abs=1e-12
        )


class TestHvMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            HvMixture(((0.0, 0.6),), uniform_weight=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            HvMixture(((0.0, -0.5), (0.1, 1.5)))

    # each constructed: a nan total passed the sum check
    @pytest.mark.parametrize("atoms, uniform_weight", [
        (((0.0, math.nan),), 0.0),
        (((0.0, 0.5),), math.nan),
        (((0.0, math.nan), (0.1, 1.0)), 0.0),
    ])
    def test_nan_weight_rejected(self, atoms, uniform_weight):
        with pytest.raises(ValidationError, match="^mixture weights sum to nan, expected 1$"):
            HvMixture(atoms, uniform_weight)

    def test_atoms_stored_normalized(self):
        q = HvMixture(((math.pi, 0.5), (-HALF_PI, 0.5)))
        assert q.atoms[0][0] == pytest.approx(0.0, abs=1e-15)
        assert q.atoms[1][0] == HALF_PI

    def test_merged_combines_and_drops_zeros(self):
        q = HvMixture(((0.0, 0.25), (0.0, 0.25), (0.3, 0.5), (0.7, 0.0)))
        merged = q.merged()
        assert merged.atoms == ((0.0, 0.5), (0.3, 0.5))

    def test_marginal_probabilities_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            setting, lam = rng.uniform(-2, 2, size=2)
            p_plus = detect_prob(setting, lam)
            p_minus = math.sin(setting - lam) ** 2
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            # difference of outcome probabilities is the one-station response
            assert p_plus - p_minus == pytest.approx(
                math.cos(2 * (setting - lam)), abs=1e-12
            )


class TestTextureMixture:
    def test_two_station_mixture_has_four_quarter_atoms(self):
        q = texture_mixture([0.0, math.pi / 8])
        angles = [a for a, _ in q.atoms]
        weights = [w for _, w in q.atoms]
        assert weights == [0.25] * 4
        expected = [0.0, HALF_PI, math.pi / 8, normalize_angle(math.pi / 8 - HALF_PI)]
        assert angles == pytest.approx(expected, abs=1e-15)

    def test_single_station(self):
        q = texture_mixture([0.0])
        assert q.atoms == ((0.0, 0.5), (HALF_PI, 0.5))

    def test_coincident_settings_merge(self):
        q = texture_mixture([0.0, 0.0]).merged()
        assert q.atoms == ((0.0, 0.5), (HALF_PI, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            texture_mixture([0.0, 0.1], [1.0])

    def test_bad_weight_sum(self):
        with pytest.raises(ValidationError):
            texture_mixture([0.0, 0.1], [0.6, 0.6])

    def test_nan_weight_rejected(self):
        # constructed a mixture of nan weights: a nan total passed the sum check
        with pytest.raises(ValidationError, match="^station weights sum to nan, expected 1$"):
            texture_mixture([0.0, 1.0], [math.nan, 0.5])


class TestDetectProb:
    @pytest.mark.parametrize(
        "setting,lam,expected",
        [(0.0, 0.0, 1.0), (0.0, HALF_PI, 0.0), (0.0, math.pi / 8, math.cos(math.pi / 8) ** 2)],
    )
    def test_examples(self, setting, lam, expected):
        assert detect_prob(setting, lam) == pytest.approx(expected, abs=1e-12)


class TestClosedForms:
    def test_corr_qm_examples(self):
        assert corr_qm(0.0, 0.0) == 1.0
        assert corr_qm(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-15)
        assert corr_qm(0.0, math.pi / 8) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_corr_sc_examples(self):
        assert corr_sc(0.0, 0.0) == 0.5
        assert corr_sc(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-15)
        assert corr_sc(0.0, math.pi / 8) == pytest.approx(0.3535533905932738, abs=1e-12)

    def test_corr_sc_matches_quadrature_tightly(self):
        # four-outcome Malus quadrature, frozen example plus random pairs
        assert lhv_corr_quadrature(0.0, math.pi / 8, malus_plus) == pytest.approx(
            corr_sc(0.0, math.pi / 8), abs=1e-9
        )
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, size=2)
            assert lhv_corr_quadrature(a, b, malus_plus) == pytest.approx(
                corr_sc(a, b), abs=1e-9
            )

    def test_corr_mclhv_examples(self):
        assert corr_mclhv(0.0, 0.0) == 1.0
        assert corr_mclhv(0.0, HALF_PI) == pytest.approx(-1.0, abs=1e-12)
        assert corr_mclhv(0.0, math.pi / 8) == pytest.approx(0.5, abs=1e-12)
        assert corr_mclhv(0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_corr_mclhv_against_sign_grid(self):
        # brute-force sign-product integration on a dense grid
        lam = np.linspace(-HALF_PI, HALF_PI, 2_000_001)
        for a, b in [(0.0, math.pi / 8), (0.3, -0.9), (1.2, 0.4)]:
            s = np.sign(np.cos(2 * (a - lam))) * np.sign(np.cos(2 * (b - lam)))
            estimate = np.trapezoid(s, lam) / math.pi
            assert corr_mclhv(a, b) == pytest.approx(estimate, abs=1e-4)

    def test_corr_mixture_examples(self):
        # texture from the measured settings reproduces the quantum value
        q = texture_mixture([0.0, math.pi / 8])
        assert corr_mixture(0.0, math.pi / 8, q) == pytest.approx(
            math.cos(math.pi / 4), abs=1e-12
        )
        # pure uniform collapses to the semiclassical form
        assert corr_mixture(0.4, -0.2, UNIFORM_MIXTURE) == pytest.approx(
            corr_sc(0.4, -0.2), abs=1e-15
        )
        # texture from the alternate settings at the standard angles vanishes
        q_alt = texture_mixture([math.pi / 4, 3 * math.pi / 8])
        assert corr_mixture(0.0, math.pi / 8, q_alt) == pytest.approx(0.0, abs=1e-12)

    def test_corr_dispatch_examples(self):
        assert corr(Model.SEMI_CLASSICAL, 0.0, 0.0) == 0.5
        assert corr(Model.MAX_CLASSICAL_LHV, 0.0, math.pi / 4) == pytest.approx(0.0, abs=1e-12)


class TestModelInvariants:
    def test_texture_equals_quantum_on_random_grid(self):
        rng = np.random.default_rng(20250810)
        for _ in range(1000):
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            assert abs(corr(Model.TEXTURE, a, b) - corr(Model.QUANTUM, a, b)) <= 1e-12

    @pytest.mark.parametrize("model", list(Model))
    def test_pi_period_and_joint_rotation_and_symmetry(self, model):
        rng = np.random.default_rng(hash(model.value) % 2**32)
        for _ in range(200):
            a, b, theta = rng.uniform(-3, 3, size=3)
            base = corr(model, a, b)
            assert abs(corr(model, a + math.pi, b) - base) <= 1e-12
            assert abs(corr(model, a, b + math.pi) - base) <= 1e-12
            assert abs(corr(model, a + theta, b + theta) - base) <= 1e-12
            assert abs(corr(model, b, a) - base) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            a, b = rng.uniform(-4, 4, size=2)
            for model in Model:
                assert abs(corr(model, a, b)) <= 1.0 + 1e-12
            assert abs(corr_sc(a, b)) <= 0.5 + 1e-12

    def test_mixture_results_stay_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.uniform(-3, 3, size=2)
            settings = list(rng.uniform(-3, 3, size=3))
            w = rng.dirichlet([1.0, 1.0, 1.0])
            q = texture_mixture(settings, list(w))
            assert abs(corr_mixture(a, b, q)) <= 1.0 + 1e-12
            assert -1e-12 <= coincidence_mixture(a, b, q) <= 1.0 + 1e-12
