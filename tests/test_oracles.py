import math

import numpy as np
import pytest

from extspec import (
    Arma11Spec,
    DegenerateDataError,
    LinearFilter,
    ParameterError,
    TailIndexSpec,
    UnsupportedCaseError,
    arma11_extremogram_curve,
    arma11_filter,
    arma11_spectral_oracle,
    extremogram_linear,
    series_lag_for_accuracy,
    StudentT,
    spectral_from_extremogram,
)

T3 = TailIndexSpec(alpha=3, upper_share=0.5)


class TestFilter:
    def test_standard_coefficients(self):
        f = arma11_filter(0.8, 0.1)
        assert np.allclose(f.coeffs[:5], [1.0, 0.9, 0.72, 0.576, 0.4608], atol=1e-15)
        assert f.tail_ratio == 0.8

    def test_cancellation_gives_identity_filter(self):
        f = arma11_filter(0.5, -0.5)
        assert np.allclose(f.coeffs[:5], [1.0, 0.0, 0.0, 0.0, 0.0], atol=0)

    def test_sign_alternation(self):
        f = arma11_filter(-0.5, 0.2)
        assert np.allclose(f.coeffs[:4], [1.0, -0.3, 0.15, -0.075], atol=1e-15)

    def test_invalid_phi(self):
        # every ARMA(1,1) entry point checks the same domain: 0 < |phi| < 1, finite theta
        entry_points = [
            lambda phi, theta: Arma11Spec(phi=phi, theta=theta, noise=StudentT(3)),
            arma11_filter,
            lambda phi, theta: arma11_spectral_oracle(phi, theta, T3),
            lambda phi, theta: arma11_extremogram_curve(phi, theta, T3, 5),
            lambda phi, theta: series_lag_for_accuracy(phi, T3.alpha),
        ]
        for call in entry_points:
            for phi in (0.0, 1.0, -1.2, math.nan):
                with pytest.raises(ParameterError, match=r"0 < \|phi\| < 1"):
                    call(phi, 0.1)
        for call in entry_points[:-1]:  # series_lag_for_accuracy takes no theta
            for theta in (math.nan, math.inf):
                with pytest.raises(ParameterError, match="finite theta"):
                    call(0.8, theta)

    def test_materialize_meets_tail_mass_target(self):
        f = arma11_filter(0.9, 0.3)
        for eps in (1e-6, 1e-12):
            psi = f.materialize(T3, eps)
            kept = np.sum(np.abs(psi) ** T3.alpha)
            ratio = 0.9**T3.alpha
            ignored = abs(psi[-1]) ** T3.alpha * ratio / (1 - ratio)
            assert ignored < eps * kept


class TestLinearExtremogram:
    def test_ma1_hand_value(self):
        filt = LinearFilter(coeffs=np.array([1.0, 0.5]))
        tail = TailIndexSpec(alpha=1, upper_share=1.0)
        ex = extremogram_linear(filt, tail, 4)
        assert ex.rho[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert np.all(ex.rho[2:] == 0.0)

    def test_identity_filter_is_independent(self):
        ex = extremogram_linear(LinearFilter(coeffs=np.array([1.0])), T3, 5)
        assert ex.rho[0] == 1.0
        assert np.all(ex.rho[1:] == 0.0)

    def test_matches_closed_form_lag_one(self):
        ex = extremogram_linear(arma11_filter(0.8, 0.1), T3, 1)
        assert ex.rho[1] == pytest.approx(0.5990139687756779, abs=1e-12)

    @pytest.mark.parametrize("phi, theta", [(0.8, 0.1), (0.8, -1.2), (-0.6, 0.9), (-0.6, 0.1)])
    def test_tail_masses_outlive_coefficient_underflow(self, phi, theta):
        # at alpha = 0.02 the series reaches lags where phi**j underflows to 0
        # (j ~ 3,340 for phi = 0.8, 1,456 for -0.6) but |psi_j|**alpha is ~3e-7
        tail = TailIndexSpec(alpha=0.02, upper_share=0.5)
        depth = series_lag_for_accuracy(phi, tail.alpha, 1e-12)
        assert arma11_filter(phi, theta).materialize(tail)[-1] == 0.0
        brute = extremogram_linear(arma11_filter(phi, theta), tail, depth)
        closed = arma11_extremogram_curve(phi, theta, tail, depth)
        assert np.max(np.abs(brute.rho - closed.rho)) <= 1e-12

    def test_zero_mass_rejected(self):
        filt = LinearFilter(coeffs=np.array([-1.0, -0.5]))
        tail = TailIndexSpec(alpha=2, upper_share=1.0)  # only upper mass, all-negative filter
        with pytest.raises(DegenerateDataError):
            extremogram_linear(filt, tail, 3)


class TestSeriesSpectralDensity:
    def test_independent_is_flat(self):
        oracle = spectral_from_extremogram(np.array([1.0, 0.0, 0.0]))
        lams = np.linspace(0.1, 3.0, 7)
        assert np.allclose(oracle.evaluate(lams), 1.0, atol=0)

    def test_ma1_one_term_series(self):
        oracle = spectral_from_extremogram(np.array([1.0, 1.0 / 3.0]))
        lams = np.array([0.3, 1.2, 2.9])
        assert np.max(np.abs(oracle.evaluate(lams) - (1 + (2.0 / 3.0) * np.cos(lams)))) < 1e-14

    def test_domain_validation(self):
        oracle = spectral_from_extremogram(np.array([1.0, 0.2]))
        with pytest.raises(ParameterError):
            oracle.evaluate([3.2])

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            arma11_spectral_oracle(0.8, 0.1, T3).evaluate([])


class TestClosedFormExtremogram:
    def test_lag_zero_and_degenerate(self):
        assert arma11_extremogram_curve(0.8, 0.1, T3, 0).rho.tolist() == [1.0]
        assert arma11_extremogram_curve(0.5, -0.5, T3, 3).rho.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_threshold_lag_enumeration(self):
        # 0.9**3 * 1.4 > 1 >= 0.9**4 * 1.4: the piecewise form switches
        # branch after lag 4, where the decay turns exactly geometric
        tail = TailIndexSpec(alpha=1, upper_share=0.5)
        assert 0.9**3 * 1.4 > 1.0 >= 0.9**4 * 1.4
        rho = arma11_extremogram_curve(0.9, 0.5, tail, 7).rho[1:]
        brute = extremogram_linear(arma11_filter(0.9, 0.5), tail, 7)
        assert np.allclose(rho, brute.rho[1:], atol=1e-12)
        c1, c2 = 0.1 / 1.5, 1.4 / 1.5
        assert rho[3] == pytest.approx(c1 + 0.9**4 * c2, abs=1e-14)  # last plateau lag
        assert rho[4] == pytest.approx(0.9**4 * c2, abs=1e-14)  # first geometric lag
        assert rho[6] / rho[5] == pytest.approx(0.9, abs=1e-12)

    def test_odd_lags_vanish_when_both_signs_negative(self):
        tail = TailIndexSpec(alpha=2.5, upper_share=0.7)
        rho = arma11_extremogram_curve(-0.6, -0.2, tail, 7).rho
        assert np.all(rho[1::2] == 0.0)
        assert rho[2] > 0.0

    def test_agrees_with_brute_force_all_cases(self):
        rng = np.random.default_rng(404)
        cases = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for sphi, ssum in cases:
            for _ in range(5):
                phi = sphi * float(rng.uniform(0.2, 0.9))
                total = ssum * float(rng.uniform(0.1, 1.6))
                theta = total - phi
                tail = TailIndexSpec(
                    alpha=float(rng.uniform(0.6, 4.0)),
                    upper_share=float(rng.uniform(0.05, 0.95)),
                )
                brute = extremogram_linear(arma11_filter(phi, theta), tail, 12)
                closed = arma11_extremogram_curve(phi, theta, tail, 12)
                assert np.max(np.abs(brute.rho - closed.rho)) < 1e-10

    def test_values_in_unit_interval_and_geometric_decay(self):
        tail = TailIndexSpec(alpha=2, upper_share=0.4)
        rho = arma11_extremogram_curve(0.7, 0.4, tail, 30).rho
        assert np.all((rho >= 0) & (rho <= 1))
        ratio = 0.7**tail.alpha
        tail_part = rho[10:30]
        assert np.allclose(tail_part[1:] / tail_part[:-1], ratio, atol=1e-10)

    def test_even_lag_ratio_for_negative_phi(self):
        tail = TailIndexSpec(alpha=1.5, upper_share=0.6)
        rho = arma11_extremogram_curve(-0.7, 0.9, tail, 40).rho
        even = rho[2:40:2]
        assert np.allclose(even[1:] / even[:-1], 0.7 ** (2 * 1.5), atol=1e-10)

    def test_unsupported_balance(self):
        with pytest.raises(UnsupportedCaseError):
            arma11_extremogram_curve(0.8, 0.1, TailIndexSpec(3, 0.0), 1)
        with pytest.raises(UnsupportedCaseError):
            arma11_extremogram_curve(0.8, -0.9, TailIndexSpec(3, 1.0), 1)
        with pytest.raises(UnsupportedCaseError):
            arma11_extremogram_curve(-0.8, 0.1, TailIndexSpec(3, 0.0), 1)


class TestClosedFormSpectralDensity:
    def test_degenerate_filter_is_flat(self):
        density = arma11_spectral_oracle(0.5, -0.5, T3).evaluate([0.2, 1.5, 3.0])
        assert density.tolist() == [1.0, 1.0, 1.0]

    def test_low_frequency_value(self):
        assert arma11_spectral_oracle(0.8, 0.1, T3).evaluate([1e-6])[0] == pytest.approx(
            3.4549752818597392, abs=1e-8
        )

    def test_cross_oracle_consistency(self):
        rng = np.random.default_rng(808)
        grid = np.linspace(0.02, math.pi - 0.02, 64)
        for sphi, ssum in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            for _ in range(3):
                phi = sphi * float(rng.uniform(0.2, 0.85))
                theta = ssum * float(rng.uniform(0.1, 1.5)) - phi
                tail = TailIndexSpec(
                    alpha=float(rng.uniform(0.7, 3.5)),
                    upper_share=float(rng.uniform(0.1, 0.9)),
                )
                depth = series_lag_for_accuracy(phi, tail.alpha, 1e-12)
                series = spectral_from_extremogram(
                    extremogram_linear(arma11_filter(phi, theta), tail, depth)
                )
                closed = arma11_spectral_oracle(phi, theta, tail).evaluate(grid)
                assert np.max(np.abs(closed - series.evaluate(grid))) < 1e-8

    def test_matches_exact_sum_of_closed_extremogram(self):
        # reference: math.fsum of 1 + 2 sum_h rho(h) cos(h lam) over every
        # lag with rho(h) >= 1e-20; in the last case, forming the density as
        # an infinite damped sum minus a finite one loses 3.9e-11 relative
        grid = np.linspace(0.005, math.pi - 0.005, 128)
        cases = [
            (0.8, 0.1, T3),
            (0.6, -0.9, T3),
            (-0.7, 0.9, T3),
            (-0.6, -0.2, T3),
            (
                -0.2513470458863947,
                1.2198683990200898,
                TailIndexSpec(alpha=3.27407004984767, upper_share=0.6580836338167552),
            ),
        ]
        for phi, theta, tail in cases:
            depth = 2 * series_lag_for_accuracy(phi, tail.alpha, 1e-20)
            rho = arma11_extremogram_curve(phi, theta, tail, depth).rho
            assert rho[-2:].max() < 1e-20
            lags = np.flatnonzero(rho >= 1e-20)[1:]
            exact = np.array(
                [math.fsum([1.0, *(2.0 * rho[lags] * np.cos(lags * lam))]) for lam in grid]
            )
            closed = arma11_spectral_oracle(phi, theta, tail).evaluate(grid)
            assert np.max(np.abs(closed - exact) / exact) < 1e-12

    def test_nonnegative_on_scan(self):
        grid = np.linspace(0.01, math.pi - 0.01, 200)
        for phi, theta in [(0.8, 0.1), (0.6, -0.9), (-0.7, 0.9), (-0.6, -0.2)]:
            oracle = arma11_spectral_oracle(phi, theta, T3)
            assert np.all(oracle.evaluate(grid) >= 0.0)

    def test_series_depth(self):
        h = series_lag_for_accuracy(0.8, 3.0, 1e-12)
        assert 0.8 ** (3 * h) < 1e-12
        assert 0.8 ** (3 * (h - 1)) >= 1e-12

    def test_oracle_provenance(self):
        assert "arma11_closed" in arma11_spectral_oracle(0.8, 0.1, T3).provenance
        assert "series_truncation" in spectral_from_extremogram(np.array([1.0, 0.1])).provenance
