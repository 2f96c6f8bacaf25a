import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extspec import (
    Arma11Spec,
    MaxMaSpec,
    ParameterError,
    ParetoBalanced,
    StudentT,
    SvSpec,
    TailIndexSpec,
    UpperRay,
    arma11_filter,
    default_burnin,
    exceedance_indicators,
    sample_extremogram,
    sample_noise,
    simulate_arma11,
    simulate_max_ma,
    simulate_sv,
    threshold_from_quantile,
)
from extspec.simulate import _first_order_filter


class TestNoise:
    def test_pareto_support(self):
        z = sample_noise(ParetoBalanced(alpha=3, upper_share=1.0), 5000, 0)
        assert np.all(z >= 1.0)
        z = sample_noise(ParetoBalanced(alpha=2, upper_share=0.3), 5000, 1)
        assert np.all(np.abs(z) >= 1.0)

    def test_pareto_tail_proportions(self):
        spec = ParetoBalanced(alpha=3, upper_share=0.6)
        z = sample_noise(spec, 10**6, 42)
        for x in (2.0, 4.0, 8.0):
            target = spec.upper_share * x**-spec.alpha
            observed = np.mean(z > x)
            assert abs(observed - target) / target < 0.05

    def test_student_t_median_near_zero(self):
        z = sample_noise(StudentT(3), 10**5, 7)
        assert abs(np.median(z)) < 0.02

    def test_determinism(self):
        for spec in (ParetoBalanced(3, 0.5), StudentT(3)):
            a = sample_noise(spec, 1000, 123)
            b = sample_noise(spec, 1000, 123)
            assert np.array_equal(a, b)
            c = sample_noise(spec, 1000, 124)
            assert not np.array_equal(a, c)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ParetoBalanced(alpha=0.0)
        with pytest.raises(ParameterError):
            ParetoBalanced(alpha=1.0, upper_share=1.5)
        with pytest.raises(ParameterError):
            StudentT(df=-1.0)
        with pytest.raises(ParameterError):
            sample_noise(StudentT(3), 0, 1)


class TestArma11:
    def test_near_zero_phi_reduces_to_noise(self):
        spec = Arma11Spec(phi=1e-9, theta=0.0, noise=StudentT(3))
        burnin = 100
        x = simulate_arma11(spec, 2000, 5, burnin=burnin)
        z = sample_noise(StudentT(3), 2000 + burnin, 5)[burnin:]
        assert np.max(np.abs(x - z)) < 1e-6 * np.max(np.abs(z))

    def test_recursion_matches_reference_loop(self):
        spec = Arma11Spec(phi=0.6, theta=-0.3, noise=ParetoBalanced(2, 0.5))
        x = simulate_arma11(spec, 50, 9, burnin=0)
        z = sample_noise(spec.noise, 50, 9)
        ref = np.empty(50)
        prev_x = prev_z = 0.0
        for t in range(50):
            ref[t] = spec.phi * prev_x + z[t] + spec.theta * prev_z
            prev_x, prev_z = ref[t], z[t]
        assert np.allclose(x, ref, rtol=0, atol=1e-12)

    def test_reference_scale_run(self):
        spec = Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3))
        x = simulate_arma11(spec, 31757, 1)
        assert x.size == 31757
        assert np.all(np.isfinite(x))

    def test_determinism(self):
        spec = Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3))
        assert np.array_equal(simulate_arma11(spec, 500, 3), simulate_arma11(spec, 500, 3))

    def test_nonstationary_rejected(self):
        with pytest.raises(ParameterError):
            Arma11Spec(phi=1.0, theta=0.0, noise=StudentT(3))
        with pytest.raises(ParameterError):
            Arma11Spec(phi=0.0, theta=0.5, noise=StudentT(3))

    def test_default_burnin(self):
        assert default_burnin(0.8) == 1000
        assert default_burnin(0.99) == 5000


COEF = st.floats(-1, 1, exclude_min=True, exclude_max=True).filter(lambda c: c != 0.0)
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
)


@st.composite
def filter_cases(draw):
    phi = draw(COEF)
    theta = draw(st.one_of(st.sampled_from([0.0, -phi]), VALUES))
    z = np.array(draw(st.lists(VALUES, min_size=1, max_size=80)))
    return phi, theta, z


class TestFirstOrderFilter:
    @given(case=filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_lfilter(self, case):
        signal = pytest.importorskip("scipy.signal")
        phi, theta, z = case
        arma = signal.lfilter([1.0, theta], [1.0, -phi], z)
        ar = signal.lfilter([1.0], [1.0, -phi], z)
        assert _first_order_filter(z, theta, phi).tobytes() == arma.tobytes()
        assert _first_order_filter(z, 0.0, phi).tobytes() == ar.tobytes()

    def test_chunks_join_without_a_seam(self, monkeypatch):
        z = sample_noise(StudentT(3), 1000, 4)
        whole = _first_order_filter(z, 0.1, 0.8)
        monkeypatch.setattr("extspec.simulate._CHUNK", 7)
        assert _first_order_filter(z, 0.1, 0.8).tobytes() == whole.tobytes()


class TestStochasticVolatility:
    def test_zero_volatility_equals_noise_exactly(self):
        spec = SvSpec(logvol_ar=0.9, logvol_sd=0.0, noise=StudentT(3))
        burnin = 200
        x = simulate_sv(spec, 1000, 21, burnin=burnin)
        z = sample_noise(StudentT(3), 1000 + burnin, 21)[burnin:]
        assert np.array_equal(x, z)

    def test_no_excess_tail_dependence(self):
        # mild volatility leaves the conditional exceedance rate at its
        # independent-data baseline (the empirical event rate)
        spec = SvSpec(logvol_ar=0.5, logvol_sd=0.1, noise=StudentT(3))
        x = simulate_sv(spec, 2**15, 3)
        thr = threshold_from_quantile(x, 0.98)
        ind = exceedance_indicators(x, UpperRay(1.0), thr)
        ex = sample_extremogram(ind, 5)
        se0 = math.sqrt(ind.p0_hat * (1 - ind.p0_hat) / ind.n_events)
        assert np.max(np.abs(ex.rho[1:] - ind.p0_hat)) <= 3 * se0

    def test_determinism(self):
        spec = SvSpec(logvol_ar=0.5, logvol_sd=0.3, noise=StudentT(3))
        assert np.array_equal(simulate_sv(spec, 400, 8), simulate_sv(spec, 400, 8))

    def test_nonstationary_rejected(self):
        with pytest.raises(ParameterError):
            SvSpec(logvol_ar=1.0, logvol_sd=0.1, noise=StudentT(3))


class TestMaxMovingAverage:
    def test_single_coefficient_is_noise(self):
        spec = MaxMaSpec(psi=(1.0,), noise=StudentT(3))
        x = simulate_max_ma(spec, 1000, 13)
        z = sample_noise(StudentT(3), 1000, 13)
        assert np.array_equal(x, z)

    def test_matches_reference_loop(self):
        psi = (1.0, 0.5, -0.25)
        spec = MaxMaSpec(psi=psi, noise=ParetoBalanced(2, 0.7))
        n = 200
        x = simulate_max_ma(spec, n, 31)
        z = sample_noise(spec.noise, n + 2, 31)
        ref = np.array(
            [max(psi[i] * z[2 + t - i] for i in range(3)) for t in range(n)]
        )
        assert np.array_equal(x, ref)

    def test_truncated_filter_tail_mass(self):
        tail = TailIndexSpec(alpha=3, upper_share=0.5)
        filt = arma11_filter(0.8, 0.1)
        eps = 1e-6
        psi = filt.materialize(tail, eps)
        kept = np.sum(np.abs(psi) ** tail.alpha)
        # geometric bound on everything past the last kept coefficient
        ratio = abs(filt.tail_ratio) ** tail.alpha
        ignored = abs(psi[-1]) ** tail.alpha * ratio / (1 - ratio)
        assert ignored < eps * kept

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ParameterError):
            MaxMaSpec(psi=(0.0, 0.0), noise=StudentT(3))

    def test_determinism(self):
        spec = MaxMaSpec(psi=(1.0, 0.9, 0.72), noise=StudentT(3))
        assert np.array_equal(simulate_max_ma(spec, 300, 2), simulate_max_ma(spec, 300, 2))
