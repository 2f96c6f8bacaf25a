import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
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
from extspec import simulate
from extspec.simulate import _TILE, _first_order_filter, _lane_length


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

    @pytest.mark.parametrize("spec", [StudentT(3), ParetoBalanced(3)])
    def test_peak_memory(self, spec):
        # each draw is transformed in place: the output, the second draw and
        # the one-byte finiteness mask, 17n; out-of-place arithmetic made 32-33n
        n = 2**16
        assert traced_peak(lambda: sample_noise(spec, n, 1)) <= 18 * n

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


def scalar_filter(x, b1, a):
    """The reference: the recursion as one loop on Python floats, in lfilter's order."""
    ys, s, na = [], 0.0, -a
    for xt in x.tolist():
        y = s + xt
        ys.append(y)
        s = xt * b1 - y * na
    return np.array(ys)


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

    # lanes of 1-3 values and tiles of 1-2 positions: 100-150 values form
    # at least 33 lanes and a tail; a = 0 is reached by `sv --logvol-ar 0`
    @given(
        case=st.tuples(
            st.one_of(st.just(0.0), COEF),
            st.one_of(st.just(0.0), VALUES),
            st.lists(VALUES, min_size=100, max_size=150).map(np.array),
        ),
        width=st.integers(1, 3),
        tile=st.integers(1, 2),
    )
    # the true path enters lane 1 at -0.0, the lane from rest reads +0.0
    @example(case=(0.0, 0.0, np.array([-1.0] + [-0.0] * 99)), width=2, tile=1)
    @settings(max_examples=100, deadline=None)
    def test_lanes_are_the_scalar_loop(self, case, width, tile):
        signal = pytest.importorskip("scipy.signal")
        phi, theta, z = case
        with mock.patch.object(simulate, "_lane_length", lambda a: width), \
                mock.patch.object(simulate, "_TILE", tile):
            got = _first_order_filter(z, theta, phi)
        assert got.tobytes() == scalar_filter(z, theta, phi).tobytes()
        assert got.tobytes() == signal.lfilter([1.0, theta], [1.0, -phi], z).tobytes()

    @pytest.mark.parametrize("phi", [0.3, -0.5, 0.8])
    def test_lanes_that_meet_and_lanes_rerun_whole(self, phi, monkeypatch):
        # lanes of 100 values: at phi 0.3 and -0.5 the rerun meets a lane after
        # 31 and 52 values (median), at phi 0.8 it needs about 166: every lane is rerun whole
        z = sample_noise(StudentT(3), 100 * 40 + 37, 4)
        monkeypatch.setattr("extspec.simulate._lane_length", lambda a: 100)
        assert _first_order_filter(z, 0.1, phi).tobytes() == scalar_filter(z, 0.1, phi).tobytes()

    def test_peak_memory(self):
        # the output and three tiles of _TILE positions per lane: 8.75n at n = 2^20
        z = sample_noise(StudentT(3), 2**20 + 1000, 1)
        lanes = z.size // _lane_length(0.8)
        peak = traced_peak(lambda: _first_order_filter(z, 0.1, 0.8))
        assert peak <= 8 * z.size + 3 * 8 * _TILE * lanes + 2**17

    def test_overflow_raises_without_warning(self):
        # 200,000 values run the lanes, where inf - inf makes nan
        spec = Arma11Spec(phi=0.8, theta=1e308, noise=StudentT(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflow"):
                simulate_arma11(spec, 200_000, 1)


N_FULL = 2**20


@pytest.fixture(scope="module")
def full_size_references():
    """A t(3) ARMA(0.8, 0.1) draw by the scalar loop, and an SV draw by the plain loop."""
    burnin = default_burnin(0.8)
    z = sample_noise(StudentT(3), N_FULL + burnin, 7)
    arma = scalar_filter(z, 0.1, 0.8)[burnin:]
    with mock.patch.object(simulate, "_lane_length", lambda a: 2**62):  # no lanes
        sv = simulate_sv(SvSpec(logvol_ar=0.9, logvol_sd=0.5, noise=StudentT(3)), N_FULL, 7)
    return arma, sv


@pytest.mark.parametrize("width", [None, 3000], ids=["model", "3000"])
def test_full_size_draws_are_the_scalar_loop(width, full_size_references, monkeypatch):
    if width is not None:
        monkeypatch.setattr("extspec.simulate._lane_length", lambda a: width)
    arma, sv = full_size_references
    x = simulate_arma11(Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3)), N_FULL, 7)
    assert x.tobytes() == arma.tobytes()
    x = simulate_sv(SvSpec(logvol_ar=0.9, logvol_sd=0.5, noise=StudentT(3)), N_FULL, 7)
    assert x.tobytes() == sv.tobytes()


class TestStochasticVolatility:
    def test_peak_memory(self):
        # the noise, the filter's input and its output, 24n, plus the lanes'
        # tiles; the start term v0 * a**t then takes the input's place in one
        # array (built from temporaries, it peaked at 32n)
        n = 2**18
        assert n // _lane_length(0.9) >= 24  # the lanes run, not the plain loop's lists
        spec = SvSpec(logvol_ar=0.9, logvol_sd=0.5, noise=StudentT(3))
        assert traced_peak(lambda: simulate_sv(spec, n, 1, burnin=0)) <= 26 * n

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
