"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``-s`` or
in failure output) and asserts the stated bar.  Every statistical check
compares an estimator with the value it converges to at the settings
used: the asymptotic spectral density where the threshold is high
enough for the tail limit to hold (criterion 3), and the pre-asymptotic
independence baseline where the estimator is centred there
(criterion 4a).  The docstrings of those two checks give the
measurements behind the choice.
"""

import math
import time

import numpy as np

import extspec as es
from extspec import trigsums as ts


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_trig_kernel_equivalence():
    """Closed trigonometric forms match direct summation at 1e-8."""
    rng = np.random.default_rng(20240601)
    t0 = time.time()
    worst = {k: 0.0 for k in
             ("a", "b", "c", "d", "e1", "e2", "e", "f", "g", "h")}
    worst_lemma = 0.0  # scaled by 1e-7*n

    for _ in range(1000):
        n = max(1, int(math.exp(rng.uniform(0.0, math.log(10_000.0)))))
        lam = float(rng.uniform(0.01, math.pi - 0.01))
        x = float(rng.uniform(-10.0, 10.0))
        p = float(rng.uniform(-0.98, 0.98))
        k = np.arange(n)
        kk = np.arange(1, n)

        worst["a"] = max(worst["a"], abs(
            ts.cos_arith_sum(n, x, lam) - float(np.cos(x + k * lam).sum())))
        worst["b"] = max(worst["b"], abs(
            ts.sin_arith_sum(n, x, lam) - float(np.sin(x + k * lam).sum())))

        # the k-weighted sums grow like n/sin(lam/2); the reference
        # summation runs in extended precision so the comparison probes
        # the closed form, not the reference
        kl = np.longdouble(lam) * kk.astype(np.longdouble)
        bc = float(np.sum(kk * np.cos(kl), dtype=np.longdouble)) if n > 1 else 0.0
        bd = float(np.sum(kk * np.sin(kl), dtype=np.longdouble)) if n > 1 else 0.0
        worst["c"] = max(worst["c"], abs(ts.k_weighted_trig_sum(n, lam, "cos") - bc))
        worst["d"] = max(worst["d"], abs(ts.k_weighted_trig_sum(n, lam, "sin") - bd))

        worst["e2"] = max(worst["e2"], abs(
            ts.geometric_trig_sum(n, p, lam, "cos") - float((p**k * np.cos(k * lam)).sum())))
        worst["e1"] = max(worst["e1"], abs(
            ts.geometric_trig_sum(n, p, lam, "sin") - float((p**kk * np.sin(kk * lam)).sum())))

        n2 = max(2, n)
        h = int(rng.integers(1, n2 + 1))
        om = float(rng.uniform(0.01, math.pi - 0.01))
        while abs(lam - om) < 0.01:
            om = float(rng.uniform(0.01, math.pi - 0.01))
        s = np.arange(1, n2 - h + 1)
        pairs = {
            "e": (ts.cross_lag_sum(n2, h, lam, lam, "cs_same"),
                  np.cos(lam * s) * np.sin(lam * (s + h)) + np.cos(lam * (s + h)) * np.sin(lam * s)),
            "f": (ts.cross_lag_sum(n2, h, lam, om, "cs_cross"),
                  np.cos(lam * s) * np.sin(om * (s + h)) + np.cos(lam * (s + h)) * np.sin(om * s)),
            "g": (ts.cross_lag_sum(n2, h, lam, om, "cc"),
                  np.cos(lam * s) * np.cos(om * (s + h)) + np.cos(lam * (s + h)) * np.cos(om * s)),
            "h": (ts.cross_lag_sum(n2, h, lam, om, "ss"),
                  np.sin(lam * s) * np.sin(om * (s + h)) + np.sin(lam * (s + h)) * np.sin(om * s)),
        }
        for key, (closed, terms) in pairs.items():
            worst[key] = max(worst[key], abs(closed - float(terms.sum())))

        r = int(rng.integers(0, n2))
        hh = np.arange(r + 1, n2)
        dc = float(((n2 - hh) * np.cos(lam * hh + x)).sum())
        ds = float(((n2 - hh) * np.sin(lam * hh + x)).sum())
        worst_lemma = max(
            worst_lemma,
            abs(ts.tail_weighted_trig_sum(n2, r, lam, x, "cos") - dc) / (1e-7 * n2),
            abs(ts.tail_weighted_trig_sum(n2, r, lam, x, "sin") - ds) / (1e-7 * n2),
        )

    elapsed = time.time() - t0
    worst_all = max(worst.values())
    ok = worst_all < 1e-8 and worst_lemma < 1.0 and elapsed < 10.0
    assert report(
        "criterion 1 (trig kernels)",
        ok,
        f"worst abs err {worst_all:.2e} (tol 1e-8), "
        f"tail-weighted rel {worst_lemma:.3f} of 1e-7*n, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_cross_oracle_consistency():
    """Closed ARMA(1,1) density equals the truncated series route at 1e-8."""
    rng = np.random.default_rng(20240602)
    t0 = time.time()
    grid = np.linspace(0.005, math.pi - 0.005, 512)
    worst = 0.0
    for sign_phi, sign_sum in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for _ in range(20):
            phi = sign_phi * float(rng.uniform(0.2, 0.9))
            theta = sign_sum * float(rng.uniform(0.1, 1.8)) - phi
            tail = es.TailIndexSpec(
                alpha=float(rng.uniform(0.6, 4.0)),
                upper_share=float(rng.uniform(0.05, 0.95)),
            )
            depth = es.series_lag_for_accuracy(phi, tail.alpha, 1e-12)
            series = es.spectral_from_extremogram(
                es.extremogram_linear(es.arma11_filter(phi, theta), tail, depth)
            )
            closed = es.arma11_spectral_oracle(phi, theta, tail).evaluate(grid)
            worst = max(worst, float(np.max(np.abs(closed - series.evaluate(grid)))))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    assert report(
        "criterion 2 (cross-oracle)",
        ok,
        f"max |closed - series| {worst:.2e} (tol 1e-8), {elapsed:.1f}s < 30s",
    )


def test_criterion_3_smoothed_curve_tracks_oracle():
    """Smoothed curve inside the +-19.5% band around the asymptotic density.

    The smoothed standardized periodogram is consistent for the
    extremogram spectral density f* only in the joint limit q -> 1,
    n(1 - q) -> infinity (Mikosch & Zhao 2014); at a fixed threshold it
    estimates the spectrum of the exceedance indicators at that
    threshold.  At q = 0.98 this process is still far from its tail
    limit: with n = 2^22 (seed 0) the sample tail dependence at lags
    2-4 reads 0.358, 0.235, 0.159 against the limits 0.307, 0.157,
    0.080, and with s = 2000, which removes nearly all sampling noise,
    the coverage is still only 0.76, below the bar.  At q = 0.999 the
    same lags read 0.314, 0.171, 0.095 and that coverage is 1.0, so the
    check runs at q = 0.999 and n = 2^20 (~1,049 events per seed).
    Coverage is taken at every (2s+1)-th admissible frequency in
    [0.1*pi, 0.9*pi], points whose smoothing windows do not overlap.
    """
    t0 = time.time()
    n, q, s = 2**20, 0.999, 50
    tail = es.TailIndexSpec(alpha=3, upper_share=0.5)
    oracle = es.arma11_spectral_oracle(0.8, 0.1, tail)
    spec = es.Arma11Spec(phi=0.8, theta=0.1, noise=es.StudentT(3))
    half = 1.96 / math.sqrt(2 * s + 1)
    coverages = []
    for seed in range(10):
        x = es.simulate_arma11(spec, n, seed)
        thr = es.threshold_from_quantile(x, q)
        ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
        curve = es.smoothed_curve(ind, es.daniell_window(s))
        sel = (curve.grid.freqs >= 0.1 * math.pi) & (curve.grid.freqs <= 0.9 * math.pi)
        vals = curve.values[sel][:: 2 * s + 1]
        f = oracle.evaluate(curve.grid.freqs[sel][:: 2 * s + 1])
        inside = (vals >= f * (1 - half)) & (vals <= f * (1 + half))
        coverages.append(float(inside.mean()))
    elapsed = time.time() - t0
    median_cov = float(np.median(coverages))
    ok = median_cov >= 0.80 and elapsed < 60.0
    assert report(
        "criterion 3 (smoothed curve vs oracle)",
        ok,
        f"median coverage {median_cov:.3f} (need >= 0.80) at q = {q}, n = {n}, "
        f"per-seed {[f'{c:.2f}' for c in coverages]}, {elapsed:.1f}s < 60s",
    )


def test_criterion_4a_iid_extremogram_within_noise_of_zero():
    """Sample tail dependence of i.i.d. data within 3 null SE of its target.

    The limit of the extremogram of independent data is 0, but the
    central limit theorem of the ratio estimator (Davis & Mikosch 2009)
    is centred at the pre-asymptotic value P(X_h > a | X_0 > a), which
    for independent data is the event rate p0 = 1 - q = 0.02.  At
    N ~ 327 events that offset is sqrt(N*p0/(1-p0)) ~ 2.6 standard
    errors, so on seeds 0-19 a check against 0 passes in only 5 of 20
    runs with the standard error at rho_hat, and in 3 with the null one.
    The check is therefore centred at p0_hat with the null standard
    error sqrt(p0_hat*(1-p0_hat)/N): 19-20 of 20 runs pass on six
    20-seed blocks.  The standard error evaluated at rho_hat shrinks
    whenever rho_hat falls low, and on the same blocks the pass count
    drifts to 15-20.  The count against 0 is printed for information
    only.
    """
    n, q = 16384, 0.98
    runs = 0
    runs_zero = 0
    for seed in range(20):
        x = es.sample_noise(es.StudentT(3), n, seed)
        thr = es.threshold_from_quantile(x, q)
        ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
        rho = es.sample_extremogram(ind, 5).rho
        se0 = math.sqrt(ind.p0_hat * (1 - ind.p0_hat) / ind.n_events)
        runs += all(abs(rho[h] - ind.p0_hat) <= 3 * se0 for h in range(1, 6))
        runs_zero += all(abs(rho[h]) <= 3 * se0 for h in range(1, 6))
    ok = runs >= 18
    assert report(
        "criterion 4a (iid extremogram near its null target)",
        ok,
        f"{runs}/20 runs within 3 null SE of p0_hat (need >= 18); "
        f"for information, {runs_zero}/20 within 3 null SE of 0",
    )


def test_criterion_4b_iid_flat_spectrum():
    """Mean standardized ordinate near one for i.i.d. data."""
    n, q = 16384, 0.98
    passes = 0
    means = []
    for seed in range(20):
        x = es.sample_noise(es.StudentT(3), n, seed)
        thr = es.threshold_from_quantile(x, q)
        ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
        est = es.standardized_periodogram(ind, es.fourier_grid(n))
        m = float(est.values.mean())
        means.append(m)
        passes += 0.9 <= m <= 1.1
    ok = passes >= 18
    assert report(
        "criterion 4b (iid flat spectrum)",
        ok,
        f"{passes}/20 runs with grid mean in [0.9, 1.1] "
        f"(range {min(means):.3f}..{max(means):.3f})",
    )


def test_criterion_5_exponential_limit():
    """Rescaled ordinates at separated Fourier frequencies look Exp(1)."""
    n, q = 16384, 0.98
    flat = es.spectral_from_extremogram(np.array([1.0]))
    ks_passes = 0
    mean_ratios = []
    for seed in range(20):
        x = es.sample_noise(es.StudentT(3), n, 100 + seed)
        thr = es.threshold_from_quantile(x, q)
        ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
        grid = es.thin_grid(es.fourier_grid(n), 200)
        est = es.standardized_periodogram(ind, grid)
        diag = es.exponential_diagnostics(est, flat)
        ks_passes += diag.ks_pvalue > 0.01
        mean_ratios.append(diag.mean_ratio)
    median_ratio = float(np.median(mean_ratios))
    ok = ks_passes >= 16 and 0.85 <= median_ratio <= 1.15
    assert report(
        "criterion 5 (exponential limit)",
        ok,
        f"KS at 1% passed in {ks_passes}/20 runs (need >= 16), "
        f"median mean_ratio {median_ratio:.3f} in [0.85, 1.15]",
    )


def test_criterion_6_max_ma_and_linear_share_oracle():
    """Linear and max-moving-average samples match the shared oracle."""
    t0 = time.time()
    n = 32768
    tail = es.TailIndexSpec(alpha=3, upper_share=0.5)
    noise = es.StudentT(3)
    spec = es.Arma11Spec(phi=0.8, theta=0.1, noise=noise)
    filt = es.arma11_filter(0.8, 0.1)
    psi = tuple(filt.materialize(tail, 1e-6))
    oracle = es.extremogram_linear(filt, tail, 3).rho[1:4]
    diffs = {"linear": np.empty((10, 3)), "maxma": np.empty((10, 3))}
    for i, seed in enumerate(range(10)):
        draws = {
            "linear": es.simulate_arma11(spec, n, seed),
            "maxma": es.simulate_max_ma(es.MaxMaSpec(psi=psi, noise=noise), n, seed),
        }
        for kind, x in draws.items():
            thr = es.threshold_from_quantile(x, 0.98)
            ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
            diffs[kind][i] = np.abs(es.sample_extremogram(ind, 3).rho[1:4] - oracle)
    med_lin = np.median(diffs["linear"], axis=0)
    med_max = np.median(diffs["maxma"], axis=0)
    elapsed = time.time() - t0
    ok = bool(np.all(med_lin < 0.1) and np.all(med_max < 0.1))
    assert report(
        "criterion 6 (shared extremogram)",
        ok,
        f"median |diff| per lag: linear {np.round(med_lin, 3).tolist()}, "
        f"max-MA {np.round(med_max, 3).tolist()} (tol 0.1), {elapsed:.1f}s",
    )


def test_criterion_7_exact_algebraic_invariants():
    """Parseval, m-invariance and centering-invariance at tight tolerances."""
    rng = np.random.default_rng(20240607)
    worst_parseval = worst_minv = worst_center = 0.0
    for _ in range(50):
        n = int(rng.integers(64, 8193))
        rate = float(rng.uniform(0.01, 0.3))
        bits = rng.random(n) < rate
        if not bits.any():
            bits[int(rng.integers(0, n))] = True
        ind = es.IndicatorSeries(bits)
        c = ind.centered()

        power_full = np.abs(np.fft.fft(c)) ** 2
        rhs = float(np.dot(c, c))
        worst_parseval = max(worst_parseval, abs(power_full.sum() / n - rhs) / rhs)

        grid = es.fourier_grid(n)
        std = es.standardized_periodogram(ind, grid).values
        for m in (1.0, 17.3, float(n)):
            ratio = es.periodogram(ind, grid, m=m).values / es.tail_event_rate(ind, m)
            worst_minv = max(worst_minv, float(np.max(np.abs(ratio - std))))

        raw_power = np.abs(np.fft.rfft(ind.bits.astype(float))[grid.indices]) ** 2
        cen_power = np.abs(np.fft.rfft(c)[grid.indices]) ** 2
        worst_center = max(
            worst_center,
            float(np.max(np.abs(raw_power - cen_power)) / max(cen_power.max(), 1.0)),
        )
    ok = worst_parseval < 1e-8 and worst_minv < 1e-12 and worst_center < 1e-10
    assert report(
        "criterion 7 (exact invariants)",
        ok,
        f"Parseval rel {worst_parseval:.2e} (tol 1e-8), "
        f"m-invariance {worst_minv:.2e} (tol 1e-12), "
        f"centering {worst_center:.2e} (tol 1e-10)",
    )


def test_criterion_8_permutation_band_discriminates():
    """i.i.d. curve stays inside the permutation envelope; ARMA escapes."""
    t0 = time.time()
    win = es.daniell_window(50)
    q = 0.98

    def inside_fraction(x, band_seed):
        thr = es.threshold_from_quantile(x, q)
        ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
        grid = es.thin_grid(es.smoothed_curve(ind, win).grid, 200)
        vals = es.smoothed_at_frequencies(ind, grid.freqs, win).values
        band = es.permutation_band(ind, win, grid, replicates=99, seed=band_seed, level=0.05)
        return float(band.contains(vals).mean())

    iid_inside = [
        inside_fraction(es.sample_noise(es.StudentT(3), 16384, 300 + k), 9000 + k)
        for k in range(10)
    ]
    spec = es.Arma11Spec(phi=0.8, theta=0.1, noise=es.StudentT(3))
    arma_escape = [
        1.0 - inside_fraction(es.simulate_arma11(spec, 32768, 600 + k), 9500 + k)
        for k in range(10)
    ]
    elapsed = time.time() - t0
    med_inside = float(np.median(iid_inside))
    med_escape = float(np.median(arma_escape))
    ok = med_inside >= 0.90 and med_escape >= 0.10
    assert report(
        "criterion 8 (permutation band)",
        ok,
        f"iid median inside {med_inside:.3f} (need >= 0.90), "
        f"ARMA median escape {med_escape:.3f} (need >= 0.10), {elapsed:.1f}s",
    )
