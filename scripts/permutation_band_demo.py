"""Permutation-envelope diagnostic for serial extremal dependence.

Shuffling the observations preserves the marginal distribution but
destroys any serial dependence, so the envelope of smoothed tail-event
spectra over random permutations is a no-dependence reference.  An
independent series should stay inside it; a clustered series should
escape.  This script runs both cases and prints the escape fractions.

Usage: python scripts/permutation_band_demo.py [--seeds 5] [--replicates 99]
"""

import argparse

import numpy as np

import extspec as es


def escape_fraction(x: np.ndarray, q: float, s: int, band_seed: int,
                    replicates: int) -> float:
    window = es.daniell_window(s)
    thr = es.threshold_from_quantile(x, q)
    ind = es.exceedance_indicators(x, es.UpperRay(1.0), thr)
    grid = es.thin_grid(es.smoothed_curve(ind, window).grid, 200)
    values = es.smoothed_at_frequencies(ind, grid.freqs, window).values
    band = es.permutation_band(
        x, q, es.UpperRay(1.0), window, grid,
        replicates=replicates, seed=band_seed, level=0.05,
    )
    return 1.0 - float(band.contains(values).mean())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16384)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--replicates", type=int, default=99)
    ap.add_argument("--q", type=float, default=0.98)
    ap.add_argument("--half-width", type=int, default=50, dest="s")
    args = ap.parse_args()

    arma = es.Arma11Spec(phi=0.8, theta=0.1, noise=es.StudentT(3))
    for label, draw in (
        ("independent t(3)", lambda k: es.sample_noise(es.StudentT(3), args.n, k)),
        ("ARMA(1,1) t(3)", lambda k: es.simulate_arma11(arma, args.n, k)),
    ):
        fractions = [
            escape_fraction(draw(k), args.q, args.s, 1000 + k, args.replicates)
            for k in range(args.seeds)
        ]
        print(
            f"{label}: escapes the {args.replicates}-permutation 95% envelope at "
            f"{100 * np.median(fractions):.1f}% of frequencies "
            f"(median over {args.seeds} seeds; per-seed "
            f"{[f'{100 * v:.0f}%' for v in fractions]})"
        )


if __name__ == "__main__":
    main()
