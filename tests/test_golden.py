"""Golden files: the exact bytes every CLI command writes.

Each case runs one command in a fresh directory and compares every file it
writes with the file of the same name under ``tests/golden/<case>``.  The
injected values cover the text forms a writer can get wrong: ``nan``,
``-0.0``, the smallest subnormal, values near the largest double and
infinities, plus integer lags and JSON ``null``.  The golden bytes were
checked on numpy 2.4.6.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from extspec import Band, inference, simulate
from extspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SPECIAL = [math.nan, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
           0.1, -2.5, 1 / 3, 123456789.0, 1e-7]

# n = 32 with eight clear exceedances in two runs, no random draws involved
SERIES = [1.0 + ((7 * t) % 32) / 4.0 for t in range(32)]

ANALYZE = ["analyze", "--input", "x.csv", "--out-dir", "out", "--q", "0.75",
           "--window", "daniell:2", "--max-lag", "3"]

CASES = {
    "simulate": ["simulate", "iid", "--noise", "t:3", "--n", len(SPECIAL), "--seed", 0,
                 "--out", "out/series.csv"],
    "analyze_csv": ANALYZE + ["--band", "surrogate"],
    "analyze_json": ANALYZE + ["--band", "surrogate", "--format", "json"],
    "analyze_permutation": ANALYZE + ["--grid", "list:0.6,1.2,2.4", "--band", "permutation",
                                      "--replicates", "19", "--band-seed", "3"],
    "oracle": ["oracle", "arma11", "--phi", "0.8", "--theta", "0.1", "--alpha", "3",
               "--grid", "list:0.5,1.0,2.0", "--max-lag", "3", "--out-dir", "out"],
    # the other three sign cases of (phi, phi+theta); negative phi steps by two lags,
    # and neg_neg starts on a plateau of step 2 where the odd lags vanish
    **{f"oracle_{name}": ["oracle", "arma11", "--phi", phi, "--theta", theta, "--alpha", "3",
                          "--grid", "list:0.5,1.0,2.0", "--max-lag", "3", "--out-dir", "out"]
       for name, phi, theta in (("pos_neg", "0.8", "-1.2"), ("neg_pos", "-0.6", "0.9"),
                                ("neg_neg", "-0.6", "0.1"))},
    # the default 512-point grid, with a cosine series of 42 lags
    "oracle_default": ["oracle", "arma11", "--phi", "0.8", "--theta", "0.1", "--alpha", "3",
                       "--out-dir", "out"],
    # real seeded noise: a burn-in or a max-MA window draws more than SPECIAL holds;
    # the comment lines pin the default burn-in, n_coeffs and trunc_eps
    "simulate_arma11": ["simulate", "arma11", "--phi", "0.97", "--theta", "-0.5",
                        "--n", "6", "--seed", "1", "--out", "out/series.csv"],
    "simulate_sv": ["simulate", "sv", "--logvol-ar", "0.96", "--logvol-sd", "0.2",
                    "--n", "6", "--seed", "2", "--out", "out/series.csv"],
    "simulate_maxma_psi": ["simulate", "maxma", "--psi", "1,0.9,0.72", "--noise", "pareto:3:0.5",
                           "--n", "6", "--seed", "3", "--out", "out/series.csv"],
    "simulate_maxma_filter": ["simulate", "maxma", "--phi", "0.97", "--theta", "0.5",
                              "--trunc-eps", "1e-4", "--n", "6", "--seed", "4",
                              "--out", "out/series.csv"],
}


def _special_band(curve, window):
    # edge values in both envelope columns, real smoothed values elsewhere
    lower = curve.values * 0.5
    upper = curve.values * 2.0
    lower[:3] = [-0.0, 5e-324, -1e308]
    upper[:3] = [0.0, 1e-300, 1e308]
    return Band(grid=curve.grid, lower=lower, upper=upper)


def test_every_golden_directory_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if case == "simulate":
        monkeypatch.setattr(simulate, "sample_noise", lambda spec, n, seed: np.array(SPECIAL))
    monkeypatch.setattr(inference, "surrogate_band", _special_band)
    (tmp_path / "x.csv").write_text("".join(f"{v!r}\n" for v in SERIES))

    assert main([str(a) for a in CASES[case]]) == 0

    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == expected
    for name in expected:
        got = (tmp_path / "out" / name).read_bytes()
        assert got == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"
