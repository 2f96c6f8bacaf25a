import json
import math

import numpy as np
import pytest

from extspec.cli import (
    AnalysisConfig,
    main,
    parse_grid,
    parse_noise,
    parse_tail_set,
    parse_window,
    read_series_csv,
)
from extspec import InputError, ParameterError, ParetoBalanced, StudentT


def run(argv):
    return main([str(a) for a in argv])


def data_rows(path):
    return [
        line for line in path.read_text().splitlines() if line and not line.startswith("#")
    ]


class TestParsers:
    def test_noise_specs(self):
        assert parse_noise("t:3") == StudentT(3)
        assert parse_noise("pareto:3:0.5") == ParetoBalanced(3, 0.5)
        assert parse_noise("pareto:2") == ParetoBalanced(2, 0.5)
        with pytest.raises(ParameterError):
            parse_noise("gauss:1")
        with pytest.raises(ParameterError):
            parse_noise("t:abc")

    def test_tail_sets(self):
        assert parse_tail_set("upper:1").describe() == "upper:1"
        assert parse_tail_set("lower:2.5").describe() == "lower:2.5"
        assert parse_tail_set("interval:1:2").describe() == "interval:1:2"
        with pytest.raises(ParameterError):
            parse_tail_set("ball:1")

    def test_windows(self):
        assert parse_window("daniell:5").half_width == 5
        w = parse_window("custom:1,2,1")
        assert w.half_width == 1 and w.weights.tolist() == [0.25, 0.5, 0.25]
        with pytest.raises(ParameterError):
            parse_window("custom:1,2")

    def test_grids(self):
        g = parse_grid("fourier:16", None)
        assert len(g) == 7
        g = parse_grid("linspace:0.1:3.0:11", None)
        assert len(g) == 11
        g = parse_grid("list:0.5,1.0,2.0", None)
        assert np.allclose(g.freqs, [0.5, 1.0, 2.0])
        with pytest.raises(ParameterError):
            parse_grid("mesh:1", None)

    def test_analysis_config_round_trip(self):
        cfg = AnalysisConfig(input="a.csv", out_dir="out", q=0.95, band="surrogate")
        assert AnalysisConfig.from_dict(cfg.to_dict()) == cfg

    def test_analysis_config_level_in_unit_interval(self):
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ParameterError):
                AnalysisConfig(input="a.csv", out_dir="out", level=bad)


class TestReadSeries:
    def test_plain_column(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.5\n-2\n3e-1\n")
        assert read_series_csv(f).tolist() == [1.5, -2.0, 0.3]

    def test_comments_and_header(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("# a comment\nvalue\n1\n2\n# mid comment\n3\n")
        assert read_series_csv(f).tolist() == [1.0, 2.0, 3.0]

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "x.csv"
        for bad in ("oops", "nan", "inf", "-inf"):
            f.write_text(f"1\n2\n{bad}\n4\n")
            with pytest.raises(InputError, match="line 3"):
                read_series_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_series_csv(tmp_path / "nope.csv")


class TestSimulateCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "iid.csv"
        assert run(["simulate", "iid", "--noise", "pareto:3:0.5", "--n", 1000,
                    "--seed", 7, "--out", out]) == 0
        assert len(data_rows(out)) == 1000

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "arma11", "--phi", 0.8, "--theta", 0.1, "--noise", "t:3",
                "--n", 500, "--seed", 1]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_values_round_trip_losslessly(self, tmp_path):
        out = tmp_path / "x.csv"
        run(["simulate", "iid", "--noise", "t:3", "--n", 50, "--seed", 3, "--out", out])
        from extspec import sample_noise

        assert np.array_equal(read_series_csv(out), sample_noise(StudentT(3), 50, 3))

    def test_maxma_via_filter(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["simulate", "maxma", "--phi", 0.8, "--theta", 0.1, "--noise", "t:3",
                    "--n", 100, "--seed", 2, "--out", out]) == 0
        assert len(data_rows(out)) == 100

    def test_sv_model(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", 0.2,
                    "--noise", "t:3", "--n", 100, "--seed", 2, "--out", out]) == 0
        assert len(data_rows(out)) == 100

    def test_bad_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", "arma11", "--phi", 1.5, "--theta", 0.0, "--noise", "t:3",
                    "--n", 10, "--seed", 0, "--out", out]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_noise_exit_2(self, tmp_path):
        assert run(["simulate", "iid", "--noise", "cauchy", "--n", 10, "--seed", 0,
                    "--out", tmp_path / "x.csv"]) == 2


@pytest.fixture(scope="module")
def sim_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "arma.csv"
    assert run(["simulate", "arma11", "--phi", 0.8, "--theta", 0.1, "--noise", "t:3",
                "--n", 4096, "--seed", 5, "--out", path]) == 0
    return path


class TestAnalyzeCommand:
    def test_pipeline_outputs(self, sim_file, tmp_path):
        out = tmp_path / "run"
        assert run(["analyze", "--input", sim_file, "--out-dir", out, "--q", 0.95,
                    "--window", "daniell:10", "--max-lag", 20]) == 0
        ext = (out / "extremogram.csv").read_text().splitlines()
        spec = (out / "spectrum.csv").read_text().splitlines()
        manifest = json.loads((out / "manifest.json").read_text())
        header = [l for l in ext if not l.startswith("#")][0]
        assert header == "h,rho,stderr"
        header = [l for l in spec if not l.startswith("#")][0]
        assert header == "lambda,raw,smoothed,lower,upper"
        assert manifest["n"] == 4096
        assert manifest["events"] > 0
        assert manifest["config"]["window"] == "daniell:10"
        # 21 extremogram rows (lags 0..20)
        assert len(data_rows(out / "extremogram.csv")) == 21 + 1  # header included

    def test_idempotent_reruns(self, sim_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["analyze", "--input", sim_file, "--q", 0.95, "--window", "daniell:10",
                "--band", "surrogate"]
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        for name in ("extremogram.csv", "spectrum.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_numeric_round_trip_17_digits(self, sim_file, tmp_path):
        out = tmp_path / "run"
        run(["analyze", "--input", sim_file, "--out-dir", out, "--q", 0.95,
             "--window", "daniell:10"])
        rows = data_rows(out / "spectrum.csv")[1:]
        for row in rows[:50]:
            for cell in row.split(","):
                v = float(cell)
                if math.isfinite(v):
                    assert f"{v:.17g}" == cell

    def test_zero_exceedances_exit_3(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        data.write_text("".join(f"{-abs(v)}\n" for v in np.arange(1.0, 201.0)))
        assert run(["analyze", "--input", data, "--out-dir", tmp_path / "o",
                    "--q", 0.9]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_input_exit_2_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        for bad in ("three", "nan", "inf", "-inf"):
            data.write_text(f"1\n2\n{bad}\n")
            assert run(["analyze", "--input", data, "--out-dir", tmp_path / "o"]) == 2
            assert "line 3" in capsys.readouterr().err

    def test_json_format(self, sim_file, tmp_path):
        out = tmp_path / "runj"
        args = ["analyze", "--input", sim_file, "--q", 0.95, "--window", "daniell:10"]
        assert run(args + ["--out-dir", out, "--format", "json"]) == 0
        assert run(args + ["--out-dir", tmp_path / "runc"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not valid JSON")

        payload = json.loads((out / "spectrum.json").read_text(), parse_constant=reject)
        header = ["lambda", "raw", "smoothed", "lower", "upper"]
        assert payload["rows"][0].keys() == set(header)
        # undefined cells are null in JSON where the CSV has nan
        csv_rows = data_rows(tmp_path / "runc" / "spectrum.csv")[1:]
        assert len(csv_rows) == len(payload["rows"])
        for line, record in zip(csv_rows, payload["rows"]):
            for key, cell in zip(header, line.split(",")):
                assert (record[key] is None) == (cell == "nan")
        assert any(record["smoothed"] is None for record in payload["rows"])

    def test_permutation_band_reruns_identical(self, sim_file, tmp_path):
        args = ["analyze", "--input", sim_file, "--q", 0.95, "--window", "daniell:10",
                "--band", "permutation", "--replicates", 29, "--band-seed", 4,
                "--grid", "list:0.8,1.2,1.6,2.0"]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    def test_too_wide_window_exit_2(self, sim_file, tmp_path, capsys):
        # n = 4096: a half-width of n/2 leaves no admissible window on any grid
        for grid in ("fourier", "list:0.5,1.5"):
            assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "w",
                        "--q", 0.95, "--window", "daniell:2048", "--grid", grid]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_one_fft_per_run(self, sim_file, tmp_path, monkeypatch):
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "f", "--q", 0.95,
                    "--window", "daniell:10", "--band", "surrogate"]) == 0
        assert len(calls) == 1

    def test_custom_grid_rows(self, sim_file, tmp_path):
        out = tmp_path / "g"
        assert run(["analyze", "--input", sim_file, "--out-dir", out, "--q", 0.95,
                    "--window", "daniell:10", "--grid", "linspace:0.5:2.5:9"]) == 0
        assert len(data_rows(out / "spectrum.csv")) == 9 + 1


class TestOracleCommand:
    def test_overlay_grids_align(self, sim_file, tmp_path):
        # analyze on the Fourier grid of n and oracle on fourier:n share
        # the lambda column, so the curves overlay row by row
        run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "est", "--q", 0.95,
             "--window", "daniell:10"])
        run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3,
             "--grid", "fourier:4096", "--out-dir", tmp_path / "orc"])
        est_lam = [r.split(",")[0] for r in data_rows(tmp_path / "est" / "spectrum.csv")[1:]]
        orc_lam = [r.split(",")[0] for r in data_rows(tmp_path / "orc" / "oracle_spectrum.csv")[1:]]
        assert est_lam == orc_lam

    def test_reference_curves_and_residual(self, tmp_path):
        out = tmp_path / "oracle"
        assert run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3,
                    "--p", 0.5, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_series_residual"] < 1e-8
        rows = data_rows(out / "oracle_spectrum.csv")[1:]
        lam0, f0 = map(float, rows[0].split(","))
        assert f0 == pytest.approx(3.45, abs=0.05)  # low-frequency end of the curve

    def test_degenerate_filter_flat_curve(self, tmp_path):
        out = tmp_path / "flat"
        assert run(["oracle", "arma11", "--phi", 0.5, "--theta", -0.5, "--alpha", 3,
                    "--out-dir", out]) == 0
        rows = data_rows(out / "oracle_spectrum.csv")[1:]
        vals = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(vals == 1.0)

    def test_unsupported_case_exit_2(self, tmp_path, capsys):
        assert run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3,
                    "--p", 0.0, "--out-dir", tmp_path / "u"]) == 2
        # |phi|**alpha rounds to 1: the dependence never decays in floating point
        assert run(["oracle", "arma11", "--phi", "0.9999999999999999", "--theta", 0.1,
                    "--alpha", 0.001, "--out-dir", tmp_path / "d"]) == 2
        assert "error: |phi|**alpha rounds to 1" in capsys.readouterr().err
