import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extspec.cli import (
    _write_table,
    main,
    parse_grid,
    parse_noise,
    parse_tail_set,
    parse_window,
    read_series_csv,
)
from extspec import InputError, ParameterError, ParetoBalanced, StudentT, cli


def run(argv):
    return main([str(a) for a in argv])


def data_rows(path):
    return [
        line for line in path.read_text().splitlines() if line and not line.startswith("#")
    ]


def single_error(capsys):
    """The one ``error:`` line a rejected command prints; no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


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

    def test_clean_file_takes_one_numpy_call(self, tmp_path, monkeypatch):
        # comments, a header and CRLF line ends stay on the fast path
        def no_fallback(path):
            raise AssertionError("line reader used")

        monkeypatch.setattr(cli, "_read_series_lines", no_fallback)
        f = tmp_path / "x.csv"
        f.write_bytes(b"# c\r\n\r\nvalue,other\r\n# c\r\n1.5,a\r\n-0.0\r\n\r\n5e-324\r\n")
        got = read_series_csv(f)
        assert got.tobytes() == np.array([1.5, -0.0, 5e-324]).tobytes()


# one line of a CSV the reader may meet; the numbers include signed zero,
# subnormals, long digit strings and spellings that Python's float() and
# numpy's parser may read differently
CSV_CELLS = [
    "0", "-0.0", "1.5", "-2", "3e-1", "5e-324", "1e308", "1e999",
    "0.1000000000000000055511151231257827", "9007199254740993", ".5", "1.", "+.5e-3",
    "nan", "-inf", "infinity", "Infinity", "1_0", "0x10", "1D3", "x", "value", "", "   ",
    "\t7 ", "\u30008", "\u0661\u0662", "1\x1c", "# note", "1.5 # note", "1,2,3", "4,", ",5",
    "a,b", "1 2",
]


def _read_outcome(read, path):
    """The bytes ``read`` returns, or the InputError message it raises."""
    try:
        return read(path).tobytes()
    except InputError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestReaderProperty:
    @given(
        content=st.builds(
            lambda cells, end, tail: end.join(cells).encode() + tail,
            st.lists(st.one_of(st.sampled_from(CSV_CELLS), st.floats().map(repr)), max_size=12),
            st.sampled_from(["\n", "\r\n", "\r"]),
            st.sampled_from([b"", b"\n", b"\n\xe9\n", b"\xff1\n"]),
        )
    )
    @example(content=b"x\n")  # header only: np.loadtxt would warn "input contained no data"
    @example(content=b"x\n0x10\n")
    @example(content=b"x\n1D3\n")
    @example(content=b"1_0\n")
    @example(content=b"1\n\n   \n2\n")
    @example(content=b"1\r\n2\r\n")
    @example(content=b"1\n# mid\n2\n")
    @example(content=b"1.5 # note\n")
    @example(content=b"1,2,3\n4\n5,6\n")
    @example(content=b"1\nnan\n")
    @example(content=b"1\ninf\n")
    @example(content=b"infinity\n")
    @example(content=b"a\nb\n1\n")
    @example(content=b"caf\xe9\n1.0\n")
    @example(content=b"1.0\n\xff\n")
    @settings(max_examples=300, deadline=None)
    def test_fast_read_matches_line_reader(self, content, csv_dir):
        f = csv_dir / "x.csv"
        f.write_bytes(content)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _read_outcome(read_series_csv, f)
        assert got == _read_outcome(cli._read_series_lines, f), content
        assert not caught and not stderr.getvalue(), content


class TestWriteTable:
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        # the writer formats one chunk of rows at a time, so its peak is set
        # by the chunk size: 2^13 rows peak where 2^11 rows do (chunks of 2^10)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 2**10)
        rng = np.random.default_rng(0)
        out = tmp_path / "t.csv"
        peaks = {}
        for rows in (2**11, 2**13):
            columns = {name: rng.standard_normal(rows) for name in "abcde"}
            tracemalloc.start()
            try:
                _write_table(out, ["five columns"], columns)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.read_bytes().count(b"\n") == rows + 2  # comment, header, rows
        assert peaks[2**13] <= 1.05 * peaks[2**11]


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

    @pytest.mark.parametrize("model", [["iid"], ["arma11", "--phi", 0.8, "--theta", 0.1]])
    def test_negative_seed_exit_2(self, model, tmp_path, capsys):
        assert run(["simulate", *model, "--n", 10, "--seed", -1,
                    "--out", tmp_path / "x.csv"]) == 2
        assert "seed" in single_error(capsys)

    @pytest.mark.parametrize("psi", ["1,nan", "1,inf", "0.5,-inf"])
    def test_non_finite_psi_exit_2(self, psi, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["simulate", "maxma", "--psi", psi, "--n", 10, "--seed", 0,
                    "--out", out]) == 2
        assert "finite" in single_error(capsys)
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flag", [["--level", 0], ["--level", 1], ["--level", "nan"], ["--max-lag", -1]],
        ids=lambda f: f"{f[0]}={f[1]}",
    )
    def test_bad_level_or_max_lag_exit_2_before_reading(self, flag, tmp_path, capsys):
        # the input does not exist: the flag is rejected before it is read
        assert run(["analyze", "--input", tmp_path / "missing.csv", "--out-dir", tmp_path / "o",
                    *flag]) == 2
        assert flag[0].strip("-").replace("-", " ") in single_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_malformed_input_exit_2_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        for bad in ("three", "nan", "inf", "-inf"):
            data.write_text(f"1\n2\n{bad}\n")
            assert run(["analyze", "--input", data, "--out-dir", tmp_path / "o"]) == 2
            assert "line 3" in capsys.readouterr().err

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes("# caf\xe9\n1.0\n2.0\n".encode("latin-1"))
        assert run(["analyze", "--input", data, "--out-dir", tmp_path / "o"]) == 2
        line = single_error(capsys)
        assert str(data) in line and "UTF-8" in line

    def test_negative_band_seed_exit_2(self, sim_file, tmp_path, capsys):
        assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "o", "--q", 0.95,
                    "--window", "daniell:10", "--grid", "list:0.8,1.2", "--band", "permutation",
                    "--replicates", 19, "--band-seed", -1]) == 2
        assert "seed" in single_error(capsys)

    @pytest.mark.parametrize(
        "window", ["custom:1,inf,1", "custom:1,nan,1", "custom:-inf", "custom:1e308,1e308,1e308"]
    )
    def test_non_finite_window_weight_exit_2(self, window, sim_file, tmp_path, capsys):
        assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "o",
                    "--window", window]) == 2
        assert "finite" in single_error(capsys)

    def test_band_above_memory_limit_exit_2(self, sim_file, tmp_path, capsys, monkeypatch):
        def no_seeds(*args, **kwargs):
            raise AssertionError("the band spawned seeds before checking its memory bound")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "o", "--q", 0.95,
                    "--window", "daniell:10", "--grid", "list:0.8,1.2", "--band", "permutation",
                    "--replicates", 10**15]) == 2
        assert "byte limit" in single_error(capsys)

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

    def test_underflowed_phi_squared(self, tmp_path):
        # |phi|**2 underflows to 0 while |phi|**alpha does not
        out = tmp_path / "o"
        assert run(["oracle", "arma11", "--phi=-1e-200", "--theta", 2, "--alpha", 1,
                    "--out-dir", out]) == 0
        _assert_finite_outputs("oracle", out)

    def test_unsupported_case_exit_2(self, tmp_path, capsys):
        assert run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3,
                    "--p", 0.0, "--out-dir", tmp_path / "u"]) == 2
        # |phi|**alpha rounds to 1: the dependence never decays in floating point
        assert run(["oracle", "arma11", "--phi", "0.9999999999999999", "--theta", 0.1,
                    "--alpha", 0.001, "--out-dir", tmp_path / "d"]) == 2
        assert "error: |phi|**alpha rounds to 1" in capsys.readouterr().err


# model and oracle parameters that are not finite, or that overflow what
# they produce, used to exit 0 with nan or inf values or end in a traceback
BAD_MODEL_PARAMETERS = [
    ["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "nan"],
    ["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "inf"],
    ["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "1e308"],
    ["simulate", "iid", "--noise", "t:inf"],
    ["simulate", "iid", "--noise", "pareto:inf"],
    ["simulate", "iid", "--noise", "pareto:1e-300"],
    ["simulate", "arma11", "--phi", 0.8, "--theta", "nan"],
    ["simulate", "arma11", "--phi", 0.8, "--theta", "inf"],
    ["simulate", "arma11", "--phi", 0.8, "--theta", "1e308"],
    ["simulate", "maxma", "--phi", 0.5, "--theta", 0.3, "--trunc-eps", "inf"],
    ["simulate", "maxma", "--phi", 0.5, "--theta", "nan"],
    ["simulate", "maxma", "--psi", "abc"],
    ["oracle", "arma11", "--phi", 0.8, "--theta", "nan", "--alpha", 3],
    ["oracle", "arma11", "--phi", 0.8, "--theta", "inf", "--alpha", 3],
    ["oracle", "arma11", "--phi", 0.8, "--theta", "1e308", "--alpha", 3],
    ["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", "inf"],
    ["oracle", "arma11", "--phi", 0.5, "--theta", -1.2, "--alpha", "1e308", "--p", 0],
    # |phi|**alpha underflows to 0, and |phi|**alpha rounds to 1 in the max-MA filter tail
    ["oracle", "arma11", "--phi", -0.6, "--theta", 0.1, "--alpha", "1e308"],
    ["oracle", "arma11", "--phi", 0.5, "--theta", 0.5, "--alpha", 2000],
    ["simulate", "maxma", "--phi", 0.97, "--theta", 0.5, "--noise", "t:1e-17"],
    # a closed-form coefficient is 0 * inf: |phi|**2 underflows, |phi+theta|/|phi| overflows
    ["oracle", "arma11", "--phi=-1e-200", "--theta=-1e201", "--alpha", 1],
]


@pytest.mark.parametrize("argv", BAD_MODEL_PARAMETERS, ids=lambda a: " ".join(map(str, a)))
def test_bad_model_parameters_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    sink = ["--out-dir", out] if argv[0] == "oracle" else ["--n", 10, "--seed", 1, "--out", out]
    assert run([*argv, *sink]) == 2
    single_error(capsys)
    assert not out.exists()


# each size asks for more than a 2**47-byte address space, so a size that
# went unchecked would fail in the allocator at once, not after allocating
HUGE = 10**17
SIZES_ABOVE_LIMIT = [
    ["simulate", "iid", "--n", HUGE, "--seed", 1],
    ["simulate", "arma11", "--phi", 0.8, "--theta", 0.1, "--burnin", HUGE, "--n", 10, "--seed", 1],
    # the filter tail needs 1.4e16 coefficients
    ["simulate", "maxma", "--phi", 0.97, "--theta", 0.5, "--noise", "t:1e-13", "--n", 10,
     "--seed", 1],
    ["analyze", "--window", f"daniell:{HUGE}"],
    ["analyze", "--grid", f"fourier:{HUGE}"],
    ["analyze", "--grid", f"linspace:0.5:2.5:{HUGE}"],
    ["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3, "--max-lag", HUGE],
    ["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 1e-13],  # series depth 1.2e15
]


@pytest.mark.parametrize("argv", SIZES_ABOVE_LIMIT, ids=lambda a: " ".join(map(str, a)))
def test_size_above_memory_limit_exit_2(argv, sim_file, tmp_path, capsys):
    out = tmp_path / "out"
    sink = {
        "simulate": ["--out", out],
        "analyze": ["--input", sim_file, "--out-dir", out],
        "oracle": ["--out-dir", out],
    }[argv[0]]
    assert run([*argv, *sink]) == 2
    assert "byte limit" in single_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["oracle", "arma11", "--phi", 0.8, "--alpha", 3, "--grid", "list:0.5,1.5", "--out-dir"],
     ["simulate", "arma11", "--phi", 0.8, "--n", 20, "--seed", 1, "--out"]],
    ids=["oracle", "simulate"],
)
def test_negative_exponent_value_is_not_a_flag(argv, tmp_path):
    outputs = []
    for i, theta in enumerate([["--theta", "-1e-3"], ["--theta=-1e-3"]]):
        out = tmp_path / str(i)
        assert run([*argv[:2], *theta, *argv[2:], out]) == 0
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        outputs.append([f.read_bytes() for f in files])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# argv property: any flag values give exit 0, 2 or 3, never a traceback

# values that break a flag; "1e308" stands in for huge, except on the size
# flags (--n, --burnin, --max-lag, daniell:S, fourier:N, linspace K), which
# take integers and are checked against the memory limit before allocating
NASTY = ["nan", "inf", "-inf", "-1", "0", "", "1e308"]
SIZE_NASTY = ["nan", "-1", "0", "", "4096", str(HUGE)]

SIMULATE_FLAGS = {
    "--noise": (["t:3", "pareto:3:0.5", "pareto:2"],
                [f"t:{v}" for v in NASTY] + [f"pareto:{v}" for v in NASTY]
                + ["pareto:3:nan", "pareto:3:2", "gauss:1"]),
    "--phi": (["0.8", "-0.6", "0.5"], NASTY),
    "--theta": (["0.1", "-1.2", "0.9", "-0.5"], NASTY),
    "--logvol-ar": (["0.5", "-0.3"], NASTY),
    "--logvol-sd": (["0.2", "0"], NASTY),
    "--psi": (["1,0.9,0.72", "0.5,-1"], ["1,nan", "1,inf", "0,0", "abc", "1e308,1", ""]),
    "--trunc-eps": (["1e-6", "1e-3"], NASTY),
    "--burnin": (["0", "20"], SIZE_NASTY),
    "--n": (["1", "40", "300"], SIZE_NASTY),
    "--seed": (["0", "7"], ["-1", "", "nan", str(2**64)]),
}
GRID_NASTY = ["fourier:0", "fourier:-1", "fourier:4096", "linspace:0.5:2.5:4096",
              f"fourier:{HUGE}", f"linspace:0.5:2.5:{HUGE}",
              "linspace:nan:1:3", "linspace:0.5:inf:3", "linspace:0.5:2.5:0", "list:",
              "list:nan", "list:inf", "list:1e308", "list:-1", "list:2,1", "", "mesh:1"]
ANALYZE_FLAGS = {
    "--input": (["series.csv"], ["header.csv", "latin1.csv", "empty.csv", "nan.csv",
                                 "missing.csv"]),
    "--q": (["0.9", "0.95"], NASTY),
    "--tail-set": (["upper:1", "lower:1", "interval:1:3"],
                   [f"upper:{v}" for v in NASTY] + ["interval:3:1", "interval:1:inf", "ball:1"]),
    "--window": (["daniell:2", "daniell:5", "custom:1,2,1"],
                 [f"daniell:{v}" for v in SIZE_NASTY]
                 + ["custom:1,nan,1", "custom:1,inf,1", "custom:", "custom:1,2",
                    "custom:1e308,1e308,1e308", "custom:0,0,0", "custom:-1,1,1"]),
    "--grid": (["fourier", "fourier:64", "linspace:0.5:2.5:9", "list:0.6,1.2,2.4"],
               GRID_NASTY),
    "--max-lag": (["0", "3", "50"], SIZE_NASTY),
    "--band": (["none", "surrogate", "permutation"], ["bogus", ""]),
    "--replicates": (["19", "29"], ["0", "1", "-1", "", "nan"]),
    "--band-seed": (["0", "3"], ["-1", "", "nan", str(2**64)]),
    "--level": (["0.05", "0.1"], NASTY),
    "--format": (["csv", "json"], ["xml", ""]),
}
ORACLE_FLAGS = {
    "--phi": (["0.8", "-0.6", "0.5"], NASTY),
    "--theta": (["0.1", "-1.2", "0.9", "-0.5"], NASTY),
    "--alpha": (["3", "1.5"], NASTY),
    "--p": (["0.5", "0", "1"], NASTY),
    "--grid": (["linspace:0.01:3.13:64", "fourier:100", "list:0.5,1.0,2.0"],
               GRID_NASTY + ["fourier"]),
    "--max-lag": (["0", "3", "50"], SIZE_NASTY),
}
COMMANDS = {
    "simulate": (["iid", "arma11", "sv", "maxma"], SIMULATE_FLAGS),
    "analyze": ([], ANALYZE_FLAGS),
    "oracle": (["arma11"], ORACLE_FLAGS),
}


@st.composite
def argvs(draw):
    """A valid command with up to two flags broken, dropped or left at default."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, flags = COMMANDS[command]
    argv = [command] + ([draw(st.sampled_from(positionals + ["bogus"]))] if positionals else [])
    broken = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    for flag, (valid, nasty) in flags.items():
        if flag in broken:
            value = draw(st.sampled_from(nasty + [None]))  # None drops the flag
        else:
            value = draw(st.sampled_from(valid))
        if value is not None:
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return argv


def _table(path):
    """Columns of a CSV or JSON table written by the CLI, nan where undefined."""
    if path.suffix == ".json":
        rows = json.loads(path.read_text())["rows"]
        return {k: np.array([np.nan if r[k] is None else r[k] for r in rows]) for k in rows[0]}
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    values = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    return dict(zip(names, values.reshape(-1, len(names)).T))


def _assert_finite_outputs(command, out):
    if command == "simulate":
        x = np.array([float(l) for l in (out / "x.csv").read_text().splitlines()
                      if not l.startswith("#")])
        assert x.size and np.all(np.isfinite(x))
        return
    manifest = json.loads((out / "manifest.json").read_text())
    if command == "oracle":
        assert math.isfinite(manifest["max_series_residual"])
    else:
        assert math.isfinite(manifest["threshold"]) and 0 < manifest["event_rate"] <= 1
    for table in (_table(out / name) for name in manifest["outputs"].values()):
        for name, col in table.items():
            if name in ("smoothed", "lower", "upper"):
                # undefined where the smoothing window leaves (0, pi)
                assert not np.any(np.isinf(col)), name
            else:
                assert np.all(np.isfinite(col)), name
        if "smoothed" in table:
            undefined = np.isnan(table["smoothed"])
            assert np.all(np.isnan(table["lower"][undefined]))


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A directory holding the analyze inputs the argv property names."""
    root = tmp_path_factory.mktemp("argv")
    x = np.random.default_rng(1).standard_t(3, 512)
    (root / "series.csv").write_text("".join(f"{v!r}\n" for v in x.tolist()))
    (root / "header.csv").write_text("x\n")
    (root / "latin1.csv").write_bytes("caf\xe9\n1.0\n".encode("latin-1"))
    (root / "empty.csv").write_text("")
    (root / "nan.csv").write_text("1.0\nnan\n2.0\n")
    return root


class TestArgvProperty:
    @given(argv=argvs())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_error_line_and_finite_outputs(self, argv, argv_dir):
        out = Path(tempfile.mkdtemp(dir=argv_dir))
        argv = [f"{argv_dir}/{a}" if prev == "--input"
                else a.replace("--input=", f"--input={argv_dir}/")
                for prev, a in zip(["", *argv], argv)]
        argv += [f"--out={out / 'x.csv'}"] if argv[0] == "simulate" else [f"--out-dir={out}"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the flag itself
                    code = exc.code
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        assert "Traceback" not in err, (argv, err)
        if code == 0:
            _assert_finite_outputs(argv[0], out)
        else:
            assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)


# ---------------------------------------------------------------------------
# start-up: importing the CLI loads numpy and the package only, and running a
# command imports no further scipy or numpy module

STARTUP_PROBE = """
import json, sys
import extspec.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded on import"
before = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    assert extspec.cli.main(argv) == 0, argv
late = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("scipy", "numpy"))
print(json.dumps(late))
"""


def test_commands_import_no_scipy_or_numpy_module(tmp_path):
    x, out = str(tmp_path / "x.csv"), str(tmp_path / "out")
    analyze = ["analyze", "--input", x, "--out-dir", out, "--window", "daniell:5"]
    commands = [
        ["simulate", "sv", "--logvol-ar", "0.5", "--logvol-sd", "0.3", "--n", "512", "--seed", "1",
         "--out", x],
        ["simulate", "arma11", "--phi", "0.8", "--theta", "0.1", "--n", "2048", "--seed", "1",
         "--out", x],
        [*analyze, "--band", "surrogate"],
        [*analyze, "--band", "permutation", "--replicates", "19"],
        ["oracle", "arma11", "--phi", "0.8", "--theta", "0.1", "--alpha", "3", "--out-dir", out],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
