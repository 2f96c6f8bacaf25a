import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extspec.cli import (
    _write_records_json,
    _write_table,
    main,
    parse_grid,
    parse_noise,
    parse_tail_set,
    parse_window,
    read_series_csv,
)
from extspec import (
    Arma11Spec,
    Band,
    InputError,
    Interval,
    LowerRay,
    ParameterError,
    ParetoBalanced,
    StudentT,
    UpperRay,
    cli,
    daniell_window,
    estimators,
    exceedance_indicators,
    fourier_grid,
    inference,
    oracles,
    permutation_band,
    simulate_arma11,
    smoothed_at_frequencies,
    smoothed_curve,
    surrogate_band,
    threshold_from_quantile,
)


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
        assert parse_tail_set("upper:1") == UpperRay(1.0)
        assert parse_tail_set("lower:2.5") == LowerRay(2.5)
        assert parse_tail_set("interval:1:2") == Interval(1.0, 2.0)
        with pytest.raises(ParameterError):
            parse_tail_set("ball:1")

    def test_windows(self):
        assert parse_window("daniell:5").half_width == 5
        w = parse_window("custom:1,2,1")
        assert w.half_width == 1 and w.weights.tolist() == [0.25, 0.5, 0.25]
        with pytest.raises(ParameterError):
            parse_window("custom:1,2")

    def test_grids(self):
        g = parse_grid("fourier:16")
        assert len(g) == 7
        g = parse_grid("linspace:0.1:3.0:11")
        assert len(g) == 11
        g = parse_grid("list:0.5,1.0,2.0")
        assert np.allclose(g.freqs, [0.5, 1.0, 2.0])
        with pytest.raises(ParameterError):
            parse_grid("mesh:1")


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
            # the second case puts a comment, a blank line and a header before the bad row
            for text, line in ((f"1\n2\n{bad}\n4\n", 3), (f"# c\n\nvalue\n{bad}\n4\n", 4)):
                f.write_text(text)
                with pytest.raises(InputError, match=f"line {line}"):
                    read_series_csv(f)

    def test_byte_order_mark(self, tmp_path):
        # the mark is not part of the first cell, which would otherwise read as a header
        f = tmp_path / "x.csv"
        f.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert read_series_csv(f).tolist() == [1.5, 2.5, 3.5]
        f.write_bytes(b"\xef\xbb\xbf# c\nvalue\n1\n2\n")
        assert read_series_csv(f).tolist() == [1.0, 2.0]
        f.write_bytes(b"\xef\xbb\xbf# c\nvalue\n1\noops\n")
        with pytest.raises(InputError, match="line 4"):
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
    @example(content=b"# caf\xe9\n1.0\n")
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


def template_table(columns) -> bytes:
    """The reference bytes: one ``{:.17g}`` row template through ``str.format``."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["{:.17g}"] * len(cols)) + "\n"
    return (row * cols[0].size).format(*np.column_stack(cols).ravel().tolist()).encode()


# neighbours of the powers of ten where log10 can land a decade off
POWER_NEIGHBOURS = [
    np.nextafter(float(f"1e{j}"), toward) for j in range(-5, 18) for toward in (0.0, math.inf)
]


# cells the writer prints in fixed point, 1e-4 <= |v| < 1e17, with either sign
FIXED_POINT = st.builds(
    math.copysign, st.floats(1e-4, 1e17, exclude_max=True), st.sampled_from([1.0, -1.0])
)
# per decimal exponent e = -4..16, with either sign: 17 significant digits (the
# widest fraction) and, for e >= 0, a whole number (no point) and one with a
# single fraction digit
FIXED_POINT_EXAMPLES = [123.0, 12.5, 1e16, 12345678901234567.0, 0.00012345678901234567]
for e in range(-4, 17):
    FIXED_POINT_EXAMPLES.append(float(f"1.2345678901234567e{e}"))
    if e >= 0:
        whole = float("12345678901234567"[: e + 1])
        FIXED_POINT_EXAMPLES += [whole, whole + 0.5]
FIXED_POINT_EXAMPLES += [-v for v in FIXED_POINT_EXAMPLES]


class TestWriteTable:
    @given(
        table=st.integers(1, 5).flatmap(
            lambda k: st.lists(
                st.lists(st.one_of(st.floats(), FIXED_POINT), min_size=k, max_size=k), min_size=1
            )
        ),
        chunk=st.integers(1, 16),
    )
    @example(table=[[1 + 2**-17]], chunk=16)  # half-even tie: 1.0000076293945312
    @example(table=[[9.9999999999999991e-05], [0.0001], [1e-4]], chunk=16)
    @example(table=[[v] for v in POWER_NEIGHBOURS], chunk=16)
    @example(table=[[1e17], [99999999999999999.0]], chunk=16)
    @example(table=[[v] for v in FIXED_POINT_EXAMPLES], chunk=16)
    @example(table=[[50.0, 0.1, 0.0, -0.0, 5e-324], [1e308, -1e308, -5e-324, 1e-4, -50.0]], chunk=3)
    # a chunk with no fixed-point cell
    @example(table=[[1e-9, -0.0], [math.inf, math.nan], [-2.5e20, 5e-324]], chunk=16)
    @settings(max_examples=300, deadline=None)
    def test_cells_match_format_17g(self, table, chunk, tmp_path_factory):
        columns = {f"c{j}": [row[j] for row in table] for j in range(len(table[0]))}
        out = tmp_path_factory.mktemp("table") / "t.csv"
        with mock.patch.object(cli, "_CHUNK_CELLS", chunk):
            _write_table(out, ["a comment"], columns)
        expected = b"# a comment\n" + ",".join(columns).encode() + b"\n"
        assert out.read_bytes() == expected + template_table(columns.values())

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        # the writer formats one chunk of cells at a time, so its peak is set
        # by the chunk size: 2^13 rows peak where 2^11 rows do (chunks of 2^10
        # cells); every chunk holds cells that take the format() fallback
        monkeypatch.setattr(cli, "_CHUNK_CELLS", 2**10)
        rng = np.random.default_rng(0)
        out = tmp_path / "t.csv"
        peaks = {}
        for rows in (2**11, 2**13):
            columns = {name: rng.standard_normal(rows) for name in "abcde"}
            columns["f"] = np.resize([math.nan, 0.0, 1e-300, 1e300], rows)
            peaks[rows] = traced_peak(lambda: _write_table(out, ["six columns"], columns))
            assert out.read_bytes().count(b"\n") == rows + 2  # comment, header, rows
        assert peaks[2**13] <= 1.05 * peaks[2**11]

    def test_format_cells_peak_per_cell(self):
        # each cell is built in one 28-byte row: a chunk of 4,096 N(0,1) cells
        # peaks near 190 bytes a cell
        v = np.random.default_rng(2).standard_normal(4096)
        seps = np.resize(np.frombuffer(b",\n", np.uint8), v.size)
        assert traced_peak(lambda: cli._format_cells(v, seps)) <= 256 * v.size


class TestWriteRecordsJson:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 2**12])
    def test_bytes_match_json_dump(self, chunk, tmp_path, monkeypatch):
        # the streamed text is json.dump's text of the whole document, for chunks
        # that split rows anywhere; nan cells are null
        monkeypatch.setattr(cli, "_CHUNK_CELLS", chunk)
        values = [math.nan, -0.0, 5e-324, 1e308, -1e308, 0.1, -2.5, 1 / 3, 1e-7, 3.0]
        columns = {"upper": np.array(values), "h": np.arange(10), "lambda": np.array(values[::-1])}
        meta = {"q": 0.95, "input": "x\u00e9.csv", "window": "daniell:2"}
        _write_records_json(tmp_path / "t.json", meta, columns)
        rows = [{k: None if math.isnan(v) else v for k, v in zip(columns, cells)}
                for cells in zip(*(np.asarray(c, dtype=float).tolist() for c in columns.values()))]
        expected = json.dumps({"config": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "t.json").read_text() == expected

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # rows are written one chunk at a time: 2^13 rows peak where 2^11 do
        rng = np.random.default_rng(1)
        peaks = {}
        for rows in (2**11, 2**13):
            columns = {name: rng.standard_normal(rows) for name in "abcde"}
            path = tmp_path / f"t{rows}.json"
            peaks[rows] = traced_peak(lambda: _write_records_json(path, {"n": rows}, columns))
            assert len(json.loads(path.read_text())["rows"]) == rows
        assert peaks[2**13] <= 1.05 * peaks[2**11]


# ---------------------------------------------------------------------------
# rejected commands: each exits 2 or 3 with one error line and writes nothing


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of the analyze inputs that the rejections and the argv property name."""
    root = tmp_path_factory.mktemp("inputs")
    x = np.random.default_rng(1).standard_t(3, 512)
    (root / "series.csv").write_text("".join(f"{v!r}\n" for v in x.tolist()))
    (root / "header.csv").write_text("x\n")
    (root / "latin1.csv").write_bytes("caf\xe9\n1.0\n".encode("latin-1"))
    (root / "latin1-comment.csv").write_bytes("# caf\xe9\n1.0\n2.0\n".encode("latin-1"))
    (root / "empty.csv").write_text("")
    (root / "nan.csv").write_text("1.0\nnan\n2.0\n")
    for bad in ("three", "nan", "inf", "-inf"):
        (root / f"line3-{bad}.csv").write_text(f"1\n2\n{bad}\n")
    (root / "negative.csv").write_text("".join(f"{-v}\n" for v in range(1, 201)))
    return root


# flags each command starts from; argparse keeps a flag's last value, so a row's own
# flags win.  analyze reads the module's series unless a row names an input
BASE = {"simulate": ["--n", 10, "--seed", 1], "analyze": [],
        "oracle": ["--phi", 0.8, "--theta", 0.1, "--alpha", 3]}


@pytest.fixture
def rejected(sim_file, inputs, tmp_path, capsys):
    """``check(argv, code, words)`` runs ``argv`` on top of BASE and returns its error line.

    The command must exit ``code`` and write nothing: one stderr line that starts
    with ``error: `` and holds ``words``, no traceback, no stdout and no output path.
    An ``--input`` value names a file of ``inputs``.
    """
    out = tmp_path / "out"

    def check(argv, code, words):
        command, *flags = argv
        flags = [inputs / a if prev == "--input" else a for prev, a in zip(["", *flags], flags)]
        source = ["--input", sim_file] if command == "analyze" else []
        sink = ["--out" if command == "simulate" else "--out-dir", out]
        assert run([command, *BASE[command], *source, *flags, *sink]) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert "Traceback" not in captured.err
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert words in lines[0]
        assert not captured.out and not out.exists()
        return lines[0]

    return check


MISSING = ["--input", "missing.csv"]  # a rule checked before the read meets no file
SEED = "seed must be a nonnegative integer"
OVERFLOW = "the model parameters overflow"
INCREASING = "frequencies must be strictly increasing"


def argv_rows(*rows):
    """``(argv, words)`` rows for parametrize, each test id being the row's argv."""
    return [pytest.param(argv, words, id=" ".join(map(str, argv))) for argv, words in rows]


# model and oracle parameters that are not finite, or that overflow what
# they produce, used to exit 0 with nan or inf values or end in a traceback
@pytest.mark.parametrize("argv, words", argv_rows(
    (["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "nan"],
     "log-volatility innovation sd must be finite"),
    (["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "inf"],
     "log-volatility innovation sd must be finite"),
    (["simulate", "sv", "--logvol-ar", 0.5, "--logvol-sd", "1e308"], OVERFLOW),
    (["simulate", "iid", "--noise", "t:inf"], "degrees of freedom must be finite"),
    (["simulate", "iid", "--noise", "pareto:inf"], "tail index alpha must be finite"),
    (["simulate", "iid", "--noise", "pareto:1e-300"], OVERFLOW),
    (["simulate", "arma11", "--phi", 0.8, "--theta", "nan"], "need a finite theta"),
    (["simulate", "arma11", "--phi", 0.8, "--theta", "inf"], "need a finite theta"),
    (["simulate", "arma11", "--phi", 0.8, "--theta", "1e308"], OVERFLOW),
    (["simulate", "maxma", "--phi", 0.5, "--theta", 0.3, "--trunc-eps", "inf"],
     "relative tolerance must be finite"),
    (["simulate", "maxma", "--phi", 0.5, "--theta", "nan"], "need a finite theta"),
    (["simulate", "maxma", "--psi", "abc"], "bad --psi 'abc'"),
    (["oracle", "arma11", "--phi", 0.8, "--theta", "nan", "--alpha", 3], "need a finite theta"),
    (["oracle", "arma11", "--phi", 0.8, "--theta", "inf", "--alpha", 3], "need a finite theta"),
    (["oracle", "arma11", "--phi", 0.8, "--theta", "1e308", "--alpha", 3],
     "|phi+theta|**alpha overflows"),
    (["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", "inf"],
     "tail index alpha must be finite"),
    (["oracle", "arma11", "--phi", 0.5, "--theta", -1.2, "--alpha", "1e308", "--p", 0],
     "|phi|**alpha rounds to 0"),
    # |phi|**alpha underflows to 0, and |phi|**alpha rounds to 1 in the max-MA filter tail
    (["oracle", "arma11", "--phi", -0.6, "--theta", 0.1, "--alpha", "1e308"],
     "|phi|**alpha rounds to 0"),
    (["oracle", "arma11", "--phi", 0.5, "--theta", 0.5, "--alpha", 2000],
     "|phi|**alpha rounds to 0"),
    (["simulate", "maxma", "--phi", 0.97, "--theta", 0.5, "--noise", "t:1e-17"],
     "|ratio|**alpha rounds to 1"),
    # a closed-form coefficient is 0 * inf: |phi|**2 underflows, |phi+theta|/|phi| overflows
    (["oracle", "arma11", "--phi=-1e-200", "--theta=-1e201", "--alpha", 1],
     "the closed form overflows"),
))  # fmt: skip
def test_bad_model_parameters_exit_2(argv, words, rejected):
    rejected(argv, 2, words)


def test_overflow_in_the_filter_lanes_exit_2(rejected):
    # BASE's --n 10 runs the filter's scalar loop alone; 200,000 values run its lanes
    rejected(["simulate", "arma11", "--phi", 0.8, "--theta", "1e308", "--n", 200_000], 2, OVERFLOW)


# each size asks for more than a 2**47-byte address space, so a size that
# went unchecked would fail in the allocator at once, not after allocating.
# A row's argv is its test id, so some rows repeat flags that BASE also gives
HUGE = 10**17


@pytest.mark.parametrize("argv", [
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
], ids=lambda argv: " ".join(map(str, argv)))  # fmt: skip
def test_size_above_memory_limit_exit_2(argv, rejected):
    rejected(argv, 2, "bytes, above the 1073741824-byte limit")


# flags that break a rule of the README, and the words of the one error line that names it
@pytest.mark.parametrize("argv, words", argv_rows(
    (["simulate", "arma11", "--phi", 0.8, "--n", 10, "--seed", 1],
     "arma11 needs --phi and --theta"),
    (["simulate", "maxma", "--n", 10, "--seed", 1], "maxma needs --psi or both --phi and --theta"),
    (["simulate", "maxma", "--phi", 0.8, "--n", 10, "--seed", 1],
     "maxma needs --psi or both --phi and --theta"),
    (["analyze", "--tail-set", "upper:abc"], "bad tail set 'upper:abc'"),
    (["analyze", "--window", "gauss:3"], "bad window 'gauss:3': expected daniell:S or custom:"),
    (["analyze", "--grid", "list:1.2,0.6"], INCREASING),
    (["analyze", "--grid", "list:1.0,1.0"], INCREASING),
    (["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3, "--grid",
      "linspace:1:0.5:3"], INCREASING),
    (["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 3, "--grid", "fourier"],
     "fourier grid needs a series length"),
))  # fmt: skip
def test_broken_rule_exit_2_names_it(argv, words, rejected):
    rejected(argv, 2, words)


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

    def test_bad_parameters_exit_2(self, rejected):
        rejected(["simulate", "arma11", "--phi", 1.5, "--theta", 0.0], 2, "need 0 < |phi| < 1")
        assert rejected(["simulate", "iid", "--n", 0], 2, "need n >= 1") == "error: need n >= 1"

    def test_bad_noise_exit_2(self, rejected):
        words = "bad noise spec 'cauchy': expected t:NU or pareto:ALPHA[:P]"
        assert rejected(["simulate", "iid", "--noise", "cauchy"], 2, words) == "error: " + words

    @pytest.mark.parametrize("model", [
        ["iid"], ["arma11", "--phi", 0.8, "--theta", 0.1],
        ["sv", "--logvol-ar", 0.5, "--logvol-sd", 0.2], ["maxma", "--phi", 0.8, "--theta", 0.1],
    ])  # fmt: skip
    def test_negative_seed_exit_2(self, model, rejected):
        assert rejected(["simulate", *model, "--seed", -1], 2, SEED) == "error: " + SEED

    @pytest.mark.parametrize("psi", ["1,nan", "1,inf", "0.5,-inf"])
    def test_non_finite_psi_exit_2(self, psi, rejected):
        words = "max-moving-average coefficients must be finite"
        assert rejected(["simulate", "maxma", "--psi", psi], 2, words) == "error: " + words


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

    def test_zero_exceedances_exit_3(self, rejected):
        rejected(["analyze", "--input", "negative.csv", "--q", 0.9], 3,
                 "is not positive; too few positive observations for scaled tail events")

    def test_missing_input_exit_2(self, rejected, inputs):
        words = f"input file not found: {inputs / 'missing.csv'}"
        assert rejected(["analyze", *MISSING], 2, words) == "error: " + words

    # the input does not exist: each flag below is rejected before it is read
    @pytest.mark.parametrize(
        "flag", [["--level", 0], ["--level", 1], ["--level", "nan"], ["--max-lag", -1]],
        ids=lambda f: f"{f[0]}={f[1]}",
    )
    def test_bad_level_or_max_lag_exit_2_before_reading(self, flag, rejected):
        rule = "level must lie in (0, 1)" if flag[0] == "--level" else "max lag must be nonnegative"
        assert rejected(["analyze", *MISSING, *flag], 2, rule) == "error: " + rule

    def test_level_with_surrogate_band_exit_2_before_reading(self, rejected):
        # the surrogate band is a 95% band whatever the level, so another level is refused
        words = "--level sets the permutation band; the surrogate band is 95% only"
        argv = ["analyze", *MISSING, "--band", "surrogate", "--level", 0.3]
        assert rejected(argv, 2, words) == "error: " + words

    @pytest.mark.parametrize(
        "flag, words",
        [(["--replicates", 1], "need at least two replicates"),
         (["--band-seed", -1], "band seed must be a nonnegative integer")],
        ids=["replicates", "seed"],
    )
    def test_bad_band_flag_exit_2_before_reading(self, flag, words, rejected):
        argv = ["analyze", *MISSING, "--band", "permutation", *flag]
        assert rejected(argv, 2, words) == "error: " + words

    def test_bad_grid_exit_2_before_reading(self, rejected):
        # a grid that needs no series length is parsed before the read
        words = "bad grid 'linspace:1:2': expected fourier[:N], linspace:A:B:K or list:l1,l2,..."
        argv = ["analyze", *MISSING, "--grid", "linspace:1:2"]
        assert rejected(argv, 2, words) == "error: " + words

    def test_no_tail_events_exit_3(self, rejected):
        line = rejected(["analyze", "--tail-set", "upper:1e9"], 3, "no tail events")
        assert line.startswith("error: no tail events")

    @pytest.mark.parametrize("grid", ["list:", "linspace:0.5:2.5:0", "fourier:2"])
    def test_empty_grid_exit_2(self, grid, rejected):
        words = f"bad grid '{grid}': frequency grid is empty"
        assert rejected(["analyze", "--grid", grid], 2, words) == "error: " + words

    def test_malformed_input_exit_2_names_line(self, rejected, inputs):
        for bad, rule in (("three", "not a number"), ("nan", "non-finite value"),
                          ("inf", "non-finite value"), ("-inf", "non-finite value")):
            path = inputs / f"line3-{bad}.csv"
            words = f"{path}: line 3: {rule}: '{bad}'"
            assert rejected(["analyze", "--input", path], 2, words) == "error: " + words

    def test_non_utf8_input_exit_2(self, rejected, inputs):
        # the one byte that is not UTF-8 is in a comment line, then in the first data line
        for name in ("latin1-comment.csv", "latin1.csv"):
            rejected(["analyze", "--input", name], 2, f"{inputs / name}: not a UTF-8 text file")

    def test_negative_band_seed_exit_2(self, rejected):
        words = "band seed must be a nonnegative integer"
        argv = ["analyze", "--q", 0.95, "--window", "daniell:10", "--grid", "list:0.8,1.2",
                "--band", "permutation", "--replicates", 19, "--band-seed", -1]
        assert rejected(argv, 2, words) == "error: " + words

    @pytest.mark.parametrize(
        "window", ["custom:1,inf,1", "custom:1,nan,1", "custom:-inf", "custom:1e308,1e308,1e308"]
    )
    def test_non_finite_window_weight_exit_2(self, window, rejected):
        rule = "have a finite sum" if "1e308" in window else "be finite"
        words = f"bad window '{window}': weights must {rule}"
        assert rejected(["analyze", "--window", window], 2, words) == "error: " + words

    def test_too_wide_window_exit_2(self, rejected):
        # n = 4096: a half-width of n/2 leaves no admissible window on any grid
        for grid, words in (
            ("fourier", "series too short for this smoothing half-width"),
            ("list:0.5,1.5",
             "smoothing window of half-width 2048 around frequency 0.5 leaves (0, pi)"),
        ):
            argv = ["analyze", "--q", 0.95, "--window", "daniell:2048", "--grid", grid]
            assert rejected(argv, 2, words).startswith("error: " + words)

    def test_window_leaving_0_pi_exit_2_before_the_direct_sums(self, rejected, monkeypatch):
        # off the Fourier grid of n the smoothed values come first: a window that
        # leaves (0, pi) costs none of the O(n)-per-frequency direct sums
        def no_direct_sums(*args):
            raise AssertionError("the direct sums ran")

        monkeypatch.setattr(estimators, "_direct_sums", no_direct_sums)
        words = "smoothing window of half-width 50 around frequency 0.0001 leaves (0, pi)"
        line = rejected(["analyze", "--grid", "list:0.0001"], 2, words)
        assert line.startswith("error: " + words)

    def test_band_above_memory_limit_exit_2(self, rejected, monkeypatch):
        def no_seeds(*args, **kwargs):
            raise AssertionError("the band spawned seeds before checking its memory bound")

        monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
        rejected(["analyze", "--q", 0.95, "--window", "daniell:10", "--grid", "list:0.8,1.2",
                  "--band", "permutation", "--replicates", 10**15], 2, "byte limit")

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

    def test_json_infinite_cell_exit_2_before_writing(self, rejected, sim_file, tmp_path,
                                                       monkeypatch):
        def infinite_band(curve, window):
            upper = curve.values * 2.0
            upper[1] = math.inf
            return Band(grid=curve.grid, lower=-upper, upper=upper)

        monkeypatch.setattr(inference, "surrogate_band", infinite_band)
        argv = ["analyze", "--q", 0.95, "--window", "daniell:10", "--band", "surrogate"]
        words = "spectrum column 'lower' holds an infinity"
        assert rejected([*argv, "--format", "json"], 2, words).startswith("error: " + words)
        # CSV writes infinities as text
        out = tmp_path / "csv"
        assert run([*argv, "--input", sim_file, "--out-dir", out]) == 0
        assert "-inf" in (out / "spectrum.csv").read_text()

    def test_permutation_band_reruns_identical(self, sim_file, tmp_path):
        args = ["analyze", "--input", sim_file, "--q", 0.95, "--window", "daniell:10",
                "--band", "permutation", "--replicates", 29, "--band-seed", 4,
                "--grid", "list:0.8,1.2,1.6,2.0"]
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()

    def test_one_fft_per_run(self, sim_file, tmp_path, monkeypatch):
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        # off the Fourier grid of n the raw ordinates are direct sums: still one FFT
        for grid in ("fourier", "linspace:0.5:2.5:9"):
            calls.clear()
            assert run(["analyze", "--input", sim_file, "--out-dir", tmp_path / "f", "--q", 0.95,
                        "--window", "daniell:10", "--band", "surrogate", "--grid", grid]) == 0
            assert len(calls) == 1, grid

    def test_custom_grid_rows(self, sim_file, tmp_path):
        out = tmp_path / "g"
        assert run(["analyze", "--input", sim_file, "--out-dir", out, "--q", 0.95,
                    "--window", "daniell:10", "--grid", "linspace:0.5:2.5:9"]) == 0
        assert len(data_rows(out / "spectrum.csv")) == 9 + 1


def _analyze_peak(tmp_path, n, *flags):
    """Traced peak bytes of ``analyze`` on an ARMA(1,1) draw of n values."""
    path = tmp_path / "x.csv"
    assert run(["simulate", "arma11", "--phi", 0.8, "--theta", 0.1, "--noise", "t:3",
                "--n", n, "--seed", 1, "--out", path]) == 0
    args = cli.build_parser().parse_args(
        ["analyze", "--input", str(path), "--out-dir", str(tmp_path / "o"), *flags]
    )
    return traced_peak(lambda: cli.run_analysis(args))


@pytest.mark.parametrize("band, per_value", [("none", 40), ("surrogate", 41), ("permutation", 114)])
def test_analyze_peak_memory(band, per_value, tmp_path):
    # traced peak of the whole CSV pipeline at n = 2^16, measured at 36.9n, 37.1n and
    # 109.8n bytes: a stage that keeps one more n-long array alive fails it
    n = 2**16
    assert _analyze_peak(tmp_path, n, "--band", band) <= per_value * n


@pytest.mark.parametrize("band, per_value", [("none", 36), ("surrogate", 41), ("permutation", 114)])
def test_analyze_json_peak_memory(band, per_value, tmp_path):
    # the same with JSON output, measured at 32.4n, 37.1n and 109.8n bytes
    n = 2**16
    assert _analyze_peak(tmp_path, n, "--band", band, "--format", "json") <= per_value * n


@pytest.mark.parametrize("model, flags, per_value", [
    ("arma11", ["--phi", 0.8, "--theta", 0.1], 22),
    ("sv", ["--logvol-ar", 0.8, "--logvol-sd", 0.5], 28),
    ("arma11", ["--phi", 0.99, "--theta", 0.1], 25),
    ("sv", ["--logvol-ar", 0.9, "--logvol-sd", 0.5], 32),
], ids=["arma11-22", "sv-28", "arma11-plain-loop-25", "sv-plain-loop-32"])  # fmt: skip
def test_simulate_peak_memory(model, flags, per_value, tmp_path):
    # traced peak of the whole command at n = 2^16, measured at 19.9n and 26.1n bytes:
    # the draw, the filter's lanes and the writer's chunks.  At |a| 0.99 and 0.9 the
    # filter has too few lanes and takes the plain loop, measured at 21.8n and 28.9n
    n = 2**16
    argv = ["simulate", model, *flags, "--n", n, "--seed", 1, "--out", tmp_path / "x.csv"]
    assert traced_peak(lambda: run(argv)) <= per_value * n


def _oracle_peak(tmp_path, phi, theta, k):
    """Traced peak bytes of ``oracle arma11`` at alpha 3 on k grid points."""
    argv = ["oracle", "arma11", "--phi", phi, "--theta", theta, "--alpha", 3,
            "--grid", f"linspace:0.001:3.14:{k}", "--out-dir", tmp_path / "o"]
    return traced_peak(lambda: run(argv))


def test_oracle_peak_memory(tmp_path):
    # traced peak of the whole command on K = 2^16 points, measured at 56.8 bytes a
    # point: the closed form, the series check and the writer's chunks.  One more
    # grid-length array alive (8 bytes a point) fails it
    k = 2**16
    assert _oracle_peak(tmp_path, 0.8, 0.1, k) <= 62 * k


@pytest.mark.parametrize("phi, theta", [(0.8, -1.2), (-0.6, 0.9), (-0.6, 0.1)])
def test_oracle_peak_memory_other_signs(phi, theta, tmp_path):
    # the other three oracle-dense sign cases, measured at 56.5-56.7 bytes a point
    k = 2**16
    assert _oracle_peak(tmp_path, phi, theta, k) <= 62 * k


class TestAnalyzeAgreesWithLibrary:
    """``analyze``'s spectrum columns are the library's values bit for bit.

    The CSV cells are ``.17g`` text, so ``float`` reads each value back exactly.
    """

    @staticmethod
    def _analyze(n, tmp_path, *flags):
        x = simulate_arma11(Arma11Spec(phi=0.8, theta=0.1, noise=StudentT(3)), n, 5)
        path = tmp_path / "x.csv"
        _write_table(path, [], {"x": x}, header=False)
        out = tmp_path / "o"
        assert run(["analyze", "--input", path, "--out-dir", out, "--q", 0.95,
                    "--window", "daniell:10", *flags]) == 0
        ind = exceedance_indicators(x, UpperRay(1.0), threshold_from_quantile(x, 0.95))
        return _table(out / "spectrum.csv"), ind, daniell_window(10)

    @pytest.mark.parametrize("n", [4001, 4096])
    @pytest.mark.parametrize("band", ["surrogate", "permutation"])
    def test_fourier_grid(self, n, band, tmp_path):
        table, ind, w = self._analyze(n, tmp_path, "--band", band,
                                      "--replicates", 19, "--band-seed", 3)
        curve = smoothed_curve(ind, w)
        if band == "surrogate":
            expected = surrogate_band(curve, w)
        else:
            expected = permutation_band(ind, w, curve.grid, 19, 3)
        assert np.array_equal(table["lambda"], fourier_grid(n).freqs)
        at = curve.grid.indices - 1  # the row of Fourier index j is j - 1
        for key, values in (("smoothed", curve.values), ("lower", expected.lower),
                            ("upper", expected.upper)):
            assert np.array_equal(table[key][at], values)
            assert np.isnan(np.delete(table[key], at)).all()

    def test_list_grid(self, tmp_path):
        freqs = [0.6, 1.2, 2.4]
        table, ind, w = self._analyze(4096, tmp_path, "--grid", "list:0.6,1.2,2.4",
                                      "--band", "permutation", "--replicates", 19,
                                      "--band-seed", 3)
        curve = smoothed_at_frequencies(ind, freqs, w)
        band = permutation_band(ind, w, curve.grid, 19, 3)
        assert np.array_equal(table["smoothed"], curve.values)
        assert np.array_equal(table["lower"], band.lower)
        assert np.array_equal(table["upper"], band.upper)


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

    def test_dense_series_check_is_bounded_and_accurate(self, tmp_path):
        # series depth 4,128 on 16,384 points: a frequency x lag matrix would
        # hold 541 MB, where the recurrence holds a few grid-length arrays; and
        # the tail masses past the underflow of 0.8**j (j ~ 3,340) would be
        # lost, leaving a residual of 3.3e-7
        out = tmp_path / "dense"

        def oracle():
            assert run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 0.03,
                        "--grid", "linspace:0.001:3.14:16384", "--out-dir", out]) == 0

        assert traced_peak(oracle) < 64 * 2**20
        assert json.loads((out / "manifest.json").read_text())["max_series_residual"] <= 1e-8

    def test_small_alpha_relative_residual(self, tmp_path):
        # at alpha 0.01 the absolute residual scales with f(0.001) = 746; relative
        # to the density it stays near 1e-9 down to f(3.14) = 0.0011
        out = tmp_path / "small"
        assert run(["oracle", "arma11", "--phi", 0.8, "--theta", 0.1, "--alpha", 0.01,
                    "--grid", "linspace:0.001:3.14:4096", "--out-dir", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["max_series_rel_residual"] <= 1e-8

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

    def test_empty_grid_exit_2(self, rejected):
        for grid in ("list:", "fourier:2"):
            words = f"bad grid '{grid}': frequency grid is empty"
            assert rejected(["oracle", "arma11", "--grid", grid], 2, words) == "error: " + words

    def test_unsupported_case_exit_2(self, rejected):
        rejected(["oracle", "arma11", "--p", 0.0], 2, "requires upper tail mass p > 0")
        # |phi|**alpha rounds to 1: the dependence never decays in floating point
        argv = ["oracle", "arma11", "--phi", "0.9999999999999999", "--alpha", 0.001]
        assert rejected(argv, 2, "|phi|**alpha rounds to 1").startswith("error: |phi|**alpha")

    def test_negative_max_lag_exit_2_before_the_grid(self, rejected, monkeypatch):
        # the lag curve is checked first: a bad --max-lag costs no pass over the grid
        def evaluate(self, freqs):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(oracles.SpectralDensityOracle, "evaluate", evaluate)
        line = rejected(["oracle", "arma11", "--grid", "linspace:0.001:3.14:65536",
                         "--max-lag", -1], 2, "lag must be nonnegative")
        assert line == "error: lag must be nonnegative"


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


class TestArgvProperty:
    @given(argv=argvs())
    @settings(max_examples=300, deadline=None)
    def test_exit_code_error_line_and_finite_outputs(self, argv, inputs):
        out = Path(tempfile.mkdtemp(dir=inputs))
        argv = [f"{inputs}/{a}" if prev == "--input"
                else a.replace("--input=", f"--input={inputs}/")
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
