"""Command line front end: simulate | analyze | oracle.

``simulate`` writes a one-column CSV of a seeded model draw, ``analyze``
runs the threshold -> indicators -> extremogram/spectrum pipeline on a
CSV series, and ``oracle`` emits the closed-form ARMA(1,1) curves for
overlay.  All outputs embed the resolved configuration, so equal
configurations reproduce byte-identical files.

Exit codes: 0 success, 2 parse/configuration error, 3 degenerate data
(e.g. zero tail events).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import estimators, inference, oracles, simulate
from .core import (
    DegenerateDataError,
    FrequencyGrid,
    InputError,
    Interval,
    LowerRay,
    ParameterError,
    TailSet,
    UpperRay,
    exceedance_indicators,
    fourier_grid,
    require_bytes,
    threshold_from_quantile,
    two_product,
)
from .trigsums import SingularFrequencyError

_CHUNK_CELLS = 2**12  # cells formatted per write: bounds the writer's memory
# analyze attributes that do not determine the numbers; the rest is recorded
_NOT_PROVENANCE = ("command", "func", "out_dir")


def _write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Flag parsing helpers


def parse_noise(text: str) -> simulate.NoiseSpec:
    """``t:NU`` or ``pareto:ALPHA:P``."""
    parts = text.split(":")
    try:
        if parts[0] == "t" and len(parts) == 2:
            return simulate.StudentT(df=float(parts[1]))
        if parts[0] == "pareto" and len(parts) in (2, 3):
            share = float(parts[2]) if len(parts) == 3 else 0.5
            return simulate.ParetoBalanced(alpha=float(parts[1]), upper_share=share)
    except ValueError as exc:
        raise ParameterError(f"bad noise spec {text!r}: {exc}") from exc
    raise ParameterError(f"bad noise spec {text!r}: expected t:NU or pareto:ALPHA[:P]")


def parse_tail_set(text: str) -> TailSet:
    """``upper:A``, ``lower:A`` or ``interval:A:B``."""
    parts = text.split(":")
    try:
        if parts[0] == "upper" and len(parts) <= 2:
            return UpperRay(a=float(parts[1]) if len(parts) == 2 else 1.0)
        if parts[0] == "lower" and len(parts) <= 2:
            return LowerRay(a=float(parts[1]) if len(parts) == 2 else 1.0)
        if parts[0] == "interval" and len(parts) == 3:
            return Interval(a=float(parts[1]), b=float(parts[2]))
    except ValueError as exc:
        raise ParameterError(f"bad tail set {text!r}: {exc}") from exc
    raise ParameterError(f"bad tail set {text!r}: expected upper:A, lower:A or interval:A:B")


def parse_window(text: str) -> estimators.WeightWindow:
    """``daniell:S`` or ``custom:w1,w2,...`` (odd count, offsets -s..s)."""
    parts = text.split(":", 1)
    try:
        if parts[0] == "daniell" and len(parts) == 2:
            return estimators.daniell_window(int(parts[1]))
        if parts[0] == "custom" and len(parts) == 2:
            w = [float(v) for v in parts[1].split(",") if v != ""]
            return estimators.WeightWindow(np.asarray(w))
    except ValueError as exc:
        raise ParameterError(f"bad window {text!r}: {exc}") from exc
    raise ParameterError(f"bad window {text!r}: expected daniell:S or custom:w1,w2,...")


def parse_grid(text: str) -> FrequencyGrid:
    """``fourier:N``, ``linspace:A:B:K`` or ``list:l1,l2,...`` (bare ``fourier`` needs a series)."""
    parts = text.split(":")
    try:
        if parts[0] == "fourier" and len(parts) == 2:
            return fourier_grid(int(parts[1]))
        if parts[0] == "linspace" and len(parts) == 4:
            a, b, k = float(parts[1]), float(parts[2]), int(parts[3])
            require_bytes(k, f"{k} grid points")
            return FrequencyGrid.from_frequencies(np.linspace(a, b, k))
        if parts[0] == "list" and len(parts) == 2:
            vals = [float(v) for v in parts[1].split(",") if v != ""]
            return FrequencyGrid.from_frequencies(vals)
    except ValueError as exc:
        raise ParameterError(f"bad grid {text!r}: {exc}") from exc
    if text == "fourier":
        raise ParameterError(f"bad grid {text!r}: fourier grid needs a series length")
    raise ParameterError(
        f"bad grid {text!r}: expected fourier[:N], linspace:A:B:K or list:l1,l2,..."
    )


def read_series_csv(path) -> np.ndarray:
    """Read a one-column CSV: ``#`` comments, one optional header row, an optional BOM.

    After the leading comment and header lines, numpy parses the rest in
    one call.  Input that numpy rejects or reads as non-finite is read
    again by the line reader, whose errors name the line.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    try:
        with path.open(encoding="utf-8-sig") as fh:
            if _skip_to_data(fh):
                x = np.loadtxt(fh, delimiter=",", usecols=0, comments=None, ndmin=1)
                if np.isfinite(x).all():
                    return x
    except ValueError:
        pass
    return _read_series_lines(path)


def _first_cell(raw: str) -> str | None:
    """The stripped first field of a line; None for a blank or ``#`` line."""
    text = raw.strip()
    if not text or text.startswith("#"):
        return None
    return text.split(",")[0].strip()


def _skip_to_data(fh) -> int:
    """Move ``fh`` to its first data line, past comments and a header.

    Returns the number of that line, or 0 if there is none.
    """
    header_allowed = True
    lineno = 0
    while True:
        lineno += 1
        start = fh.tell()
        raw = fh.readline()
        if not raw:
            return 0
        cell = _first_cell(raw)
        if cell is None:
            continue
        try:
            float(cell)
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
        fh.seek(start)
        return lineno


def _read_series_lines(path: Path) -> np.ndarray:
    """The reference reader, one line at a time: every error names its line."""
    values: list[float] = []
    try:
        with path.open(encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=_skip_to_data(fh)):
                cell = _first_cell(raw)
                if cell is None:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise InputError(f"{path}: line {lineno}: not a number: {cell!r}") from None
                if not math.isfinite(values[-1]):
                    raise InputError(f"{path}: line {lineno}: non-finite value: {cell!r}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    if not values:
        raise InputError(f"{path}: no numeric rows found")
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    noise = parse_noise(args.noise)
    desc: dict = {"model": args.model, "noise": noise.describe()}
    burnin = 0
    if args.model == "iid":
        x = simulate.sample_noise(noise, args.n, args.seed)
    elif args.model == "arma11":
        if args.phi is None or args.theta is None:
            raise ParameterError("arma11 needs --phi and --theta")
        spec = simulate.Arma11Spec(phi=args.phi, theta=args.theta, noise=noise)
        desc.update(phi=args.phi, theta=args.theta)
        burnin = args.burnin if args.burnin is not None else simulate.default_burnin(args.phi)
        x = simulate.simulate_arma11(spec, args.n, args.seed, burnin)
    elif args.model == "sv":
        spec = simulate.SvSpec(logvol_ar=args.logvol_ar, logvol_sd=args.logvol_sd, noise=noise)
        desc.update(logvol_ar=args.logvol_ar, logvol_sd=args.logvol_sd)
        burnin = args.burnin if args.burnin is not None else simulate.default_burnin(args.logvol_ar)
        x = simulate.simulate_sv(spec, args.n, args.seed, burnin)
    else:
        if args.psi is not None:
            try:
                psi = tuple(float(v) for v in args.psi.split(",") if v != "")
            except ValueError as exc:
                raise ParameterError(f"bad --psi {args.psi!r}: {exc}") from None
            desc["psi"] = list(psi)
        elif args.phi is not None and args.theta is not None:
            filt = oracles.arma11_filter(args.phi, args.theta)
            psi = tuple(filt.materialize(noise.tail, args.trunc_eps))
            desc.update(phi=args.phi, theta=args.theta, trunc_eps=args.trunc_eps, n_coeffs=len(psi))
        else:
            raise ParameterError("maxma needs --psi or both --phi and --theta")
        spec = simulate.MaxMaSpec(psi=psi, noise=noise)
        x = simulate.simulate_max_ma(spec, args.n, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    comments = [
        f"extspec simulate {args.model}",
        f"spec = {json.dumps(desc, sort_keys=True)}",
        f"n = {args.n}, seed = {args.seed}, burnin = {burnin}",
    ]
    _write_table(out, comments, {"x": x}, header=False)
    print(f"wrote {args.n} values to {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _write_table(path: Path, comments: list[str], columns: dict, header: bool = True) -> None:
    """Write named 1-d columns as CSV text, each cell exactly ``format(v, ".17g")``."""
    pattern = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    seps = np.resize(pattern, max(_CHUNK_CELLS, len(columns)))  # covers a chunk of whole rows
    with path.open("wb") as fh:
        fh.write("".join(f"# {line}\n" for line in comments).encode())
        if header:
            fh.write((",".join(columns) + "\n").encode())
        for cells in _row_chunks(columns.values()):
            fh.write(_format_cells(cells, seps))


def _row_chunks(columns):
    """Cells of the 1-d ``columns`` row by row, in chunks of max(1, _CHUNK_CELLS // width) rows."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    rows = max(1, _CHUNK_CELLS // len(cols))
    for start in range(0, cols[0].size, rows):
        yield np.column_stack([c[start : start + rows] for c in cols]).ravel()


# .17g writes |v| in [1e-4, 1e17) as fixed-point text with 17 significant digits
# d = round(|v| * 10**k), k = 16 - floor(log10|v|).  10**k = 2**k * 5**k is a double
# (5**20 < 2**53), and |v| * 10**k is exact as hi + lo (Dekker's product).  A cell is one
# 28-byte row: "0000", then d with a zero digit inserted k places from the right, as
# 20 digits; the point takes byte 23 - k and the "0.000" of |v| < 1 is padding.  A
# row keeps its text and separator; nan, +-0, +-inf are one word, the rest format().
_TENS = np.array([10**k for k in range(21)], dtype=float)
_POW10 = 10 ** np.minimum(np.arange(21), 17)  # d < 10**17: no digit moves for k > 16
_WORDS = (  # the ASCII bytes of 0000..9999, one uint32 each
    np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1)
    .view(np.uint32)
    .reshape(-1)
)
_ZEROS = np.zeros(10_000, np.uint8)  # trailing zero digits of 0000..9999
_ZEROS[::10], _ZEROS[::100], _ZEROS[::1000], _ZEROS[0] = 1, 2, 3, 4
_SPECIAL = np.array([b"nan", b"0", b"-0", b"inf", b"-inf"])  # 4 bytes each, NUL-padded
_SPECIAL_LEN = np.array([len(t) for t in _SPECIAL])
_COLS = np.arange(28)  # _KEEP[25 * start + end] keeps bytes start..end of a row
_KEEP = ((_COLS >= np.arange(7)[:, None, None]) & (_COLS <= np.arange(25)[:, None])).reshape(-1, 28)


def _format_cells(v: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The ``.17g`` text of each cell of ``v`` followed by its separator, as bytes."""
    m = v.size
    a, neg = np.abs(v), np.signbit(v)
    good = (a >= 1e-4) & (a < 1e17)
    a[~good] = 1.0
    k = 16 - np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = two_product(a, _TENS[k])
    # hi is an even integer, so rounding lo half-even rounds the sum half-even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # log10 can land a decade off near powers of ten: d then has 16 or 18 digits
    good &= (d >= 10**16) & (d < 10**17)
    p = _POW10[k]
    x = d + 9 * p * (d // p)
    row = np.empty((m, 7), np.uint32)
    row[:, 0] = _WORDS[0]
    zeros = np.zeros(m, np.uint8)  # trailing zero digits of x
    for c in (5, 4, 3, 2, 1):  # x in groups of four digits, the last first
        q = x // 10**4
        x -= q * 10**4
        row[:, c] = _WORDS[x]
        zeros += (zeros == 20 - 4 * c) * _ZEROS[x]
        x = q
    text = row.view(np.uint8)
    at = np.arange(0, 28 * m, 28)
    lead = np.minimum(21 - k, 5)  # the byte before the first digit
    text.reshape(-1)[at + 23 - k] = 46
    text.reshape(-1)[at + lead] = np.where(neg, 45, 48)
    start = lead + 1 - neg
    end = np.where(zeros < k, 24 - zeros, 23 - k)  # a zero fraction drops its point
    rare = np.flatnonzero(~good)
    if rare.size:
        w = v[rare]
        special = (w == 0) | ~np.isfinite(w)
        s, w = rare[special], w[special]
        kind = np.where(np.isnan(w), 0, np.where(w == 0, 1, 3) + np.signbit(w))
        row[s, 1] = _SPECIAL.view(np.uint32)[kind]
        start[s], end[s] = 4, 4 + _SPECIAL_LEN[kind]
        rare = rare[~special]  # .17g text is at most 24 bytes and has no blank
        cells = ("{:<24.17g}" * rare.size).format(*v[rare].tolist()).encode()
        cells = np.frombuffer(cells, np.uint8).reshape(-1, 24)
        text[rare, :24] = cells
        start[rare], end[rare] = 0, (cells != 32).sum(axis=1)
    text.reshape(-1)[at + end] = seps[:m]
    return text[_KEEP.take(25 * start + end, axis=0)]


def _write_records_json(path: Path, meta: dict, columns: dict) -> None:
    """Stream ``{"config": meta, "rows": [...]}`` as ``json.dump(indent=2, sort_keys=True)``
    writes it: each cell is ``repr(v)``, or null for nan.  No cell may be infinite.
    """
    keys = sorted(columns)
    fields = ",\n".join(f"      {json.dumps(k)}: {{}}" for k in keys)
    row = "\n    {{\n" + fields + "\n    }}"
    head = json.dumps({"config": meta, "rows": []}, indent=2, sort_keys=True)
    with path.open("w") as fh:
        fh.write(head[: -len("]\n}")])
        for i, cells in enumerate(_row_chunks(columns[k] for k in keys)):
            text = ",".join([row] * (cells.size // len(keys)))
            text = text.format(*["null" if v != v else repr(v) for v in cells.tolist()])
            fh.write("," + text if i else text)
        fh.write("\n  ]\n}\n")


def run_analysis(args) -> dict:
    """Execute the pipeline on parsed ``analyze`` flags; returns the manifest."""
    if args.max_lag < 0:
        raise ParameterError("max lag must be nonnegative")
    if not 0.0 < args.level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    if args.band == "surrogate" and args.level != 0.05:
        raise ParameterError("--level sets the permutation band; the surrogate band is 95% only")
    if args.band == "permutation":
        inference._check_band(args.replicates, args.level, args.band_seed)
    tail_set = parse_tail_set(args.tail_set)
    window = parse_window(args.window)
    # every grid but the series' own Fourier grid is parsed before the read
    grid = None if args.grid == "fourier" else parse_grid(args.grid)
    x = read_series_csv(args.input)
    n = x.size
    thr = threshold_from_quantile(x, args.q)
    if thr.a_m <= 0:
        raise DegenerateDataError(
            f"quantile threshold {thr.a_m:g} is not positive; "
            "too few positive observations for scaled tail events"
        )
    ind = exceedance_indicators(x, tail_set, thr)
    del x  # the rest of the pipeline reads the indicators only
    max_lag = min(args.max_lag, n - 1)

    extrem = estimators.sample_extremogram(ind, max_lag)
    se = extrem.stderr()

    if grid is None:
        grid = fourier_grid(n)
    raw, curve, rows = estimators._spectrum(ind, grid, window)
    band_info: dict = {"method": args.band}
    if args.band == "surrogate":
        band = inference.surrogate_band(curve, window)
    elif args.band == "permutation":
        band = inference.permutation_band(
            ind, window, curve.grid, args.replicates, args.band_seed, args.level
        )
        band_info.update(replicates=args.replicates, seed=args.band_seed, level=args.level)
    # the output columns are made after the band, so they do not add to its peak
    smoothed, lower, upper = np.full((3, len(grid)), np.nan)
    smoothed[rows] = curve.values
    if args.band != "none":
        lower[rows], upper[rows] = band.lower, band.upper
        del band
    del curve  # the columns hold the values: the curve, the band and their grid die here

    tables = {
        "extremogram": {"h": np.arange(max_lag + 1), "rho": extrem.rho, "stderr": se},
        "spectrum": {
            "lambda": grid.freqs,
            "raw": raw.values,
            "smoothed": smoothed,
            "lower": lower,
            "upper": upper,
        },
    }
    outputs = {name: f"{name}.{args.output_format}" for name in tables}
    config = {k: v for k, v in vars(args).items() if k not in _NOT_PROVENANCE}
    config_line = json.dumps(config, sort_keys=True)
    if args.output_format == "json":  # check every table before anything is written
        for name, key in ((name, key) for name in tables for key in tables[name]):
            if np.isinf(tables[name][key]).any():
                raise ParameterError(f"{name} column {key!r} holds an infinity; JSON has none")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        path = out_dir / outputs[name]
        if args.output_format == "csv":
            _write_table(path, [f"extspec analyze: config = {config_line}"], columns)
        else:
            _write_records_json(path, config, columns)

    manifest = {
        "command": "analyze",
        "config": config,
        "n": n,
        "threshold": thr.a_m,
        "threshold_exceedances": thr.exceed_count,
        "events": ind.n_events,
        "event_rate": ind.p0_hat,
        "band": band_info,
        "outputs": outputs,
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    return manifest


def cmd_analyze(args) -> int:
    manifest = run_analysis(args)
    print(
        f"analyzed {manifest['n']} observations, {manifest['events']} tail events; "
        f"outputs in {args.out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    tail = oracles.TailIndexSpec(alpha=args.alpha, upper_share=args.p)
    # the short lag curve first: a bad --max-lag fails before the grid costs anything
    rho_closed = oracles.arma11_extremogram_curve(args.phi, args.theta, tail, args.max_lag).rho
    grid = parse_grid(args.grid)

    oracle = oracles.arma11_spectral_oracle(args.phi, args.theta, tail)
    density = oracle.evaluate(grid.freqs)

    series_h = oracles.series_lag_for_accuracy(args.phi, args.alpha, 1e-12)
    filt = oracles.arma11_filter(args.phi, args.theta)
    series_rho = oracles.extremogram_linear(filt, tail, series_h)
    series_oracle = oracles.spectral_from_extremogram(series_rho)
    gap = np.abs(density - series_oracle.evaluate(grid.freqs))
    residual, rel_residual = float(np.max(gap)), float(np.max(gap / density))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params_line = (
        f"arma11 oracle: phi = {args.phi:g}, theta = {args.theta:g}, "
        f"alpha = {args.alpha:g}, p = {args.p:g}"
    )
    _write_table(
        out_dir / "oracle_spectrum.csv",
        [params_line, f"provenance = {oracle.provenance}"],
        {"lambda": grid.freqs, "density": density},
    )
    _write_table(
        out_dir / "oracle_extremogram.csv",
        [params_line],
        {"h": np.arange(rho_closed.size), "rho": rho_closed},
    )
    manifest = {
        "command": "oracle",
        "model": "arma11",
        "phi": args.phi,
        "theta": args.theta,
        "alpha": args.alpha,
        "upper_share": args.p,
        "grid": args.grid,
        "max_lag": args.max_lag,
        "provenance": oracle.provenance,
        "series_truncation": series_h,
        "max_series_residual": residual,
        "max_series_rel_residual": rel_residual,
        "outputs": {
            "spectrum": "oracle_spectrum.csv",
            "extremogram": "oracle_extremogram.csv",
        },
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    print(f"oracle curves written to {out_dir} (series residual {residual:.3e})")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extspec",
        description="Frequency-domain analysis of serial extremal dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a seeded model sample to CSV")
    sim.add_argument("model", choices=["iid", "arma11", "sv", "maxma"])
    sim.add_argument("--noise", default="t:3", help="t:NU or pareto:ALPHA[:P]")
    sim.add_argument("--phi", type=float, default=None)
    sim.add_argument("--theta", type=float, default=None)
    sim.add_argument("--logvol-ar", type=float, default=0.0, dest="logvol_ar")
    sim.add_argument("--logvol-sd", type=float, default=0.0, dest="logvol_sd")
    sim.add_argument("--psi", default=None, help="comma-separated max-MA coefficients")
    sim.add_argument("--trunc-eps", type=float, default=1e-6, dest="trunc_eps")
    sim.add_argument("--burnin", type=int, default=None)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="extremogram and spectral estimates for a CSV series")
    ana.add_argument("--input", required=True)
    ana.add_argument("--out-dir", required=True, dest="out_dir")
    ana.add_argument("--q", type=float, default=0.98)
    ana.add_argument("--tail-set", default="upper:1", dest="tail_set")
    ana.add_argument("--window", default="daniell:50")
    ana.add_argument("--grid", default="fourier")
    ana.add_argument("--max-lag", type=int, default=50, dest="max_lag")
    ana.add_argument("--band", choices=["none", "surrogate", "permutation"], default="none")
    ana.add_argument("--replicates", type=int, default=99)
    ana.add_argument("--band-seed", type=int, default=0, dest="band_seed")
    ana.add_argument("--level", type=float, default=0.05)
    ana.add_argument("--format", choices=["csv", "json"], default="csv", dest="output_format")
    ana.set_defaults(func=cmd_analyze)

    orc = sub.add_parser("oracle", help="closed-form curves for overlay")
    orc.add_argument("model", choices=["arma11"])
    orc.add_argument("--phi", type=float, required=True)
    orc.add_argument("--theta", type=float, required=True)
    orc.add_argument("--alpha", type=float, required=True)
    orc.add_argument("--p", type=float, default=0.5)
    orc.add_argument("--grid", default="linspace:0.01:3.13:512")
    orc.add_argument("--max-lag", type=int, default=50, dest="max_lag")
    orc.add_argument("--out-dir", required=True, dest="out_dir")
    orc.set_defaults(func=cmd_oracle)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e-3`` into ``--flag=-1e-3``: argparse reads '-1e-3' as a flag."""
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1]:
            try:
                float(token)
                out[-1] += "=" + token
                continue
            except ValueError:
                pass
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # non-finite intermediates are checked and reported as errors, not as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            args = parser.parse_args(argv)
            return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, InputError, SingularFrequencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
