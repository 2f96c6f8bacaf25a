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
import warnings
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
)
from .trigsums import SingularFrequencyError

_CHUNK_ROWS = 2**16  # rows formatted per write: bounds the writer's memory
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
            if len(w) % 2 == 0:
                raise ParameterError("custom window needs an odd number of weights")
            return estimators.WeightWindow(weights=np.asarray(w), half_width=len(w) // 2)
    except ValueError as exc:
        raise ParameterError(f"bad window {text!r}: {exc}") from exc
    raise ParameterError(f"bad window {text!r}: expected daniell:S or custom:w1,w2,...")


def parse_grid(text: str, n: int | None) -> FrequencyGrid:
    """``fourier``, ``fourier:N``, ``linspace:A:B:K`` or ``list:l1,l2,...``."""
    parts = text.split(":")
    try:
        if parts[0] == "fourier":
            if len(parts) == 1:
                if n is None:
                    raise ParameterError("fourier grid needs a series length")
                return fourier_grid(n)
            if len(parts) == 2:
                return fourier_grid(int(parts[1]))
        if parts[0] == "linspace" and len(parts) == 4:
            a, b, k = float(parts[1]), float(parts[2]), int(parts[3])
            if k < 1:
                raise ParameterError("linspace grid needs at least one point")
            require_bytes(k, f"{k} grid points")
            return FrequencyGrid.from_frequencies(np.linspace(a, b, k))
        if parts[0] == "list" and len(parts) == 2:
            vals = [float(v) for v in parts[1].split(",") if v != ""]
            return FrequencyGrid.from_frequencies(vals)
    except ValueError as exc:
        raise ParameterError(f"bad grid {text!r}: {exc}") from exc
    raise ParameterError(
        f"bad grid {text!r}: expected fourier[:N], linspace:A:B:K or list:l1,l2,..."
    )


def read_series_csv(path) -> np.ndarray:
    """Read a one-column CSV: ``#`` comments and one optional header row.

    After the leading comment and header lines, numpy parses the rest in
    one call.  Input that numpy rejects, warns about or reads as non-finite
    is read again by the line reader, whose errors name the line.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            if _skip_to_data(fh):
                x = np.loadtxt(fh, delimiter=",", usecols=0, comments=None, ndmin=1)
                if np.isfinite(x).all():
                    return x
    except (ValueError, Warning):
        pass
    return _read_series_lines(path)


def _first_cell(raw: str) -> str | None:
    """The stripped first field of a line; None for a blank or ``#`` line."""
    text = raw.strip()
    if not text or text.startswith("#"):
        return None
    return text.split(",")[0].strip()


def _skip_to_data(fh) -> bool:
    """Move ``fh`` to its first numeric line, past comments and a header; False if none."""
    header_allowed = True
    while True:
        start = fh.tell()
        raw = fh.readline()
        if not raw:
            return False
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
        return True


def _read_series_lines(path: Path) -> np.ndarray:
    """The reference reader, one line at a time: every error names its line."""
    values: list[float] = []
    header_allowed = True
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                cell = _first_cell(raw)
                if cell is None:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    if header_allowed and not values:
                        header_allowed = False
                        continue
                    raise InputError(f"{path}: line {lineno}: not a number: {cell!r}") from None
                if not math.isfinite(values[-1]):
                    raise InputError(f"{path}: line {lineno}: non-finite value: {cell!r}")
                header_allowed = False
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
        spec = simulate.MaxMaSpec(psi=psi, noise=noise, truncation_eps=args.trunc_eps)
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
    """Write named 1-d columns as ``.17g`` CSV text, ``_CHUNK_ROWS`` rows at a time."""
    cols = [np.asarray(c, dtype=float) for c in columns.values()]
    row = ",".join(["{:.17g}"] * len(cols)) + "\n"
    with path.open("w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if header:
            fh.write(",".join(columns) + "\n")
        for start in range(0, cols[0].size, _CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + _CHUNK_ROWS] for c in cols])
            fh.write((row * len(chunk)).format(*chunk.ravel().tolist()))


def _write_records_json(path: Path, meta: dict, columns: dict) -> None:
    # undefined cells (nan) are written as null: JSON has no nan token
    cols = [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    records = [
        {k: None if math.isnan(v) else v for k, v in zip(columns, values)} for values in zip(*cols)
    ]
    payload = {"config": meta, "rows": records}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def run_analysis(args) -> dict:
    """Execute the pipeline on parsed ``analyze`` flags; returns the manifest."""
    if args.max_lag < 0:
        raise ParameterError("max lag must be nonnegative")
    if not 0.0 < args.level < 1.0:
        raise ParameterError("level must lie in (0, 1)")
    tail_set = parse_tail_set(args.tail_set)
    window = parse_window(args.window)
    x = read_series_csv(args.input)
    n = x.size
    thr = threshold_from_quantile(x, args.q)
    if thr.a_m <= 0:
        raise DegenerateDataError(
            f"quantile threshold {thr.a_m:g} is not positive; "
            "too few positive observations for scaled tail events"
        )
    ind = exceedance_indicators(x, tail_set, thr)
    if ind.n_events == 0:
        raise DegenerateDataError("no observations fall in the tail set")
    max_lag = min(args.max_lag, n - 1)

    extrem = estimators.sample_extremogram(ind, max_lag)
    se = extrem.stderr()

    grid = parse_grid(args.grid, n)
    if len(grid) == 0:
        raise ParameterError("frequency grid is empty for this series length")
    raw = estimators.standardized_periodogram(ind, grid)

    smoothed = np.full(len(grid), np.nan)
    if grid.fourier and grid.n_ref == n:
        curve = estimators.smooth_ordinates(raw, window)
        # admissible centers are a contiguous run of the Fourier grid
        offset = int(curve.grid.indices[0] - grid.indices[0])
        smoothed[offset : offset + len(curve.grid)] = curve.values
    else:
        curve = estimators.smoothed_at_frequencies(ind, grid.freqs, window)
        smoothed[:] = curve.values

    lower = np.full(len(grid), np.nan)
    upper = np.full(len(grid), np.nan)
    band_info: dict = {"method": args.band}
    if args.band != "none":
        if args.band == "surrogate":
            band = inference.surrogate_band(curve, window)
        else:
            band = inference.permutation_band(
                ind,
                window,
                curve.grid,
                replicates=args.replicates,
                seed=args.band_seed,
                level=args.level,
            )
            band_info.update(replicates=args.replicates, seed=args.band_seed, level=args.level)
        mask = ~np.isnan(smoothed)
        lower[mask] = band.lower
        upper[mask] = band.upper

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    if args.model != "arma11":
        raise ParameterError("closed forms are available for the arma11 model only")
    tail = oracles.TailIndexSpec(alpha=args.alpha, upper_share=args.p)
    grid = parse_grid(args.grid, None)
    if len(grid) == 0:
        raise ParameterError("oracle grid is empty")

    oracle = oracles.arma11_spectral_oracle(args.phi, args.theta, tail)
    density = oracle.evaluate(grid.freqs)

    series_h = oracles.series_lag_for_accuracy(args.phi, args.alpha, 1e-12)
    rho_closed = oracles.arma11_extremogram_curve(args.phi, args.theta, tail, args.max_lag).rho
    filt = oracles.arma11_filter(args.phi, args.theta)
    series_rho = oracles.extremogram_linear(filt, tail, series_h)
    series_oracle = oracles.spectral_from_extremogram(series_rho)
    residual = float(np.max(np.abs(density - series_oracle.evaluate(grid.freqs))))

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
