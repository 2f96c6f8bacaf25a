"""Benchmark of the extspec command line, one command at a time, in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Every CLI command runs in a fresh interpreter (child.py) that times
``import extspec.cli`` (set-up) and ``extspec.cli.main(argv)`` (work) and
reports its peak RSS.  One client sends the next command only after the
previous one has finished and its output has been checked.  A round is one
pass over the workload's commands; rounds repeat while one more round of the
same length fits in S seconds, and at least one round runs.

Workloads (the seed picks one of the reference slots, see below):

- ``pipeline-2e20``: ``simulate arma11`` at n = 2^20, then ``analyze --band
  surrogate`` with the defaults.  Text I/O dominates.
- ``permutation-2e13``: ``analyze --band permutation --replicates 99`` on an
  n = 2^13 series generated before the timed loop.  The permutation band
  (inference -> estimators -> core.smoothing_grid) dominates.
- ``oracle-dense``: ``oracle arma11`` on a 65,536-point grid, once per sign
  case of (phi, phi + theta).  Per-point closed forms dominate.

With ``--trace 0`` the last line holds the end-to-end metrics named in
BENCHMARK.json, as medians over rounds.  With ``--trace 1`` rounds alternate
untraced and traced (spans.py); the last line holds the per-layer metrics,
medians over traced rounds, and ``trace.overhead_s``, the traced minus the
untraced median work time.  Lines before it record the environment, the
generated inputs, per-command times and the span tree.

Every command's output is checked: ``analyze`` against values stored in
reference.json (relative tolerance 1e-12; see make_reference.py), ``oracle``
by its closed-form vs series residual (at most 1e-8).  A command fails if it
exits non-zero or its check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, where every command runs
REFERENCE = HERE / "reference.json"

RUN_LIMIT_S = 165.0  # stop starting rounds so that a run ends inside 180 s
MIN_SETUP_SAMPLES = 5
REL_TOL = 1e-12  # ROADMAP aim 1: results may move by at most this much
RESIDUAL_TOL = 1e-8  # acceptance criterion 2: closed form vs series

ARMA = ["arma11", "--phi", "0.8", "--theta", "0.1", "--noise", "t:3"]
HALF_WIDTH = 50  # analyze's default window, daniell:50
MAX_LAG = 50  # analyze's and oracle's default --max-lag
ORACLE_POINTS = 65536
ORACLE_CASES = [("0.8", "0.1"), ("0.8", "-1.2"), ("-0.6", "0.9"), ("-0.6", "0.1")]
VALUE_COLUMNS = ("raw", "smoothed", "lower", "upper")
WORKLOADS = ("pipeline-2e20", "permutation-2e13", "oracle-dense")


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Command:
    name: str  # the CLI subcommand
    argv: list
    outputs: list  # removed before the command runs, so stale files cannot pass
    check: Callable[[], str | None]  # a failure message, or None


@dataclass(frozen=True)
class Workload:
    n: int | None
    inputs: list  # CLI argv lists that generate inputs, run before the timed loop
    commands: list  # one round


def build_workload(name: str, seed: int, reference: dict | None) -> Workload:
    """The commands of workload ``name``; ``reference`` None skips the value checks."""
    if name == "pipeline-2e20":
        n = 2**20
        series, out = WORK / "series.csv", WORK / "analysis"
        simulate = ["simulate", *ARMA, "--n", str(n), "--seed", str(seed), "--out", str(series)]
        analyze = ["analyze", "--input", str(series), "--out-dir", str(out), "--band", "surrogate"]
        return Workload(
            n=n,
            inputs=[],
            commands=[
                Command("simulate", simulate, [series], lambda: check_series(series, n)),
                Command("analyze", analyze, [out], lambda: check_analysis(out, n, reference)),
            ],
        )
    if name == "permutation-2e13":
        n = 2**13
        series, out = WORK / "input.csv", WORK / "analysis"
        simulate = ["simulate", *ARMA, "--n", str(n), "--seed", str(seed), "--out", str(series)]
        analyze = [
            "analyze", "--input", str(series), "--out-dir", str(out),
            "--band", "permutation", "--replicates", "99", "--band-seed", str(seed),
        ]  # fmt: skip
        return Workload(
            n=n,
            inputs=[simulate],
            commands=[Command("analyze", analyze, [out], lambda: check_analysis(out, n, reference))],
        )
    if name == "oracle-dense":
        commands = []
        for i, (phi, theta) in enumerate(ORACLE_CASES):
            out = WORK / f"oracle{i}"
            argv = [
                "oracle", "arma11", "--phi", phi, "--theta", theta, "--alpha", "3",
                "--grid", f"linspace:0.001:3.14:{ORACLE_POINTS}", "--out-dir", str(out),
            ]  # fmt: skip
            commands.append(Command("oracle", argv, [out], lambda out=out: check_oracle(out)))
        return Workload(n=None, inputs=[], commands=commands)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Output checks


def read_table(path: Path) -> np.ndarray:
    """A CLI CSV table: ``#`` comments, one header row, numeric rows."""
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break  # the header
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if not line.startswith(b"#"))


def check_series(path: Path, n: int) -> str | None:
    rows = count_rows(path)
    return None if rows == n else f"{path} has {rows} rows, expected {n}"


def _num(v: float) -> float | None:
    return None if math.isnan(v) else float(v)


def read_analysis(out_dir: Path) -> tuple:
    """(manifest, extremogram rows, spectrum rows) of one analyze run."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return manifest, read_table(out_dir / "extremogram.csv"), read_table(out_dir / "spectrum.csv")


def analysis_summary(manifest: dict, extremogram, spectrum, index: list) -> dict:
    """What reference.json stores for one analyze run: the event statistics,
    the extremogram, per-column sums of |value| over all spectrum rows, and
    the spectrum values at the sampled rows ``index``."""
    summary = {
        "events": manifest["events"],
        "threshold": manifest["threshold"],
        "rho": extremogram[:, 1].tolist(),
        "stderr": extremogram[:, 2].tolist(),
        "rows": {"index": index},
        "abs_sum": {},
        "nan_count": {},
    }
    for k, column in enumerate(VALUE_COLUMNS, start=1):
        values = spectrum[:, k]
        finite = values[~np.isnan(values)]
        summary["abs_sum"][column] = math.fsum(np.abs(finite))
        summary["nan_count"][column] = int(values.size - finite.size)
        summary["rows"][column] = [_num(values[i]) for i in index]
    return summary


def mismatch(got, want, where: str = "") -> str | None:
    """First place where ``got`` differs from ``want`` beyond REL_TOL, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: missing"
        for key in want:
            problem = mismatch(got.get(key), want[key], f"{where}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length differs from the reference"
        for i, (g, w) in enumerate(zip(got, want)):
            problem = mismatch(g, w, f"{where}[{i}]")
            if problem:
                return problem
        return None
    if got == want:
        return None
    if isinstance(got, float) and isinstance(want, float):
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return None
    return f"{where}: {got!r} differs from the reference {want!r}"


def check_analysis(out_dir: Path, n: int, reference: dict | None) -> str | None:
    manifest, extremogram, spectrum = read_analysis(out_dir)
    rows = math.ceil(n / 2) - 1
    if spectrum.shape != (rows, 5):
        return f"spectrum has shape {spectrum.shape}, expected ({rows}, 5) for n = {n}"
    fourier = 2.0 * np.pi * np.arange(1, rows + 1) / n
    if not np.allclose(spectrum[:, 0], fourier, rtol=REL_TOL, atol=0.0):
        return "lambda column is not the Fourier grid"
    admissible = np.zeros(rows, dtype=bool)
    admissible[HALF_WIDTH : rows - HALF_WIDTH] = True
    for k, column in enumerate(VALUE_COLUMNS[1:], start=2):
        if not np.array_equal(~np.isnan(spectrum[:, k]), admissible):
            return f"{column} is not set exactly at the admissible centers"
    lower, upper = spectrum[admissible, 3], spectrum[admissible, 4]
    if np.any(lower > upper):
        return f"lower > upper at {int(np.count_nonzero(lower > upper))} frequencies"
    if extremogram.shape != (MAX_LAG + 1, 3):
        return f"extremogram has shape {extremogram.shape}, expected ({MAX_LAG + 1}, 3)"
    if reference is None:
        return None
    summary = analysis_summary(manifest, extremogram, spectrum, reference["rows"]["index"])
    return mismatch(summary, reference, "analyze")


def check_oracle(out_dir: Path) -> str | None:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    residual = manifest["max_series_residual"]
    if not residual <= RESIDUAL_TOL:
        return f"closed form and series differ by {residual:g} > {RESIDUAL_TOL:g}"
    spectrum = read_table(out_dir / "oracle_spectrum.csv")
    if spectrum.shape != (ORACLE_POINTS, 2) or not np.all(np.isfinite(spectrum)):
        return f"oracle spectrum has shape {spectrum.shape} or non-finite values"
    if read_table(out_dir / "oracle_extremogram.csv").shape != (MAX_LAG + 1, 2):
        return "oracle extremogram has the wrong number of rows"
    return None


# ---------------------------------------------------------------------------
# Running commands


def child_env() -> dict:
    # permutation bands run on the default single worker
    return {k: v for k, v in os.environ.items() if k != "EXTSPEC_THREADS"}


def spawn(argv: list, trace: bool, deadline: float) -> dict:
    """Run one CLI command (import only if ``argv`` is empty) in a fresh interpreter.

    Returns the child's report plus ``total_s``, spawn to exit, or a dict
    with an ``error`` message.
    """
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    spec = json.dumps({"src": str(SRC), "argv": [str(a) for a in argv], "trace": trace})
    cmd = [sys.executable, str(HERE / "child.py"), spec, str(report_path)]
    t0 = perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"timed out: extspec {' '.join(map(str, argv))}"}
        total_s = perf_counter() - t0
    tail = err.strip()[-400:]
    if proc.returncode != 0 or not report_path.exists():
        return {"error": f"child exited {proc.returncode}: {tail}"}
    report = json.loads(report_path.read_text())
    if report["rc"] != 0:
        return {"error": f"extspec {' '.join(map(str, argv))} exited {report['rc']}: {tail}"}
    report["total_s"] = total_s
    return report


def run_round(workload: Workload, trace: bool, deadline: float) -> list:
    results = []
    for command in workload.commands:
        for path in command.outputs:
            shutil.rmtree(path, ignore_errors=True) if path.is_dir() else path.unlink(missing_ok=True)
        report = spawn(command.argv, trace, deadline)
        if "error" not in report:
            try:
                problem = command.check()
            except Exception as exc:  # a malformed output is a failed command
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                report["error"] = f"{command.name} output check failed: {problem}"
        report["command"] = command.name
        results.append(report)
    return results


# ---------------------------------------------------------------------------
# Metrics


def median_of(rounds: list, value: Callable[[list], float]) -> float:
    return statistics.median(value(r) for r in rounds)


def work_s(round_results: list, command: str | None = None) -> float:
    """``cli.main`` seconds of a round, of one subcommand or of all."""
    return sum(c["main_s"] for c in round_results if command in (None, c["command"]))


def end_to_end(ok_rounds: list, setup_samples: list) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "work_s": median_of(ok_rounds, work_s),
        "total_s": median_of(ok_rounds, lambda r: sum(c["total_s"] for c in r)),
        "peak_rss_mb": median_of(ok_rounds, lambda r: max(c["maxrss_kib"] for c in r) * 1024 / 1e6),
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def merged_trace(round_results: list) -> tuple[dict, dict]:
    """Span edges ((parent, span) -> [calls, inclusive s, self s]) and counters of a round."""
    edges, counts = {}, {}
    for command in round_results:
        for parent, span, *values in command["trace"]["edges"]:
            edge = edges.setdefault((parent or "main", span), [0, 0.0, 0.0])
            for i, v in enumerate(values):
                edge[i] += v
        for key, amount in command["trace"]["counts"].items():
            counts[key] = counts.get(key, 0) + amount
    return edges, counts


def per_layer(round_results: list) -> dict:
    """Layer metrics of one traced round, plus the bases of its ratios."""
    edges, counts = merged_trace(round_results)

    def of_span(i: int):
        return lambda span: sum(v[i] for (_, name), v in edges.items() if name == span)

    c, t, s = of_span(0), of_span(1), of_span(2)

    def k(key: str):
        return counts.get(key, 0)

    return {
        "cli.read_s": t("cli.read"),
        "cli.read_bytes": k("cli.read_bytes"),
        "cli.read_mb_per_s": _rate(k("cli.read_bytes") / 1e6, t("cli.read")),
        "cli.write_s": t("cli.write"),
        "cli.write_bytes": k("cli.write_bytes"),
        "cli.write_mb_per_s": _rate(k("cli.write_bytes") / 1e6, t("cli.write")),
        "cli.simulate_write_s": s("cli.simulate"),
        "cli.simulate_write_bytes": k("cli.simulate_write_bytes"),
        "cli.simulate_write_mb_per_s": _rate(k("cli.simulate_write_bytes") / 1e6, s("cli.simulate")),
        "cli.analyze_self_s": s("cli.analyze"),
        "simulate.draw_s": t("simulate.draw"),
        "core.threshold_s": t("core.threshold"),
        "core.indicators_s": t("core.indicators"),
        "core.smoothing_grid_calls": c("core.smoothing_grid"),
        "core.smoothing_grid_s": t("core.smoothing_grid"),
        "estimators.periodogram_calls": c("estimators.periodogram"),
        "estimators.periodogram_s": t("estimators.periodogram"),
        "estimators.extremogram_s": t("estimators.extremogram"),
        "estimators.smoothing_s": s("estimators.smoothing"),
        "inference.band_s": t("inference.band"),
        "inference.band_self_s": s("inference.band"),
        "inference.replicates_per_s": _rate(k("inference.replicates"), t("inference.band")),
        "oracles.closed_s": t("oracles.closed"),
        "oracles.closed_us_per_point": _rate(1e6 * t("oracles.closed"), k("oracles.points")),
        "oracles.series_s": t("oracles.series"),
        "oracles.extremogram_closed_s": t("oracles.extremogram_closed"),
        "trigsums.calls": k("trigsums.calls"),
        "oracles.points": k("oracles.points"),
        "inference.replicates": k("inference.replicates"),
    }


def environment() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report is not a stable API
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in thread_vars},
        "EXTSPEC_THREADS": "unset for every command",
    }


def generated_files() -> dict:
    files = {}
    for path in sorted(WORK.rglob("*")):
        if path.is_file() and path.name != "report.json":
            entry = {"bytes": path.stat().st_size}
            if path.suffix == ".csv":
                entry["lines"] = count_rows(path)  # non-comment lines, header included
            files[str(path.relative_to(WORK))] = entry
    return files


# ---------------------------------------------------------------------------
# Entry point


def metric_specs(section: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def traced_report(untraced: list, traced: list) -> dict:
    """Print the span tree and ratio bases; return the per-layer medians."""
    rounds = [per_layer(r) for r in traced]
    layers = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    layers["trace.overhead_s"] = median_of(traced, work_s) - median_of(untraced, work_s)
    absent = sorted({a for c in traced[0] for a in c["trace"]["absent"]})
    print("absent boundaries: " + (", ".join(absent) if absent else "none"))
    print("span tree of the first traced round (parent > span: calls, inclusive s, self s):")
    edges, _ = merged_trace(traced[0])
    for (parent, span), (n_calls, seconds, own) in sorted(edges.items(), key=lambda kv: -kv[1][1]):
        print(f"  {parent} > {span}: {n_calls}, {seconds:.6g}, {own:.6g}")
    print(
        "ratio bases: MB/s is cli.*_bytes / 1e6 over the matching cli.*_s; "
        f"oracles.closed_us_per_point is over {layers['oracles.points']:.0f} points a round; "
        f"inference.replicates_per_s is {layers['inference.replicates']:.0f} replicates "
        "a round over inference.band_s"
    )
    return layers


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (SRC / "extspec" / "cli.py").is_file():
        return fail(f"no extspec sources under {SRC}")
    reference = json.loads(REFERENCE.read_text())
    slot = args.seed % reference["slots"]
    wanted = reference["workloads"].get(args.workload)
    workload = build_workload(args.workload, slot, wanted[str(slot)] if wanted else None)
    traced_modes = (False, True) if args.trace else (False,)
    print(f"perfbench {args.workload}: seed {args.seed} -> workload seed {slot}, trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # set-up outside the timed loop: warm the import, then generate inputs
        setup_samples = []
        for argv in [[], *workload.inputs]:
            report = spawn(argv, False, deadline)
            if "error" in report:
                return fail(f"set-up failed: {report['error']}")
            if argv:  # the warm-up import is not a sample
                setup_samples.append(report["import_s"])

        rounds = []  # (traced, [command reports])
        loop_start = perf_counter()
        while True:
            round_start = perf_counter()
            for is_traced in traced_modes:
                rounds.append((is_traced, run_round(workload, is_traced, deadline)))
            if len(rounds) == len(traced_modes):
                print("inputs " + json.dumps({"n": workload.n, "files": generated_files()}))
            # start another round only if one more of the same length fits
            now = perf_counter()
            last = now - round_start
            if now - loop_start + last > args.seconds or now + last > deadline:
                break

        setup_samples += [c["import_s"] for _, r in rounds for c in r if "import_s" in c]
        while len(setup_samples) < MIN_SETUP_SAMPLES and perf_counter() + 10.0 < deadline:
            report = spawn([], False, deadline)
            if "import_s" in report:
                setup_samples.append(report["import_s"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    commands = [c for _, r in rounds for c in r]
    failed = [c for c in commands if "error" in c]
    for c in failed:
        print(f"FAILED {c['error']}")
    for i, (is_traced, r) in enumerate(rounds):
        timed = [c for c in r if "main_s" in c]
        print(
            f"round {i}{' traced' if is_traced else ''}: "
            + ", ".join(f"{c['command']} {c['main_s']:.4f}/{c['total_s']:.4f} s" for c in timed)
            + " (cli.main/spawn to exit); imports "
            + ", ".join(f"{c['import_s']:.4f}" for c in timed)
        )
    # a round whose output check failed still has its timings; "correct" reports the failure
    timed = [(is_traced, r) for is_traced, r in rounds if all("main_s" in c for c in r)]
    untraced = [r for is_traced, r in timed if not is_traced]
    traced = [r for is_traced, r in timed if is_traced]
    if not untraced or (args.trace and not traced) or not setup_samples:
        return fail("no round ran all of its commands to completion")

    print(
        f"rounds {len(untraced)} untraced, {len(traced)} traced; commands {len(commands)}; "
        f"failed_ratio {len(failed) / len(commands):.6g} ({len(failed)}/{len(commands)})"
    )
    e2e = end_to_end(untraced, setup_samples)
    for name, unit in metric_specs("end_to_end"):
        samples = f"{len(setup_samples)} imports" if name == "setup_s" else f"{len(untraced)} rounds"
        print(f"{name} {e2e[name]:.6g} {unit} (median of {samples})")
    for name in ("simulate", "analyze", "oracle"):
        if any(c.name == name for c in workload.commands):
            value = median_of(untraced, lambda r: work_s(r, name))
            print(f"{name}_s {value:.6g} s (cli.main per round, median of {len(untraced)} rounds)")

    if args.trace:
        metrics, section = traced_report(untraced, traced), "per_layer"
    else:
        metrics, section = e2e, "end_to_end"

    result = {}
    for name, unit in metric_specs(section):
        result[name] = {"value": metrics[name], "unit": unit}
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(commands), "failed": len(failed), "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
