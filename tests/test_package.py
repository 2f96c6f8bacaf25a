import ast
import inspect
from pathlib import Path

import extspec

# Every name ``import extspec`` exposes, submodules aside: a name added to or
# dropped from the package's surface must be added or dropped here too.
PUBLIC_NAMES = {
    "Arma11Spec", "Band", "DegenerateDataError", "ExpDiagnostics", "Extremogram",
    "FrequencyGrid", "IndicatorSeries", "InputError", "Interval", "LinearFilter", "LowerRay",
    "MaxMaSpec", "ParameterError", "ParetoBalanced", "PredicateSet", "SineCosinePair",
    "SingularFrequencyError", "SpectralDensityOracle", "SpectralEstimate", "StudentT", "SvSpec",
    "TailIndexSpec", "Threshold", "UnsupportedCaseError", "UpperRay", "WeightWindow",
    "arma11_extremogram_curve", "arma11_filter", "arma11_spectral_oracle", "as_series",
    "canonical_m", "daniell_window", "default_burnin", "envelope_order_statistics",
    "exceedance_indicators", "exponential_diagnostics", "extremogram_linear", "fourier_grid",
    "lag_window_curve", "periodogram", "permutation_band", "sample_extremogram", "sample_noise",
    "series_lag_for_accuracy", "simulate_arma11", "simulate_max_ma", "simulate_sv",
    "sine_cosine_transforms", "smoothed_at_frequencies", "smoothed_curve",
    "spectral_from_extremogram", "standardized_periodogram", "surrogate_band",
    "tail_event_rate", "thin_grid", "threshold_from_quantile",
}


def test_public_names_are_pinned():
    # submodules are left out: importing extspec.cli binds ``cli`` on the package
    names = {
        name
        for name, value in vars(extspec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert names == PUBLIC_NAMES


def test_library_code_never_prints():
    # the command line front end alone writes to the terminal; the library reports
    # through return values, exceptions and warnings
    found = []
    for path in sorted(Path(extspec.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "print":
                    found.append(f"{path.name}:{node.lineno}: print()")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "sys" and node.attr in ("stdout", "stderr"):
                    found.append(f"{path.name}:{node.lineno}: sys.{node.attr}")
    assert not found


def test_library_code_never_names_long_double():
    # np.longdouble is a plain double on Windows and macOS arm64 and 80-bit on
    # x86-64 Linux: library code that used it would give different bits by platform
    long_double = {"longdouble", "float128", "longfloat"}
    found = []
    for path in sorted(Path(extspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant):  # a dtype given by name
                name = node.value
            else:
                continue
            if name in long_double:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10: syntax newer than that fails here,
    # on whatever interpreter runs the suite
    package, tests = Path(extspec.__file__).parent, Path(__file__).parent
    for path in sorted([*package.glob("*.py"), *tests.glob("*.py")]):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
