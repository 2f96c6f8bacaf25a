"""Run one extspec CLI command in this fresh interpreter and report its cost.

    python3 perfbench/child.py SPEC_JSON REPORT_PATH

SPEC_JSON holds ``src`` (the directory that contains the ``extspec``
package), ``argv`` (the CLI arguments; empty means import only) and
``trace``.  The report written to REPORT_PATH holds the time of
``import extspec.cli`` (set-up), the time of ``extspec.cli.main(argv)``
(work), its return code, this process's peak RSS and, when traced, the
spans of spans.py.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import extspec.cli

    import_s = perf_counter() - t0
    origin = Path(extspec.cli.__file__).resolve()
    if src not in origin.parents:
        print(f"extspec was imported from {origin}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install()

    rc = 0
    t1 = perf_counter()
    if spec["argv"]:
        rc = extspec.cli.main(spec["argv"])
    main_s = perf_counter() - t1

    report = {
        "import_s": import_s,
        "main_s": main_s,
        "rc": rc,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    Path(sys.argv[2]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
