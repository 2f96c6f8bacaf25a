"""Write reference.json: the analyze outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it from the repository root, at a commit whose outputs are trusted.  For
each workload that runs ``analyze`` and each workload seed 0..SLOTS-1 it runs
the workload's commands once, untimed, and stores run.analysis_summary of the
result: event count and threshold, the extremogram, per-column sums of
|value| and the spectrum at 32 sampled rows.  run.py maps a benchmark seed s
to workload seed s % slots, so every run is checked against a stored value.
"""

import json
import os
import shutil
from time import perf_counter

import numpy as np

import run

SAMPLED_ROWS = 32
SLOTS = 16


def sample_index(rows: int, slot: int) -> list:
    """Both ends, both edges of the smoothed range and random rows between."""
    edges = {0, run.HALF_WIDTH - 1, run.HALF_WIDTH, rows - run.HALF_WIDTH - 1, rows - 1}
    rng = np.random.default_rng(slot)
    extra = rng.choice(rows, SAMPLED_ROWS - len(edges), replace=False)
    return sorted(edges | {int(i) for i in extra})[:SAMPLED_ROWS]


def main() -> int:
    os.chdir(run.ROOT)
    reference = {"slots": SLOTS, "workloads": {}}
    for name in ("pipeline-2e20", "permutation-2e13"):
        entries = reference["workloads"][name] = {}
        for slot in range(SLOTS):
            shutil.rmtree(run.WORK, ignore_errors=True)
            run.WORK.mkdir()
            workload = run.build_workload(name, slot, None)
            for argv in [*workload.inputs, *(c.argv for c in workload.commands)]:
                report = run.spawn(argv, False, perf_counter() + 600.0)
                if "error" in report:
                    raise SystemExit(report["error"])
            problem = workload.commands[-1].check()
            if problem:
                raise SystemExit(f"{name} seed {slot}: {problem}")
            manifest, extremogram, spectrum = run.read_analysis(run.WORK / "analysis")
            index = sample_index(len(spectrum), slot)
            entries[str(slot)] = run.analysis_summary(manifest, extremogram, spectrum, index)
            print(f"{name} seed {slot}: {manifest['events']} events", flush=True)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
