"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics.  Every metric is printed by name with its unit, one per line,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units come from ``BENCHMARK.json`` at the repository root; see
``perfbench/README.md`` for what each one means on each workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where the traced run writes its span files (git-ignored).
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("analytic-cold", "serve-zipf", "read-write")
#: Units of the printed figures that are not metrics, by name prefix.
EXTRA_UNITS = {"samples": "samples", "raw": "s", "host": "ratio"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import one workload module (and with it the program under test)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return importlib.import_module("perfbench." + name.replace("-", "_"))


def pin_hash_seed(seed: int) -> None:
    """Re-execute this process with ``PYTHONHASHSEED`` derived from ``seed``.

    String hashing decides how rows spread over the simulated workers, so
    per-run counts such as ``distributed.local_iterations`` repeat exactly
    for a seed only with a fixed hash seed.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable, *sys.argv])


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and any process it starts on one CPU.

    On the reference host a hand-off between CPUs waits for the other CPU
    to wake, and that wait moves with the shared host's load independently
    of the processor's speed.  On one CPU every hand-off is a local switch,
    and the calibration probes (``common.Pace``) time the CPU the work
    runs on.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed(args.seed)
    pin_to_one_cpu()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        module = load_workload(args.workload)
    except (OSError, ImportError, ValueError):
        traceback.print_exc()
        print("perfbench: the program under test is not available",
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {entry["name"]: entry["unit"] for entry in spec[section]}
    measured, checks = module.run(
        args.seed, args.seconds, bool(args.trace), OUT_DIR)
    missing = [name for name in wanted if name not in measured]
    if section == "end_to_end" and missing:
        raise SystemExit(f"perfbench: {args.workload} did not measure "
                         f"{missing}")
    # Names outside BENCHMARK.json are printed but not part of the result:
    # ``samples.*`` (sample counts), ``raw.wall_s`` (``wall_s`` as measured,
    # before the host-speed factor) and ``host.speed_factor``.
    for name in sorted(measured):
        unit = wanted.get(name, EXTRA_UNITS.get(name.split(".")[0]))
        print(f"{args.workload} {name} = {float(measured[name]):.6g} {unit}")
    for problem in checks.problems:
        print(f"{args.workload} CHECK FAILED: {problem}", file=sys.stderr)
    # Per-layer metrics a workload does not exercise read 0 (see README).
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in wanted.items()}
    print(json.dumps({"correct": checks.correct,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
