"""Run one workload of the stochord benchmark and print its result.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 30 --trace 0

Run from anywhere; the sources measured are the ``src/`` next to this
directory. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The same object
goes to ``.perfbench_out/result-<workload>-seed<seed>-trace<t>.json``, and a
traced run also writes its spans to ``.perfbench_out/trace-<workload>-seed<seed>.json``.
The exit code is 0 whenever a result is printed, 2 when none can be.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("claims", "compare", "sample-ks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 11

# Started as a fresh interpreter: imports stochord from argv[1], resolves the
# entry point named in argv[2] and prints the monotonic clock, which Linux
# shares between processes.
_PROBE = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
module, _, attr = sys.argv[2].partition(":")
getattr(importlib.import_module(module), attr)
print(repr(time.monotonic()))
"""


def measure_setup(entry: str) -> float:
    """Median time from starting a workload process until ``entry`` is ready.

    The first probe is not counted: it also writes the bytecode cache.
    """
    samples = []
    for k in range(SETUP_PROBES + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), entry],
                              capture_output=True, text=True, timeout=120, check=True)
        if k:
            samples.append(float(done.stdout.strip()) - start)
    return statistics.median(samples)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "stochord" / "__init__.py").is_file():
        print(f"error: no stochord sources in {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness, oracle, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    oracle.self_test()
    workload_cls = workloads.WORKLOADS[args.workload]
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = workload_cls(args.seed, scratch)
        if args.trace:
            tally, metrics, tracer = harness.run_traced(workload, args.seconds)
        else:
            tally, metrics = harness.run_untraced(workload, args.seconds)
            # after the ops: starting subprocesses first changes how the heap grows
            metrics["setup_s"] = measure_setup(workload_cls.entry)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": tracer.spans,
        }))
    for line in tally.wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    print(f"  attempted: {tally.attempted}  failed: {tally.failed}  "
          f"wrong: {len(tally.wrong)}")
    for detail, times in sorted(tally.failures.items()):
        print(f"  failed x{times}: {detail}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
