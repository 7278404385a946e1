"""Benchmark entry point.

    python3 perfbench/run.py --workload sample-fine --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports deformest from its
``src/``. Prints the environment block, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics, and the spans go to ``.perfbench_work/``. A run whose
outputs fail the correctness gate prints the reasons on stderr, a result
without metrics, and exits 1; a run that cannot start exits 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def _import_deformest():
    """Put the checkout's src/ first on the path; refuse any other deformest."""
    src = ROOT / "src"
    if not (src / "deformest" / "__init__.py").is_file():
        print(f"perfbench: no deformest sources under {src}; run from a source checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import deformest

    if Path(deformest.__file__).resolve().parent != (src / "deformest").resolve():
        print(f"perfbench: imported deformest from {deformest.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    _import_deformest()
    import bench
    import workloads

    parser = argparse.ArgumentParser(description="deformest benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    print(json.dumps({"environment": bench.environment(ROOT)}), flush=True)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=WORK))
    try:
        run = bench.Run(w, args.seed, args.seconds, bool(args.trace), run_dir)
        end_to_end, layers = run.execute()
        if args.trace:
            trace_path = WORK / f"trace-{w.name}-s{args.seed}.json"
            run.tracer.write(trace_path)
            print(f"spans: {len(run.tracer.spans)} written to {trace_path}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    out = run.out
    calls = w.predict_calls
    print(f"predict: {len(run.predict_p50)} blocks of {calls} closed-loop calls, one caller; "
          f"each block's p99 has {calls // 100} calls beyond it; "
          "reported: the mean block p50 and the median block p99")
    problems = bench.gate_failures(out)
    result = {"correct": not problems, "attempted": out.attempted,
              "failed": out.attempted - out.completed, "metrics": {}}
    if problems:
        for p in problems:
            print(f"gate: {p}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    chosen = layers if args.trace else end_to_end
    result["metrics"] = {name: {"value": float(v), "unit": unit} for name, (v, unit) in chosen.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
