"""Run every workload repeatedly and report how steady each metric is.

Usage:
    python3 perfbench/steady.py [--workloads catalog,poset,oracle,query]
                                [--repeats 10] [--first-seed 1] [--trace]

Each repetition is one ``run.py`` run with its own seed (first-seed,
first-seed + 1, ...), always of the length BENCHMARK.json fixes
(``run_seconds``).  For every workload and end-to-end metric the
command prints the median, the first and third quartiles of the runs
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median,
and that spread as a share of the metric's bound in BENCHMARK.json,
together with the operations attempted and failed.  ``--repeats 1`` is
the quick way to run every workload once and see every metric.  With
``--trace`` each workload also gets one traced run, whose per-layer
metrics are printed.  The summary is also written to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + k, seconds, 0)
                for k in range(args.repeats)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"== {workload}: {len(runs)} runs, attempted {attempted}, "
              f"failed {failed}, failed share per run {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if len(values) >= 2:
                med, q1, q3, rel = spread(values)
                print(f"  {name:<12} {med:12.4f} {unit:<4} q1 {q1:.4f} "
                      f"q3 {q3:.4f} spread {rel:.3f} bound {bound} "
                      f"({rel / bound:.2f} of bound)")
            else:
                med, q1, q3, rel = values[0], None, None, None
                print(f"  {name:<12} {med:12.4f} {unit}")
            rows[name] = {"values": values, "median": med, "q1": q1,
                          "q3": q3, "spread": rel, "bound": bound}
        summary[workload] = {"runs": runs, "metrics": rows}
        if args.trace:
            traced = run_once(workload, args.first_seed, seconds, 1)
            print(f"  traced run: correct {traced['correct']}, attempted "
                  f"{traced['attempted']}, failed {traced['failed']}")
            for name, m in traced["metrics"].items():
                print(f"    {name:<28} {m['value']:14.4f} {m['unit']}")
            summary[workload]["traced"] = traced
        sys.stdout.flush()

    out = HERE / "runs" / f"STEADY_{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
