"""flagorbits benchmark: one workload, measured for a fixed time.

Usage:
    python3 perfbench/run.py --workload {catalog,poset,oracle,query}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  The run repeats whole rounds of the workload's operations, each
round in a fresh worker process (single-threaded, cold caches), until the
next round would end after ``--seconds``; at least three rounds run,
unless that would take the run past 150 s.  Every output is checked
against the independent references.  The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A full record of the run goes
to ``perfbench/runs/``.

End-to-end metrics, medians over the run's untraced rounds:
    setup_s      worker start to first timed operation (import + warm-up)
    wall_s       sum of operation wall times
    cpu_s        process user+sys CPU over the operations
    op_median_s  median over the operations of each one's median wall time
    peak_rss_mb  peak resident set of a worker
On a shared 2-CPU VM the speed was seen to switch between states up to
1.7x apart, that last from a second to several minutes.  So each round's
four times are scaled to a reference speed: multiplied by
speed.REFERENCE_S over the mean time of the calibration slices the round
ran between its operations (see speed.py), wall time for the wall times
and CPU time for cpu_s.  The record keeps the slices and the figures
before scaling.  See perfbench/README.md.

A traced run alternates untraced and traced rounds, so that it can report
the tracing overhead: the median over traced rounds of traced wall_s minus
the mean wall_s of the untraced rounds next to it.  Per-layer seconds and
the overhead are scaled to the reference speed by each round's own
factor, like the end-to-end times.
"""

from __future__ import annotations

import argparse
import array
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
# a run must end within 180 s however slow the program gets: past this
# point no new round starts, even below MIN_ROUNDS
RUN_LIMIT_S = 150
ROUND_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "op_median_s": "s", "peak_rss_mb": "MiB"}


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine(), "commit": commit}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(work, trace: bool, tmp: Path, k: int) -> dict:
    """Run the workload's operations once in a fresh worker process."""
    job, result = tmp / f"job{k}.json", tmp / f"result{k}.json"
    job.write_text(json.dumps({"ops": work.ops, "warmup": work.warmup,
                               "trace": trace}))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job), str(result)],
        env=worker_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=ROUND_TIMEOUT_S)
    ended = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    record = json.loads(result.read_text())
    if not Path(record["library"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported {record['library']}, not {SRC}")
    record["setup_s"] = record.pop("setup_end") - spawned
    record["elapsed_s"] = ended - spawned
    record["trace"] = trace
    if trace:
        raw = array.array("q")
        with open(str(result) + ".spans", "rb") as fh:
            raw.frombytes(fh.read())
        record["layers"] = spans.layer_metrics(
            record.pop("span_names"), raw, record.pop("counts"))
    return record


def wall(record: dict) -> float:
    return sum(op["wall"] for op in record["ops"])


def speed_factors(record: dict) -> dict:
    """speed.REFERENCE_S over the round's mean calibration slice, by wall
    and by CPU time: the factors that scale its times to the reference
    speed."""
    return {clock: speed.REFERENCE_S / statistics.mean(
        s[k] for s in record["slices"])
        for k, clock in enumerate(("wall", "cpu"))}


def end_to_end(rounds: list, scaled: bool = True) -> dict:
    """Medians over the untraced rounds.  With ``scaled``, each round's
    times are first multiplied by that round's speed factors."""
    per_round = []
    for r in rounds:
        if r["trace"]:
            continue
        f = speed_factors(r) if scaled else {"wall": 1.0, "cpu": 1.0}
        per_round.append({
            "setup_s": r["setup_s"] * f["wall"],
            "wall_s": wall(r) * f["wall"],
            "cpu_s": sum(op["cpu"] for op in r["ops"]) * f["cpu"],
            "ops": [op["wall"] * f["wall"] for op in r["ops"]],
            "peak_rss_mb": r["peak_rss_mb"]})
    metrics = {name: statistics.median(p[name] for p in per_round)
               for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
    metrics["op_median_s"] = statistics.median(
        statistics.median(p["ops"][i] for p in per_round)
        for i in range(len(per_round[0]["ops"])))
    return metrics


def summarize(rounds: list, trace: bool) -> dict:
    if not trace:
        return end_to_end(rounds)
    # per-layer seconds and the overhead are scaled to the reference speed
    # by each round's own factor, like wall_s
    def scaled_wall(r):
        return wall(r) * speed_factors(r)["wall"]

    seconds = {name for name, unit, _ in spans.LAYER_METRICS if unit == "s"}
    traced = [r for r in rounds if r["trace"]]
    layers = {name: statistics.median(
        r["layers"][name] * (speed_factors(r)["wall"] if name in seconds
                             else 1) for r in traced)
        for name in traced[0]["layers"]}
    # each traced round against the mean of the untraced rounds on either
    # side of it
    overheads = []
    for k, r in enumerate(rounds):
        if r["trace"]:
            near = [scaled_wall(rounds[j]) for j in (k - 1, k + 1)
                    if j < len(rounds) and not rounds[j]["trace"]]
            overheads.append(scaled_wall(r) - statistics.mean(near))
    layers["trace.overhead_s"] = statistics.median(overheads)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # on SIGTERM, unwind: subprocess.run kills and waits for the worker,
    # and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "flagorbits" / "cli.py").is_file():
        print(f"error: no flagorbits sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed)
    compileall.compile_dir(str(SRC / "flagorbits"), quiet=1)

    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    rounds, failures = [], []
    first_outputs = None
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        while True:
            # a traced run alternates untraced and traced rounds
            rec = run_round(work, trace and len(rounds) % 2 == 1, Path(tmp),
                            len(rounds))
            outputs = [{k: v for k, v in op.items()
                        if k not in ("wall", "cpu", "probes")}
                       for op in rec["ops"]]
            if first_outputs is None:
                first_outputs = outputs
            for i, out in enumerate(outputs):
                try:
                    reason = work.check(i, rec["ops"])
                except Exception as exc:  # output the check cannot read
                    reason = f"unparsable output: {type(exc).__name__}: {exc}"
                if reason is None and out != first_outputs[i]:
                    reason = "output differs from the first round's"
                if reason is not None:
                    # a wrong output, unless the operation never produced
                    # one (it raised, or its verb exited with an error)
                    failures.append({"round": len(rounds), "op": work.labels[i],
                                     "reason": reason[:500],
                                     "wrong": workloads.ran_to_end(out)})
            rounds.append(rec)
            elapsed = time.monotonic() - start
            per_round = elapsed / len(rounds)
            if elapsed + per_round > args.seconds and (
                    len(rounds) >= MIN_ROUNDS or
                    elapsed + per_round > RUN_LIMIT_S and
                    len(rounds) >= 1 + trace):
                break

    attempted = len(work.ops) * len(rounds)
    summary = summarize(rounds, trace)
    units = E2E_UNITS if not trace else {
        name: unit for name, unit, _ in spans.LAYER_METRICS}
    result = {"correct": not any(f["wrong"] for f in failures),
              "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": summary[name], "unit": units[name]}
                          for name in units}}

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace,
              "environment": environment(), "result": result,
              "raw": end_to_end(rounds, scaled=False),
              "failures": failures,
              "rounds": [{"trace": r["trace"], "setup_s": r["setup_s"],
                          "elapsed_s": r["elapsed_s"],
                          "peak_rss_mb": r["peak_rss_mb"],
                          "slices": r["slices"],
                          "ops": [{"op": label, "wall": op["wall"],
                                   "cpu": op["cpu"]}
                                  for label, op in zip(work.labels, r["ops"])],
                          **({"layers": r["layers"],
                              "missing": r["missing"]} if r["trace"] else {})}
                         for r in rounds]}
    path = out_dir / (f"BENCH_{args.workload}_seed{args.seed}_"
                      f"trace{args.trace}_{stamp}_{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1))
    for f in failures[:10]:
        print(f"FAILED round {f['round']} {f['op']}: {f['reason']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
