"""One round of a workload, in a fresh single-threaded process.

Usage: python3 worker.py JOB.json RESULT.json

The job lists the operations; the worker imports the library, runs the
warm-up the program needs, then times every operation: wall time with
``perf_counter``, process CPU time with ``process_time``.  CLI operations
call ``flagorbits.cli.main`` in-process with stdout and stderr captured.
Between operations the worker runs calibration slices (``speed.py``):
one before the first operation, one for each ``speed.EVERY_S`` of
operation time, run after the operation in which it falls, and one after
the last operation.
The result file holds each operation's times and outputs, the slice
times, the monotonic time set-up ended (the parent subtracts its own
spawn time to get the set-up time) and the process's peak resident set.
With ``"trace": true`` the span recorder is installed before anything
runs, and the spans are written next to the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def run_query(fo, op) -> dict:
    """parse literal -> reduce_flag -> signature -> orbit_dimension"""
    f = fo.parse_flag_literal(op["literal"])
    nn = fo.Composition(tuple(op["nn"]))
    nf = fo.reduce_flag(f, nn)
    sig = fo.signature(f, fo.invariant_family(nn, f.typ))
    dim = fo.orbit_dimension(f, nn)
    return {"nf": nf.serialize(), "dim": dim,
            "sig": [[s, list(J), v]
                    for (s, J), v in zip(sig.family.entries, sig.values)]}


def run_cli(fo, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fo.cli.main(op["argv"])
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    recorder = None
    if job["trace"]:
        import spans
        recorder = spans.Recorder().install()
    import flagorbits as fo
    import flagorbits.cli  # noqa: F401  (binds fo.cli)

    runners = {"cli": run_cli, "query": run_query}
    for op in job["warmup"]:
        runners[op["kind"]](fo, op)

    setup_end = time.monotonic()
    import speed
    slices = [speed.run_slice()]
    since_slice = 0.0
    results = []
    for op in job["ops"]:
        probes_before = len(recorder.probes) if recorder else 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = runners[op["kind"]](fo, op)
        except Exception as exc:  # reported as a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"[:500]}
        out["cpu"] = time.process_time() - cpu0
        out["wall"] = time.perf_counter() - wall0
        if recorder:
            out["probes"] = recorder.probes[probes_before:]
        results.append(out)
        # one slice per EVERY_S of operation time, so that the slices
        # sample the round's operation time evenly
        since_slice += out["wall"]
        while since_slice >= speed.EVERY_S:
            slices.append(speed.run_slice())
            since_slice -= speed.EVERY_S
    slices.append(speed.run_slice())

    record = {"setup_end": setup_end, "ops": results, "slices": slices,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "library": fo.__file__}
    if recorder:
        recorder.dump(result_path + ".spans")
        record.update(span_names=recorder.names, counts=recorder.counts,
                      missing=recorder.missing)
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
