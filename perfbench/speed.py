"""Calibration slices: a fixed piece of work that tracks the machine's speed.

On a shared VM the speed of the same code drifts by up to 1.7x over
minutes, so that whole 30-second runs land in a slow or a fast state.
The worker runs a calibration slice before its first operation, one for
each ``EVERY_S`` of operation time, after the operation in which it falls,
and one after its last operation.  A slice is exact rank by fraction-free
elimination (``reference.bareiss_rank``) of a fixed 12x12 matrix with
rational entries, 50 times: pure-Python arithmetic on ints and
``Fraction``s, like the library's scalar layers, and independent of the
library, so a change to the library does not move it.  The cyclic
garbage collector is off during a slice, so a larger heap left by the
library does not slow the slice.

``run.py`` scales the end-to-end wall times by ``REFERENCE_S`` / (mean
slice wall time of the run), and the CPU time by ``REFERENCE_S`` / (mean
slice CPU time): the times are reported in seconds at a reference speed,
at which one slice takes ``REFERENCE_S``.  Over 500 s of alternating
library and calibration work on a 2-CPU VM, the 30-second means of the
library time spread with a coefficient of variation of 0.100 raw and
0.019 once scaled.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import reference as ref

REFERENCE_S = 0.05   # slice time at the reference speed
EVERY_S = 0.4        # operation time per slice
REPEATS = 50

_rng = random.Random(5)
MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5))
           for _ in range(12)] for _ in range(12)]
RANK = 12


def run_slice() -> list:
    """[wall, CPU] time of one calibration slice, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(REPEATS):
            rank = ref.bareiss_rank(MATRIX)
        elapsed = [time.perf_counter() - wall0, time.process_time() - cpu0]
    finally:
        if enabled:
            gc.enable()
    if rank != RANK:
        raise RuntimeError(f"calibration rank {rank}, expected {RANK}")
    return elapsed
