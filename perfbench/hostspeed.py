"""Host speed samples, so that timed metrics follow the engine, not the host.

On a shared host the same work runs 20-40 % slower in some minutes than in
others, as other tenants' load comes and goes: identical catalog8 passes took
9.8-13.3 s in five runs one after another on a 2-core host.  Reference work
that uses no pklie code slows down with it, and no change to the engine moves
it, so every end-to-end time is reported at the reference host speed: each raw
sample is divided by the time of reference work run right next to it and
multiplied by that work's time on the reference host.

In-process times (a timed run's decisions, verifications and passes) use
``sample``, exact Gauss-Jordan elimination of a fixed 9 x 9 matrix over
``fractions.Fraction``: rational arithmetic and allocation, as in the engine.
It is sampled at the start of a timed run, after each item and between each
decision and its verification, and the times between two samples are scaled
by the mean of the two.  On a 2-core host, with 10 s blocks of a 150 s
snn8_obstruct run whose raw median decision time spread 0.37 between blocks,
the scaled medians spread 0.015; a pure integer loop sampled the same way
left 0.12.

Set-up and CLI times are times of fresh processes, which in-process work does
not track alone: a cold CLI run starts an interpreter, imports numpy, reads
and compiles the pklie sources and then does a little rational arithmetic.
Each set-up and CLI sample is therefore timed between two runs of
``cold_reference`` in a fresh interpreter, which does the same kinds of work
without pklie code: it imports numpy, compiles this directory's sources three
times and runs ``sample`` eight times.  A sample is scaled by the mean of the
two runs around it.  On a 2-core host, in four sets of 48-72 alternating runs
(quiet, under a second benchmark, under an intermittent busy loop), the ratio
of a cold snn8_obstruct CLI run to this reference spread 0.10-0.13 from
sample to sample; to an interpreter that only imports numpy it spread
0.12-0.20.
"""

from __future__ import annotations

import glob
import os
import random
from fractions import Fraction
from time import perf_counter

# Near the fastest time ``sample`` took on the host the baseline was measured
# on (2.8-5.5 ms within one second there); at that speed the scaled times
# equal the raw ones.
REFERENCE_S = 0.003

# ``cold_reference``'s time in a fresh interpreter on the reference host.
COLD_REFERENCE_MS = 250.0

_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9)] for _ in range(9)]


def sample() -> float:
    """Seconds the fixed rational elimination takes now."""
    t0 = perf_counter()
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Factor from raw times of work between two ``sample`` results to times
    at the reference host speed."""
    return 2 * REFERENCE_S / (before + after)


def cold_scale(raw: float, reference_ms: float) -> float:
    """A cold-process time at the reference host speed, from its raw time (in
    any unit) and the time of the ``cold_reference`` run next to it."""
    return raw * COLD_REFERENCE_MS / reference_ms


def cold_reference() -> None:
    """A cold process start that no change to pklie moves; run this file."""
    import argparse, json, numpy  # noqa: E401, F401  (imported as a CLI run imports them)

    sources = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), "*.py")))
    for _ in range(3):
        for path in sources:
            with open(path) as fh:
                compile(fh.read(), path, "exec")
    for _ in range(8):
        sample()


if __name__ == "__main__":
    cold_reference()
