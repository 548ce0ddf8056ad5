"""Host speed, sampled beside a benchmark run on the CPUs it runs on.

The host this benchmark was built on drifts in speed by 10-60% over
minutes, per virtual CPU: a probe on the other CPU hardly tracks a run
(correlation 0.27 over 84 units), and one timed just before and after
each unit does not either (0.22).  So for every run the parent starts one
sampler per CPU the run may use, pinned to that CPU.  A sampler times a
fixed ~1 ms workout twice (keeping the faster) every ``PERIOD_S`` and
records when.  The mean reading over a unit's interval says how fast that
CPU ran for the unit (correlation 0.91-0.99 with the unit's time), and
``wall_s * REFERENCE_SAMPLE_S / mean`` is the unit's time in reference
seconds (``ref_s``): seconds on the quiet reference host.

The workout is NumPy calls on short arrays, as in the simulator's hit-run
kernel, whose windows start at 64 accesses: per-call overhead outweighs the
arithmetic there.  Scaled by it, unit times vary less than scaled by a
pure-interpreter workout, on the slow-path-bound and the hit-run-bound
workloads alike; a workout on long arrays made both worse (see
``bench/README.md``).

Run as ``python -m bench.speed CPU OUT``: samples until its standard input
closes, then writes ``OUT``.  It imports nothing from the reproduction, so
no change to the program moves its readings except by sharing the CPU.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: What one sample reads on the reference host, the 2-vCPU Intel Xeon VM this
#: benchmark was built on, at its typical speed: 0.45 (the ratio of this
#: workout's median to a 5,000-step dict-and-heap interpreter workout's,
#: over 2,085 paired readings on an idle CPU) times 1.7 ms (that
#: interpreter workout's median over 368 idle readings at typical speed).
REFERENCE_SAMPLE_S = 0.00076

#: Pause between samples: about 4% of the CPU goes to sampling.
PERIOD_S = 0.05

#: Workout size: about 1 ms, short enough to run between scheduler ticks.
WORKOUT_LENGTH = 256
WORKOUT_ROUNDS = 60

#: A unit shorter than a few periods is judged by the samples nearest it.
MIN_SAMPLES = 3


def make_workout() -> Callable[[], float]:
    """A timed round of gathers, compares, prefix sums and index scans."""
    rng = np.random.default_rng(1)
    values = rng.integers(0, 64, WORKOUT_LENGTH)
    index = rng.integers(0, WORKOUT_LENGTH, WORKOUT_LENGTH)

    def workout() -> float:
        start = time.perf_counter()
        for _ in range(WORKOUT_ROUNDS):
            gathered = values[index]
            mask = gathered == (values & 7)
            hits = np.flatnonzero(mask)
            (np.cumsum(mask)[hits] + np.maximum.accumulate(gathered)[hits]).sum()
        return time.perf_counter() - start

    return workout


def sample_until_stdin_closes(cpu: int, out: str) -> None:
    os.sched_setaffinity(0, {cpu})
    workout = make_workout()
    samples: List[Tuple[float, float]] = []
    while True:
        stamp = time.monotonic()
        samples.append((stamp, min(workout(), workout())))
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.read(1):
            break
    with open(out, "w") as handle:
        json.dump(samples, handle)


def speed_over(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Mean sample reading over ``[start, end]`` (``time.monotonic`` stamps).

    With fewer than ``MIN_SAMPLES`` inside, the samples nearest the
    interval's middle stand in.
    """
    inside = [reading for stamp, reading in samples if start <= stamp <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))[:MIN_SAMPLES]
        inside = [reading for _, reading in nearest]
    if not inside:
        raise ValueError("no host-speed samples")
    return sum(inside) / len(inside)


def reference_factor(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Reference-host seconds per second of ``[start, end]`` on this host."""
    return REFERENCE_SAMPLE_S / speed_over(samples, start, end)


if __name__ == "__main__":
    sample_until_stdin_closes(int(sys.argv[1]), sys.argv[2])
