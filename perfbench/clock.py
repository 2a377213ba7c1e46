"""A reference clock: times rescaled by a fixed probe run between operations.

The CPU of a shared machine changes speed by up to 1.7x, for seconds or
for minutes at a time, with the load of its other tenants.  A run that
happens to fall in a slow stretch would read as a regression of the
program.  So the workload process runs a short fixed probe, which does
not touch freestoch, in the gaps between operations, and every time the
benchmark reports is rescaled by

    (REFERENCE_S / median(probe times taken while it was measured)) ** SENSITIVITY

A change to freestoch moves the operations but not the probe, so it shows
in full.  A change in the machine's speed moves both, but the workloads
less than the probe: from the fast to the slow clock the probe slowed by
1.75x and the workloads by 1.4-1.55x, and over shorter swings of the probe
they moved still less.  SENSITIVITY is the exponent that made the
workloads' times steadiest over two sets of ten runs each, taken while
the machine's speed changed (0.5-0.8 fitted best, depending on metric);
with 1 the slow clock read up to 20% fast.  The raw seconds are reported
next to the rescaled ones.

The probe is rational arithmetic on a small dict plus lookups spread over
a larger one (about 1 MB, which the workload process's peak RSS
includes).
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0012
SENSITIVITY = 0.6
_TABLE_SIZE = 4096


def _make_probe():
    rng = random.Random(0)
    table = {(rng.randrange(10**6), i): Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
             for i in range(_TABLE_SIZE)}
    keys = list(table)
    rng.shuffle(keys)

    def probe() -> None:
        acc: dict = {}
        for i in range(300):
            key = (i % 13, i % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
        total = Fraction(0)
        for i in range(200):
            total += table[keys[i * 997 % _TABLE_SIZE]]

    return probe


class Clock:
    """Takes probe samples and turns raw seconds into reference seconds."""

    def __init__(self):
        t0 = perf_counter()
        self._probe = _make_probe()
        self._probe()
        self.samples: list[float] = []
        # Every second the clock itself takes, so that callers can leave it out.
        self.probe_total_s = perf_counter() - t0

    def probe(self, repeats: int = 1) -> None:
        t_start = perf_counter()
        for _ in range(repeats):
            t0 = perf_counter()
            self._probe()
            self.samples.append(perf_counter() - t0)
        self.probe_total_s += perf_counter() - t_start

    def take(self) -> list[float]:
        """The samples since the last take."""
        out, self.samples = self.samples, []
        return out


def scale(samples: list[float]) -> float:
    """Factor from raw seconds to reference seconds, given the probe samples."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
