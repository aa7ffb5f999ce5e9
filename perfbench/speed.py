"""The host's speed, read from a fixed spin loop between timed phases.

The reference box is two cores of a shared host whose speed changes under
the benchmark: identical work takes 0.6 s one second and 0.9 s the next,
and for minutes at a stretch the whole machine runs 20-40% slower
(neighbours on the same cores; ``/proc/stat`` shows no steal, CPU time
equals wall time).  Averaging inside one run cannot remove a phase that
outlasts the run, and the driver refused raw seconds for it: ten-seed
quartile spreads of 18-29% on ``wall_s``, medians of two sets of the same
code 20% apart.

So every host time is reported *at reference speed*: the seconds measured,
divided by how much slower than :data:`REFERENCE_SECONDS` the spin loop
ran just before and just after the phase.  Measured on this box over 4-10
minute logs of one repeated unit, run-length means of the scaled time
spread about half as wide as raw ones (11% -> 5%; 25% -> 10% in a rough
phase), and over ten seeds the scaled ``wall_s`` spread 2-9% where raw
seconds spread 8-24% (tables in the README).  Not every slow phase shows
in the loop - some look like memory rather than CPU contention - so this
halves the noise, it does not remove it.

The spin loop is pure interpreter work that no change to ``repro`` can
move, so a scaled time compares two commits exactly as a raw one would on
a machine that held its speed; as a side effect numbers from machines of
different speeds read alike.  Raw seconds and the spin readings stay in
the result files.
"""

import time
from typing import List

#: What the spin loop reads on the reference box in a calm phase.
REFERENCE_SECONDS = 0.1


def spin() -> float:
    """Seconds for a fixed pure-Python loop."""
    began = time.perf_counter()
    total = 0
    for value in range(1_500_000):
        total += value * value & 0xFF
    return time.perf_counter() - began


class Speedometer:
    """Spin-loop readings taken between the phases of a run.

    Phases follow one another (set-up, unit, set-up, unit, ...), so the
    reading that closes one phase opens the next; :meth:`mark` takes a
    fresh opening reading after anything else ran in between.
    """

    def __init__(self) -> None:
        self.readings: List[float] = [spin()]

    def mark(self) -> None:
        self.readings.append(spin())

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the phase that just ended, at reference speed."""
        opened = self.readings[-1]
        self.mark()
        return seconds * REFERENCE_SECONDS * 2.0 / (opened + self.readings[-1])
