"""A fixed piece of CPU work that tracks how fast the machine runs.

On a shared VM the CPU time of a fixed command drifts by 10-15% over a
few minutes, as other tenants load the host.  While the timed loop runs,
run.py paces this reference through the work: after every command, and
after every replication inside a ``simulate`` command, it runs the
reference for a fixed share of the CPU time used since the last time.
The times it reports are then scaled by how fast the reference ran.  The
reference is the kind of work the samplers do: an interpreter loop,
scalar numpy draws and scalar scipy special functions.  It calls no
dpgibbs code, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

# CPU seconds of one unit on the machine the reported times are scaled to:
# the 2-vCPU VM the benchmark was built on (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1).
UNIT_S = 0.0125


class Reference:
    def __init__(self, share: float):
        self.share = share  # reference CPU seconds per CPU second of work
        self.rng = np.random.default_rng(0)
        self.units = 0
        self.seconds = 0.0
        self._mark = None  # CPU time at the end of the last pace(), while started
        self._owed = 0.0  # reference CPU seconds due; negative when run ahead

    def _unit(self):
        s = 0.0
        for i in range(100_000):
            s += i * 0.5
        rng = self.rng
        for _ in range(2_000):
            rng.standard_normal()
            special.ndtri(0.3)
            special.gammaincc(2.0, 0.4)
            np.exp(0.3)

    def start(self):
        self._mark = time.process_time()
        self._owed = 0.0

    def stop(self):
        self._mark = None

    def pace(self):
        """Once started, run whole units until the reference has had `share`
        of the CPU time used since start().  A unit that overshoots is paid
        back by later calls, so short commands do not each cost a unit."""
        if self._mark is None:
            return
        t0 = time.process_time()
        self._owed += self.share * (t0 - self._mark)
        used = 0.0
        while used < self._owed:
            self._unit()
            self.units += 1
            used = time.process_time() - t0
        self._owed -= used
        self.seconds += used
        self._mark = time.process_time()

    def speed(self) -> float:
        """How many times faster than the scale machine this run's machine ran."""
        return UNIT_S * self.units / self.seconds
