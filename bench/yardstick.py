"""Host speed, sampled while a pass runs, to scale pass times to a nominal speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two, both over tens of seconds and from one second to the
next: the same pass on the same input takes 1.1 s, then 2.0 s, with process
CPU time equal to wall time.  The drift hits all interpreter-bound code
alike.  So while a pass runs, a :class:`Sampler` interrupts it every
:data:`PERIOD_S` with ``SIGALRM`` and times a small fixed piece of work, the
yardstick.  The time spent in the yardstick is taken out of the pass time,
and the rest is scaled to the host speed at which one yardstick reading
takes :data:`NOMINAL_S`.  On a 2-vCPU VM this brings the spread of one pass
on one input from about 15% to about 3% (coefficient of variation), for
about 2% of extra time.

The yardstick is the benchmark's own code and never calls carefulsync, so
a change to the library cannot move it.  It is a breadth-first search over
the power automaton of a small cyclic DFA, the same kind of work as the
library's hot path: masks, bit operations, lookups in a flat byte table
and in a set, and a deque.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

N = 9
PERIOD_S = 0.05
# One reading on the 2-vCPU reference VM when it runs fast; a scaled time
# equals the raw time on a host where a reading takes this long.
NOMINAL_S = 0.00075


def _reachable(n: int) -> int:
    """Subsets reachable from the full set of the n-state cyclic DFA (rotate, merge 0 into 1)."""
    cols = ([(q + 1) % n for q in range(n)], [1 if q == 0 else q for q in range(n)])
    flat = bytearray(1 << n)
    seen = set()
    full = (1 << n) - 1
    flat[full] = 1
    queue = deque([full])
    while queue:
        s = queue.popleft()
        for col in cols:
            t, m = 0, s
            while m:
                low = m & -m
                t |= 1 << col[low.bit_length() - 1]
                m ^= low
            if not flat[t]:
                flat[t] = 1
                seen.add(t)
                queue.append(t)
    return len(seen) + 1


def reading() -> float:
    """Wall time of one yardstick run."""
    t0 = time.perf_counter()
    count = _reachable(N)
    elapsed = time.perf_counter() - t0
    if count != (1 << N) - 1:  # every nonempty subset is reachable
        raise RuntimeError(f"yardstick counted {count} subsets")
    return elapsed


class Sampler:
    """Takes yardstick readings on entry, every ``PERIOD_S`` while active, and on exit.

    ``spent`` is the time the readings took while active, which the caller
    subtracts from the time it measured around the ``with`` body.
    """

    def __enter__(self) -> Sampler:
        self.readings = [reading()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(reading())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.readings.append(reading())

    def scale(self, elapsed: float) -> float:
        """``elapsed`` at the nominal host speed."""
        return elapsed * NOMINAL_S / statistics.fmean(self.readings)
