"""The machine's current speed, so that CPU times can be stated at one
reference speed.

On a shared virtual machine the same pure-Python code can take 1.5 to 2
times as much CPU time from one half-minute to the next, because other
tenants share the physical core and its caches; a whole benchmark run can
fall into such a slow spell.  ``Speed`` runs a fixed pure-Python loop every
INTERVAL_S of wall time, from a timer signal, so that long calls are covered
too, and records its CPU time.  The loop has two
halves, since a neighbour can slow the core and the shared cache apart:
dict updates and integer arithmetic on a table that stays in the core's
cache, and a walk that jumps through a 2 MiB array, missing it.  A CPU
time measured while the loop took ``median`` seconds is reported as
``cpu * REFERENCE_S / median``: the CPU time the same work would have taken
at the speed where the loop takes REFERENCE_S.  The loop never calls
latcheck, so a change to latcheck cannot change it.
"""

import gc
import signal
import statistics
import time
from array import array

# the loop's CPU time on the 2-vCPU VM the bounds were set on, in a quiet spell
REFERENCE_S = 0.007
INTERVAL_S = 0.25
SAMPLES_AFTER_SETUP = 5


WALK_BITS = 18


def _walk_array():
    # x -> 69069 x + 12345 mod 2^18 visits every slot (Hull-Dobell)
    mask = (1 << WALK_BITS) - 1
    return array("q", ((i * 69069 + 12345) & mask for i in range(mask + 1)))


def _loop(walk):
    table = {}
    for i in range(20000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + 1
    x = 0
    for _ in range(20000):
        x = walk[x]
    return table, x


class Speed:
    def __init__(self):
        self.samples = []  # CPU seconds of one loop
        self.total = 0.0
        self.walk = None

    def sample(self):
        # a collection of latcheck's garbage must not land inside the loop
        if self.walk is None:
            self.walk = _walk_array()
        enabled = gc.isenabled()
        gc.disable()
        c0 = time.process_time()
        _loop(self.walk)
        cpu = time.process_time() - c0
        self.samples.append(cpu)
        self.total += cpu
        if enabled:
            gc.enable()

    def start(self):
        """Sample every INTERVAL_S until ``stop``.  A sample can land inside
        a timed item; ``spent`` lets the caller take it out again."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self):
        """CPU seconds spent in the loop so far, to subtract from timings."""
        return self.total

    def scale(self, first=0):
        """Factor from CPU seconds to reference speed, from the samples taken
        since the ``first``-th one."""
        return REFERENCE_S / statistics.median(self.samples[first:])


SPEED = Speed()
