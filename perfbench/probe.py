"""Machine-speed probe: scales measured times to a nominal machine speed.

On a shared virtual machine the processor's speed drifts: the same
census took 4.0 s and 7.5 s a minute apart, with ``cpu_s`` tracking
``wall_s`` and no steal time, in regimes lasting tens of seconds that no
median over a run can average away.  The probe measures that speed while
the workload runs, on the same processor and in the same process.

``Ticker`` interrupts the commands every ``INTERVAL_S`` with SIGALRM and
times one ``run_slice()``: a fixed piece of pure-Python table arithmetic of
the kind torsionlab's hot loops do (flat Cayley tables, bitset
submodule enumeration, associativity search), frozen here so that a
change to the program cannot change the probe.  The median slice
duration over a run of commands tracks that run's wall time
(correlation 0.97 over 28 census-rcm runs), though on census-delta it
takes out only part of a drift; ``scale()`` turns it into the factor
that maps measured seconds onto seconds at the nominal speed, where
one slice takes ``NOMINAL_SLICE_S``.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_SLICE_S = 0.002  # a slice's median duration on a 2-vCPU Xeon VM at its usual speed


def _bits_of(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submodules(m, add, act, zero):
    """All subsets containing ``zero`` closed under ``add`` and ``act``."""
    start = 1 << zero
    found = {start}
    queue = [start]
    while queue:
        sub = queue.pop()
        for x in range(m):
            if sub >> x & 1:
                continue
            orbit = {act[r * m + x] for r in range(m)}
            elems = list(_bits_of(sub))
            bigger = sub
            for t in orbit:
                for s in elems:
                    bigger |= 1 << add[s * m + t]
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found)


def _associative(m, table):
    for i in range(m):
        for j in range(m):
            ij = table[i * m + j]
            for k in range(m):
                if table[ij * m + k] != table[i * m + table[j * m + k]]:
                    return False
    return True


def _product_ring(p, q):
    """Z_p x Z_q as flat addition and multiplication tables."""
    elems = [(a, b) for a in range(p) for b in range(q)]
    index = {e: i for i, e in enumerate(elems)}
    add = [index[((a + c) % p, (b + d) % q)] for (a, b) in elems for (c, d) in elems]
    mul = [index[((a * c) % p, (b * d) % q)] for (a, b) in elems for (c, d) in elems]
    return len(elems), add, mul, index[(0, 0)]


_RINGS = [_product_ring(p, q) for p, q in ((2, 4), (4, 2), (2, 6), (3, 3), (2, 2), (3, 4))]
EXPECTED = 40  # submodules found plus rings found associative, in every slice


def run_slice():
    """One unit of reference work; returns (seconds taken, result)."""
    start = time.perf_counter()
    total = 0
    for m, add, mul, zero in _RINGS:
        total += len(_submodules(m, add, mul, zero)) + _associative(m, mul)
    return time.perf_counter() - start, total


def scale(durations):
    """Factor from measured seconds to seconds at the nominal speed."""
    return NOMINAL_SLICE_S / statistics.median(durations)


class Ticker:
    """Times one slice every ``INTERVAL_S`` of wall time while active."""

    def __init__(self):
        self.durations = []
        self.wrong = 0  # slices whose result was not EXPECTED

    def _tick(self, signum, frame):
        # never raises: an exception here would surface inside the commands
        elapsed, total = run_slice()
        self.durations.append(elapsed)
        self.wrong += total != EXPECTED

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
