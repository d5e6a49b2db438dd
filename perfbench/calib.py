"""How fast the host runs right now, and times scaled to a fixed speed.

The benchmark runs on a few vCPUs of a shared host. The same piece of
work takes from 1x to 2x (briefly up to 4x) its quiet time, depending on
what the host's other tenants do, in spells of seconds to minutes, on
each vCPU on its own. CPU time does not help: the vCPU is not taken
away (steal time stays near 0), it runs slower. So each timed call is
bracketed by ``calibrate()``, a fixed piece of work in the same process
on the same CPU, and the call's time is scaled by how much slower than
``REFERENCE_S`` the calibration ran around it.

The calibration never calls the package, so no change to the program can
change it: a program that gets 10% slower reads 10% slower in reference
seconds. It mixes what the package spends its time on: interpreted
integer arithmetic, dict and string work, and small numpy calls.
"""

import time
from collections import defaultdict

import numpy as np

# the calibration's time on a quiet core of the 2-vCPU host the benchmark
# was built on (a 2.0 GHz Xeon); one reference second is one second there
REFERENCE_S = 0.020

_TEXT = "".join("0123"[(i * 7919 + i * i * 31) % 4] for i in range(20000))
_ARRAY = np.arange(4096, dtype=np.float64)


def _work():
    s = 0
    for i in range(100000):
        s += i * i % 7
    counts = defaultdict(int)
    for j in range(len(_TEXT) - 3):
        counts[_TEXT[j:j + 3]] += 1
    x = 0.0
    for k in range(300):
        x += float((_ARRAY * k).sum())
    return s, sorted(counts.items()), x


def calibrate():
    """Seconds one run of the calibration work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def to_reference(seconds, cal_s):
    """``seconds`` measured while the calibration took ``cal_s``, in
    reference seconds."""
    return seconds * REFERENCE_S / cal_s
