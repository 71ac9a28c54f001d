"""A fixed piece of work whose time tracks the machine's speed.

On a shared machine the speed drifts by tens of percent over seconds, from
load the benchmark does not control.  Run next to a timed operation, the
probe measures that drift, so a time can be scaled to a fixed speed: the
speed at which the probe takes PROBE_REF_S.
"""

import time

import numpy as np

#: the probe's median time in benchmark runs on the reference machine
#: (a shared 2-core Linux machine)
PROBE_REF_S = 0.020

_PROBE_DATA = np.random.default_rng(0).random(50_000)


def speed_probe() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    for _ in range(10):
        np.searchsorted(np.sort(_PROBE_DATA), _PROBE_DATA[:1000])
    return time.perf_counter() - t0
