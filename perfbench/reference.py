"""Host-speed reference: normalises measured times on a shared machine.

On a host shared with other tenants the same Python code runs up to 40%
slower or faster from one minute to the next, for the same inputs, with
every run alike in CPU time and wall time.  Such drift moves a fixed
pure-Python loop by the same factor as the program, so the benchmark
times this loop next to each measurement and reports times scaled to a
host on which the loop takes NOMINAL_S:

    normalised time = measured time * NOMINAL_S / reference time

The loop mixes what the package spends its time on (float math, small
tuples, list building, calls) and is part of the benchmark, so a change
to the program never changes it.
"""

from __future__ import annotations

import gc
import math
import time
from collections import namedtuple

#: Reference time of one pass on the nominal host, in seconds.
NOMINAL_S = 0.015
_N = 15000

_State = namedtuple("_State", "a b c d")


def _one_pass() -> float:
    acc = 0.0
    s = _State(0.1, 0.2, 0.3, 0.4)
    rows = []
    for _ in range(_N):
        a, b, c, d = s
        x = math.sin(a) * b + math.cos(c) - d * 0.5
        s = _State(b, c, d, x % 1.0)
        rows.append([x, a, b])
        acc += abs(x)
    return acc


def slowdown() -> float:
    """Reference time of one pass over NOMINAL_S (above 1 on a slow host).

    The cyclic garbage collector is off during the pass, so its time does
    not depend on how many objects the benchmark process holds.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _one_pass()
        return (time.perf_counter() - t0) / NOMINAL_S
    finally:
        gc.enable()
