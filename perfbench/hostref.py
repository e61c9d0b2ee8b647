"""Host speed reference: a fixed piece of work that does not touch the package.

Pure-Python integer arithmetic, small dense linear algebra and bigint
products, the three kinds of work the package does.  Its time tracks how
fast a shared host runs at the moment: on the 2-core development box the
same work drifts by up to 1.6x within minutes, as neighbours load the
machine.  The benchmark runs it before every timed call and reports times
scaled to ``REF_UNIT_S``, its typical time there.
"""

from __future__ import annotations

import time

import numpy as np

_MAT = np.random.default_rng(12345).standard_normal((5, 3))
_BIG = 3 ** 4000
_MOD = 7 ** 3000 + 1
REF_UNIT_S = 0.004


def host_ref_s() -> float:
    """Seconds one reference unit takes now (about 2 ms on the 2-core box)."""
    started = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(30):
        np.linalg.svd(_MAT)
    x = _BIG
    for _ in range(20):
        x = x * _BIG % _MOD
    return time.perf_counter() - started


def host_scale(ref_s) -> float:
    """``REF_UNIT_S`` over the mean of reference times measured during a phase:
    multiply a measured time by it to get the time at the reference speed."""
    ref_s = list(ref_s)
    if not ref_s:
        raise ValueError("no reference times")
    return REF_UNIT_S * len(ref_s) / sum(ref_s)
