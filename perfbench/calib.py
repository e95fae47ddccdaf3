"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same fixed Python loop
can take 1.5 to 2 times longer for seconds to minutes at a stretch.  A
fixed unit of work that does not touch nfaindex runs between operations,
and every reported time is scaled to reference seconds, seconds on a
machine where one unit takes ``CAL_REF_S``, using the units measured just
before and just after it.  The unit imitates where nfaindex spends its
time, a breadth-first walk over pairs of states held in tuples, sets and a
deque, a small uint8 matrix product and the parsing of a JSON list of
pairs, so that both slow down together.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

import numpy as np

CAL_REF_S = 0.004

_N = 300
_rng = random.Random(0)
_SUCC = [tuple(_rng.randrange(_N) for _ in range(3)) for _ in range(_N)]
_STARTS = [(u, (u * 7 + 1) % _N) for u in range(0, _N, 5)]
_MAT = (np.arange(96 * 96).reshape(96, 96) % 5 == 0).astype(np.uint8)
_PAIRS = json.dumps([[u, (u * 7) % _N] for u in range(1500)])


def calibrate() -> float:
    """Seconds taken by one fixed unit of pair-walk, matrix and JSON work."""
    t0 = time.perf_counter()
    seen = set(_STARTS)
    queue = deque(_STARTS)
    while queue and len(seen) < 4000:
        u, v = queue.popleft()
        for x in _SUCC[u]:
            for y in _SUCC[v]:
                if x != y and (x, y) not in seen:
                    seen.add((x, y))
                    queue.append((x, y))
    int((_MAT @ _MAT > 0).sum())
    len(set(map(tuple, json.loads(_PAIRS))))
    return time.perf_counter() - t0


def reference_times(times: list[float], cals: list[float]) -> list[float]:
    """Scale each time by the calibration measured just before and after it.

    ``cals`` has one more entry than ``times``: time i was measured between
    cals[i] and cals[i + 1].
    """
    return [t * 2 * CAL_REF_S / (cals[i] + cals[i + 1]) for i, t in enumerate(times)]
