"""Host-speed calibration for wall-time samples.

On a shared host the speed of the same CPU-bound job drifts by tens of
percent over seconds to minutes, as other tenants come and go. Every
timed sample is therefore bracketed by a fixed calibration job, written
in the same style as the code under test (bitmask backtracking, bytes,
JSON), and its wall time is scaled by REFERENCE_S / (mean calibration
time of the two brackets). On a quiet host the factor is close to 1, so
scaled values still read as seconds. The calibration is the benchmark's
own code, so a change to the package cannot move it.
"""

from __future__ import annotations

import json
import random
import time

import check
import inputs

# Calibration time on a quiet 2-vCPU x86-64 host with Python 3.11.
REFERENCE_S = 0.085


def _fixed_inputs():
    rng = random.Random("calibration")
    n = 48
    adj = [0] * n
    for u, v in inputs.gnp_isolate_free(n, 0.3, rng):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lines = "\n".join(json.dumps({"index": i, "verdict": "not_gamma2", "sSet": {"classes": [[i, i + 1]]}})
                      for i in range(3000)).encode()
    return adj, (1 << n) - 1, inputs.corona(600, inputs.cycle(600)), lines


_ADJ, _FULL, _BIG, _LINES = _fixed_inputs()


def _independent_sets(cand: int) -> int:
    if not cand:
        return 1
    low = cand & -cand
    v = low.bit_length() - 1
    return _independent_sets(cand ^ low) + _independent_sets(cand & ~_ADJ[v] & ~low)


def calibrate() -> float:
    """Wall time of the fixed calibration job."""
    start = time.perf_counter()
    _independent_sets(_FULL)
    inputs.graph6(*_BIG)
    check.parse_lines(_LINES)
    return time.perf_counter() - start


def paced(sample, done) -> list[tuple[object, float]]:
    """Call ``sample()`` until ``done(count)``; pair each result with its
    speed factor from the calibrations just before and just after it."""
    cals, results = [calibrate()], []
    while True:
        results.append(sample())
        cals.append(calibrate())
        if done(len(results)):
            break
    return [(r, 2 * REFERENCE_S / (a + b)) for r, a, b in zip(results, cals, cals[1:])]
