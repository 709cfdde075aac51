"""Host-speed calibration for run_ref_s and setup_s.

Shared hosts run the same code at different speeds from one minute to the
next. On a 2-vCPU x86 VM a fixed Python loop took 30 ms in some stretches
and 48 ms in others. The stretches lasted from seconds to many minutes.
The VM reported no steal time, and CPU time tracked wall time. A median of
job times inherits that drift, both within one set of runs and between two
sets.

The loop below does a fixed mix of the work hecsim spends its time on. It
uses only numpy and the standard library, so no change to hecsim can alter
its speed. The benchmark times it before and after each job, and right
after each set-up. A wall time times ``REFERENCE_S / loop time`` is that
time on a host running at the reference speed: the same VM in its fast
stretches. Over two sets of
ten field-hour runs on that VM, the median job time as measured went from
4.06 s to 3.23 s, and the rescaled median from 2.87 s to 2.88 s.
"""

from __future__ import annotations

import heapq
import json
import statistics
import time

import numpy as np

# seconds one repeat of the loop takes on the reference host; it only sets
# the scale, so it must stay fixed for results to stay comparable
REFERENCE_S = 0.017
REPEATS = 3

_ROWS = np.sin(np.arange(8 * 125, dtype=np.float64)).reshape(8, 125)
_WIDE = np.cos(np.arange(170 * 512, dtype=np.float64)).reshape(170, 512)


def _mix() -> None:
    """Small FFTs as in window scoring, heap and dict churn as in the mesh
    event loop, JSON rows as in the trace writer, one wide FFT as in the
    STFT."""
    heap = []
    for i in range(1000):
        peak = int(np.argmax(np.abs(np.fft.rfft(_ROWS[i % 8], n=512))))
        heapq.heappush(heap, (peak, i, {"i": i, "peak": peak}))
        if len(heap) > 64:
            heapq.heappop(heap)
    json.dumps([item[2] for item in heap] * 13, sort_keys=True)
    np.abs(np.fft.rfft(_WIDE, n=1024, axis=1)).argmax(axis=1)


def loop_seconds() -> float:
    """Median time of REPEATS runs of the loop; one preemption cannot move it."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _mix()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
