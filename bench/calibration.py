"""Machine-speed reference kernel for steady timings on a shared host.

The sandbox this benchmark runs in slows down and speeds up by tens of
percent for seconds to minutes at a time (measured: the median of ten
0.6 s units had an inter-quartile spread of 21 % of its median over
five minutes, with no change to the program).  A fixed pure-Python
kernel — heap pushes and pops, dict stores, tuple and str allocation,
the same interpreter work the simulator does — is therefore timed
right before and after every timed unit, and each unit's seconds are
rescaled by ``NOMINAL_S / kernel seconds``.  The reported time reads
as seconds at the reference machine speed; the same series gave a
spread of 3-4 % that way.  Raw seconds and kernel timings are kept in
the result files.

The kernel never changes with the program, so a faster program still
reads faster; what cancels is only the speed of the machine.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["NOMINAL_S", "kernel_seconds", "reference_scale",
           "rescaled"]

#: Seconds one kernel takes on the quiet reference machine; a constant
#: that only fixes the scale of the reported times.
NOMINAL_S = 0.085

def kernel_seconds(iterations: int) -> float:
    """Wall-clock seconds of one run of the reference kernel.

    ``iterations`` is ``SIZES[size]["kernel_iterations"]``:
    :data:`NOMINAL_S` belongs to the full size; the smoke size runs a
    token kernel because its timings are never compared.
    """
    start = time.perf_counter()
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(iterations):
        push(heap, ((i * 7919) % 1009, i, (i, "x")))
        table[i & 255] = (i, acc)
        if len(heap) > 128:  # stays small: RSS is the unit's, not ours
            key, index, payload = pop(heap)
            acc += key + len(payload) + len(str(index))
    return time.perf_counter() - start


def reference_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel runs into
    seconds at the reference machine speed."""
    return NOMINAL_S / ((before + after) / 2)


def rescaled(raw: list[float], kernels: list[float]) -> float:
    """Median reference-speed seconds of ``raw`` timings.

    ``kernels`` holds one more timing than ``raw``: the kernel ran
    before the first measurement and after every one, so measurement
    ``i`` is flanked by ``kernels[i]`` and ``kernels[i + 1]``.  The
    median of the per-measurement ratios is steadier than the ratio of
    medians because a burst hits a measurement and its neighbours
    together.
    """
    if len(kernels) != len(raw) + 1:
        raise ValueError("need one kernel timing around each measurement")
    return statistics.median(
        seconds * reference_scale(kernels[i], kernels[i + 1])
        for i, seconds in enumerate(raw)
    )
