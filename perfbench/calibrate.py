"""Host-speed calibration for the benchmark's wall-clock metrics.

The hosts this benchmark runs on are shared: the same pass of the same
code can take 1.7x longer a minute later because a neighbour got busy.
A fixed calibration kernel, timed between the chunks of every pass,
measures the host's speed at that moment.  Scaling each chunk's wall
time by ``REFERENCE_KERNEL_NS / kernel time`` expresses it in seconds
of a reference host on which the kernel takes exactly 1 ms.  On one
host the factor cancels the neighbours' noise (on a shared 2-vCPU Xeon
host, the coefficient of variation of fhe-flood throughput over 25
passes fell from 18% raw to 3% normalised) and
leaves every change in the program's own speed visible, because the
kernel shares no code with the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time of the reference host the normalised seconds refer to.
REFERENCE_KERNEL_NS = 1_000_000

_MASK = (1 << 2048) - 1


def kernel_ns() -> int:
    """Wall time of one run of the calibration kernel.

    A fixed mix of the simulator's kinds of host work, written without
    any of its code: wide big-integer bitwise updates (the word-packed
    executor's rows), small numpy array operations, and interpreter
    dictionary traffic.
    """
    started = time.perf_counter_ns()
    x = _MASK - 12345
    acc = 0
    for i in range(400):
        x = ((x << 1) ^ (x >> 3) ^ (i * 0x9E3779B97F4A7C15)) & _MASK
        acc += (x >> 64) & 0xFFFF
    lanes = np.arange(2048, dtype=np.uint64)
    one = np.uint64(1)
    for _ in range(60):
        lanes = lanes ^ (lanes >> one)
    table = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter_ns() - started


def host_factor(samples: int = 5) -> float:
    """``REFERENCE_KERNEL_NS`` over the median of *samples* kernel runs."""
    return REFERENCE_KERNEL_NS / statistics.median(
        kernel_ns() for _ in range(samples)
    )


def normalised_seconds(marks) -> float:
    """Reference-host seconds of a pass from its chunk marks.

    *marks* holds one ``(end_ns, kernel_ns, start_ns)`` triple per chunk
    boundary: the previous chunk ended at ``end_ns``, the kernel ran,
    and the next chunk started at ``start_ns``.  Each chunk is scaled by
    the mean of the kernel times on either side of it.
    """
    total = 0.0
    for (_end, k0, start), (end, k1, _start) in zip(marks, marks[1:]):
        total += (end - start) * REFERENCE_KERNEL_NS / ((k0 + k1) / 2)
    return total / 1e9
