"""Host speed, measured with a fixed reference kernel between commands.

The host runs this machine's processors beside other tenants' work, which
the guest cannot see: CPU time grows with wall time and no time is reported
as stolen, yet a command takes up to about twice as long in stretches that
last from a fraction of a second to minutes.  The benchmark therefore runs a
short reference kernel after every command it times and reports its times
scaled by ``REFERENCE_S / mean unit time`` of the run: the seconds the
command would take on a host where one kernel unit takes ``REFERENCE_S``.
The kernel is the benchmark's own code, so a change to the program cannot
move it.  It is a plain interpreted integer loop: of the kernels tried
(dict updates, small numpy array operations, strided reads of a 2 MB array)
it slowed down most like the program's commands.
"""

from __future__ import annotations

import time

# one kernel unit on an uncontended 2-vCPU host (Xeon, Python 3.11)
REFERENCE_S = 0.0100
UNITS_PER_SAMPLE = 10
UNIT_LOOPS = 90000


def _unit() -> int:
    x = 0
    for i in range(UNIT_LOOPS):
        x += i * i % 7
    return x


def sample(units: int = UNITS_PER_SAMPLE) -> list:
    """Times of ``units`` kernel units run back to back."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return times


def scale(unit_times: list) -> float:
    """Factor turning wall times taken among ``unit_times`` into reference seconds."""
    return REFERENCE_S * len(unit_times) / sum(unit_times)
