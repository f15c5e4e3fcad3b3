"""Host-speed probe: rescales measured seconds to a reference host speed.

On a shared VM, other tenants' load on the sibling hardware thread slows
every instruction by up to half for minutes at a time, so raw seconds of
one run drift far more between runs than any change in the program.
:func:`calibrate` times a fixed pure-Python loop that never touches
``repro``; a time measured next to it is rescaled by
``REFERENCE_S / calibration``, the seconds it would have taken on a host
where the loop takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import time

#: loop count of :func:`calibrate`.
LOOPS = 600_000

#: seconds :func:`calibrate` takes on the reference host (an idle
#: 2-core cloud VM); rescaled times are seconds on that host.
REFERENCE_S = 0.12


def calibrate() -> float:
    """Seconds for a fixed loop of integer, list and dict work.

    That is the kind of work the detector's hot loops do, without any
    ``repro`` code, so a change to the program never changes the probe.
    """
    started = time.perf_counter()
    acc = 0
    cells = [0] * 1024
    table: dict[int, int] = {}
    for i in range(LOOPS):
        acc = (acc * 31 + cells[i & 1023] + i) % 1000003
        cells[acc & 1023] = acc
        if not i & 7:
            table[acc & 4095] = i
    return time.perf_counter() - started


def rescale(seconds: float, calibrations: list[float]) -> float:
    """``seconds`` at reference host speed, given probes taken around it."""
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
