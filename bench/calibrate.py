"""Host-speed calibration: a fixed kernel timed next to every timed part.

On a shared host other load changes how fast this process runs, for
seconds or minutes at a time (on a 2-vCPU cloud VM the same pass took
anywhere from 1x to 2x its fastest time, and the slow periods outlasted
whole runs). A fixed kernel, timed in a block of slices just before and
just after a part, measures the host's speed at that moment; dividing the
part's time by it gives the part in reference seconds, the seconds it
would take on a host where one slice takes ``REF_SLICE_S``. The kernel is
the benchmark's own code (small numpy products and Python dict work, like
qmyo's per-window decode), so no change to qmyo moves it.
"""

import statistics
import time

import numpy as np

REF_SLICE_S = 0.010
SLICES = 4

_rng = np.random.default_rng(1302)
_ROWS = _rng.random((640, 16))
_PROTOS = _rng.random((6, 16))
_PROTOS /= np.linalg.norm(_PROTOS, axis=1, keepdims=True)


def _slice():
    start = time.perf_counter()
    spread = 0.0
    for row in _ROWS:
        unit = row / np.linalg.norm(row)
        energies = {k: float(unit @ p) ** 2 for k, p in enumerate(_PROTOS)}
        spread += max(energies.values()) - min(energies.values())
    return time.perf_counter() - start


def block():
    """Times ``SLICES`` kernel slices; returns their durations in seconds."""
    return [_slice() for _ in range(SLICES)]


def to_reference(seconds, before, after):
    """``seconds`` measured between the blocks ``before`` and ``after``, in reference seconds."""
    return seconds * REF_SLICE_S / statistics.median(before + after)
