"""A reference clock for timing on a box whose speed swings with its neighbours.

On a shared two-vCPU VM the same single-threaded work can take from one to
three times as long from one minute to the next, with no steal time and no
gap between CPU time and wall time to show for it: the core itself runs
slower. Medians or minima within one run cannot hide a slow spell that
lasts the whole run. So every measured process times a fixed kernel now and
then, on its own core, and each stretch of wall time is scaled by how fast
the kernel ran around it:

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds

A reference second is what the work would take on a core that runs the
kernel in ``KERNEL_REF_S``. The kernel mixes interpreter steps with
30-wide numpy products, like the code under test, which tracks that code's
slow spells better than a pure-Python loop does. It lives here, outside the
code under test, so it is the same on every commit measured.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# about the kernel's median on the 2-vCPU shared VM the benchmark was built on
KERNEL_REF_S = 0.3e-3
SAMPLE_EVERY_S = 0.02
SMOOTH = 4  # kernel timings on each side of a stretch that set its scale

_VECTOR = np.linspace(0.0, 1.0, 30)
_MATRIX = np.ones((8, 30))


def kernel() -> float:
    """Seconds one run of the fixed kernel takes now (about 0.3 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for j in range(150):
        acc += float((_MATRIX @ _VECTOR)[j % 8]) * 0.5 + j
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Reference seconds per wall second over a stretch in which the kernel
    timings ``samples`` were taken at even intervals."""
    return KERNEL_REF_S * sum(1.0 / s for s in samples) / len(samples)


def reference_s(wall_s: float, samples: list[float]) -> float:
    """``wall_s`` of a sampled process in reference seconds, less the time
    the samples themselves took."""
    return (wall_s - sum(samples)) * scale(samples)


def reference_series(stretches: list[float], samples: list[float]) -> list[float]:
    """Wall seconds ``stretches[i]``, each run between kernel timings
    ``samples[i]`` and ``samples[i + 1]``, in reference seconds. A stretch
    is scaled by the ``SMOOTH`` timings on either side of it, since one
    0.3 ms timing is too noisy to scale a few milliseconds of work alone."""
    return [
        stretch * scale(samples[max(0, i - SMOOTH + 1) : i + SMOOTH + 1])
        for i, stretch in enumerate(stretches)
    ]


class Sampler:
    """Times the kernel at start, every ``every`` seconds on SIGALRM, and at stop.

    The handler runs between bytecodes of the main thread, so a sample lands
    inside whatever the process is doing; ``reference_s`` takes its time back out.
    """

    def __init__(self, every: float = SAMPLE_EVERY_S):
        self.every = every
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        self.samples.append(kernel())

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample()
        return self.samples
