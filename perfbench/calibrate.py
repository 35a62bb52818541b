"""Host-speed calibration: times at a fixed reference speed.

The machines this benchmark runs on share their CPUs with other tenants,
and the speed a process gets swings by up to a factor two, in phases from
a fraction of a second to minutes. So every timed block of work is
bracketed by two samples of a fixed reference workload, and its wall time
is scaled by the reference workload's nominal time over the mean of the two
samples. The result is the block's time at a fixed reference speed, in
reference seconds. A change to the program moves the block's time and not
the reference, so it shows in full; a change in the host's speed moves both
and cancels.

Two clocks, one per kind of work:

  ``Clock.in_process()``  a pure-Python kernel in this process, for work
                          done in this process. It does what the program's
                          hot paths do (scalar ``**`` arithmetic through
                          small frozen-dataclass methods, a linear segment
                          search, ``format(x, ".17g")`` and string
                          building), and tracks their time across the
                          host's fast and slow phases to within about 2%.
  ``Clock.child()``       a cold ``python -I -c "import numpy"`` process,
                          for work done in a child process: interpreter
                          start and extension-module import, which the
                          in-process kernel does not track.

Blocks are kept short (``block_s``) so that a block seldom straddles a
change of phase. The reference workloads are fixed: changing them changes
every figure measured in reference seconds.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Segment:
    lo: float
    hi: float
    coeff: float
    exponent: float

    def contains(self, v: float) -> bool:
        return self.lo <= v < self.hi

    def value(self, v: float) -> float:
        return self.coeff * v ** self.exponent


_SEGMENTS = tuple(
    _Segment(0.0 if i == 0 else 10.0 ** (i - 3), math.inf if i == 5 else 10.0 ** (i - 2),
             1.0 + 0.5 * i, (i + 1) / (i + 2))
    for i in range(6)
)
_VOLUMES = [10.0 ** (-3.0 + 6.0 * j / 299) for j in range(300)]


def _segment_at(v: float) -> _Segment:
    for seg in _SEGMENTS:
        if seg.contains(v):
            return seg
    return _SEGMENTS[-1]


def kernel() -> int:
    """The in-process reference workload, about half a millisecond long."""
    lines = []
    for v in _VOLUMES:
        area = _segment_at(v).value(v)
        lines.append(f"{format(v, '.17g')},{format(area, '.17g')}")
    return len("\n".join(lines))


CHILD_CODE = "import numpy"


def _run_child() -> None:
    subprocess.run([sys.executable, "-I", "-c", CHILD_CODE], check=True, timeout=120,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


class Clock:
    """Converts the wall time of a block of work to reference seconds."""

    def __init__(self, work, passes: int, nominal_s: float, block_s: float):
        self.work = work  # the reference workload, one pass
        self.passes = passes  # passes per sample
        self.nominal_s = nominal_s  # one pass at the reference speed
        self.block_s = block_s  # wall time after which a block is closed
        self.last = None  # the latest sample, opening the next block

    @classmethod
    def in_process(cls) -> "Clock":
        return cls(kernel, passes=4, nominal_s=0.0005, block_s=0.02)

    @classmethod
    def child(cls) -> "Clock":
        return cls(_run_child, passes=1, nominal_s=0.13, block_s=0.0)

    def sample(self) -> float:
        """Wall time of one pass of the reference workload, as measured now."""
        start = time.perf_counter()
        for _ in range(self.passes):
            self.work()
        return (time.perf_counter() - start) / self.passes

    def start(self) -> None:
        """Open a block with a fresh sample."""
        self.last = self.sample()

    def close(self) -> float:
        """Close the open block and open the next one with the same sample.

        Returns the factor from the closed block's wall seconds to
        reference seconds.
        """
        before = self.last
        self.last = self.sample()
        return self.nominal_s / (0.5 * (before + self.last))

    def measure(self, fn):
        """Run ``fn`` as a block of its own; returns (reference seconds, result)."""
        self.start()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        return elapsed * self.close(), result
