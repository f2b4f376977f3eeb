"""How fast the host runs Python while an operation runs.

On a shared host the same code runs at different speeds from one second
to the next, by 40% and more, as neighbours load the machine's cores and
caches. A wall-clock rate then measures the neighbours as much as the
simulator. :class:`HostSpeed` measures the host at the same moments as the
operation: while it is started, a ``SIGALRM`` every :data:`INTERVAL_S`
runs a fixed piece of pure-Python work (a *chunk*) between the
operation's bytecodes, wherever the operation is, and times it with
:func:`repro.obs.profiler.clock_ns`. The chunks' time is taken out of the
operation's, and their speed relative to :data:`REF_CHUNK_NS` says how
fast the host ran the operation.

An operation's *reference seconds* are its wall seconds, chunks taken
out, times the mean of the chunks' speeds: the seconds it would take on a
host that runs a chunk in exactly :data:`REF_CHUNK_NS`. The chunks are
spaced evenly in wall time, so their mean speed is the host's speed
averaged over the operation's wall time, however often it changed. The simulator's code does not run
any chunk, so a change that makes it slower or faster changes its
reference seconds by the same factor as its wall seconds.
"""

from __future__ import annotations

import signal
from types import FrameType

import numpy as np

from repro.obs.profiler import clock_ns

__all__ = [
    "INTERVAL_S",
    "CHUNK_ITERATIONS",
    "CHUNK_ARRAY_OPS",
    "REF_CHUNK_NS",
    "HostSpeed",
    "chunk",
]

#: Wall seconds between two chunks.
INTERVAL_S = 0.01

#: Interpreter loop iterations in one chunk.
CHUNK_ITERATIONS = 1000

#: Small-array numpy operations in one chunk.
CHUNK_ARRAY_OPS = 30

#: A chunk's time on the reference host: the fastest it ran on a 2-vCPU
#: Intel Xeon (Sapphire Rapids) KVM guest under CPython 3.11.7.
REF_CHUNK_NS = 230_000


def chunk() -> int:
    """A fixed piece of work of the kinds a slot is made of: interpreter
    integer arithmetic with a small dict and list, then numpy operations
    on a port-sized array."""
    acc = 7
    table: dict[int, int] = {}
    seen: list[int] = []
    for i in range(CHUNK_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 63] = table.get(acc & 63, 0) + 1
        if acc & 7 == 0:
            seen.append(acc)
    vec = np.arange(64)
    for _ in range(CHUNK_ARRAY_OPS):
        vec = (vec * 3 + acc) % 1001
    return int(vec[-1]) + len(table) + len(seen)


class HostSpeed:
    """Sample the host's speed between :meth:`start` and :meth:`stop`.

    Only one sampler may run at a time, in the main thread. After
    :meth:`stop`, :attr:`elapsed_ns` is the wall time between the two
    calls with the chunks taken out, and :meth:`reference_s` scales it to
    the reference host.
    """

    def __init__(self) -> None:
        self.chunks = 0
        self.chunk_ns = 0
        self.elapsed_ns = 0
        self._speed_sum = 0.0
        self._start_ns = 0
        self._busy = False
        self._previous: object = None

    def _tick(self, _signum: int, _frame: FrameType | None) -> None:
        if self._busy:
            return
        self._busy = True
        start = clock_ns()
        chunk()
        took = clock_ns() - start
        self.chunk_ns += took
        self._speed_sum += REF_CHUNK_NS / took
        self.chunks += 1
        self._busy = False

    def start(self) -> None:
        self.chunks = self.chunk_ns = self.elapsed_ns = 0
        self._speed_sum = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start_ns = clock_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall_ns = clock_ns() - self._start_ns
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]
        self.elapsed_ns = wall_ns - self.chunk_ns
        if self.chunks == 0:
            # Shorter than one interval: sample the host once, afterwards.
            self._tick(signal.SIGALRM, None)

    @property
    def speed(self) -> float:
        """Host speed averaged over the sampled window; 1.0 is the
        reference host."""
        return self._speed_sum / self.chunks

    def reference_s(self) -> float:
        """Seconds the sampled window (chunks taken out) would have taken
        on the reference host."""
        return self.elapsed_ns * self.speed / 1e9
