"""Host pace: how fast this machine runs fixed pieces of work, now.

The benchmark box is a small VM on a shared host whose speed drifts by a
third or more over minutes, so raw seconds taken minutes apart do not
compare. While the benchmark times the program, a SIGALRM handler runs a
*tick* every ``INTERVAL_S`` seconds on the same thread. A tick does, in
about equal shares of time, the three kinds of work the program's time
goes to: interpreter work reading scattered objects of a 4 MB heap,
numpy linear algebra on 2x2 matrices (what ``check_dd``'s thousands of
small matrix exponentials cost), and a single-threaded matrix product of
the size the simulator steps with. The workloads mix the three in
different proportions, and the host does not slow them down alike. The
mean tick over a timed stretch, against ``REF_S``, is how much slower
than the reference pace the host ran during it, and the benchmark
divides the stretch's seconds by that factor. The program runs on one
BLAS thread, so it and the ticks share one CPU.

The set-up probe times interpreter start-up and imports, and must not
import numpy before it starts timing, so it paces itself with the loop
alone (``loop_tick`` against ``LOOP_REF_S``). For the same reason this
module imports only ``signal`` and ``time`` when it loads.
"""

import signal
import time

LOOPS = 3000
HEAP = 100_000
READS = 1000
SMALL_REPEATS = 3
MATRIX = 192
INTERVAL_S = 0.2
#: the reference pace: round figures near the mean ticks on the reference
#: box (README.md). They only scale the reported seconds.
REF_S = 1.2e-3
LOOP_REF_S = 3.5e-4


def loop_tick() -> float:
    """Seconds a fixed pure-Python loop takes (about LOOP_REF_S)."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x = (x + i * i) % 1000003
    return time.perf_counter() - start


def factor(ticks, ref: float = REF_S) -> float:
    """How much slower than the reference pace ``ticks`` ran."""
    if not ticks:
        raise RuntimeError("no pace samples were taken")
    return sum(ticks) / len(ticks) / ref


class Sampler:
    """Ticks taken every INTERVAL_S seconds between ``start`` and ``stop``.

    ``spent`` is the time the handler took, which the caller takes out of
    whatever it timed meanwhile.
    """

    def __init__(self):
        import random

        import numpy as np

        self._np = np
        rng = random.Random(0)
        self._heap = [float(i) for i in range(HEAP)]
        rng.shuffle(self._heap)
        self._reads = rng.sample(range(HEAP), READS)
        self._small = np.array([[1.0, 0.3j], [0.2, -1.0]])
        self._matrix = (np.random.default_rng(0).standard_normal((MATRIX, MATRIX))
                        / MATRIX**0.5)
        self.ticks = []
        self.spent = 0.0
        self._previous = None

    def tick(self) -> float:
        """Seconds the three pieces of work take (about REF_S)."""
        np, heap, a = self._np, self._heap, self._small
        start = time.perf_counter()
        total = 0.0
        for i in self._reads:
            total += heap[i]
        for _ in range(SMALL_REPEATS):
            np.allclose(a @ a.conj().T, a.conj().T @ a)
            w, v = np.linalg.eig(a)
            (v * np.exp(w)) @ np.linalg.inv(v)
        self._matrix @ self._matrix
        return time.perf_counter() - start

    def _handler(self, signum, frame):
        entered = time.perf_counter()
        self.ticks.append(self.tick())
        self.spent += time.perf_counter() - entered

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
