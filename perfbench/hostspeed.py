"""Host speed, from reference work interleaved with the ops of a timed run.

The benchmark shares a few cores with other tenants, and their load moves
the speed of the whole host by up to 40 % between runs a minute apart,
and by 10-20 % between ops a second apart, for fresh processes and
in-process compute alike.  So a timed run also times two pieces of
reference work that run no ``utp`` code, between its ops:

* process: a fresh interpreter importing the third-party modules that
  ``utp.cli`` imports (numpy, scipy.linalg, scipy.optimize), started by
  the same launcher as every CLI op;
* kernel: in this process, small dense eigendecompositions and products
  plus a pure-Python loop, the mix of the in-process searches.

Each end-to-end time is reported at a nominal host speed: the raw time
times ``NOMINAL_S / local reference time``, where the local reference
time is the mean of the samples of its path's reference (process for
fresh processes, kernel for in-process calls) just before and just after
the op.  A change to ``utp`` moves the op times and not the references,
so it shows in full; a slow or fast host moves both, and mostly cancels.
The raw times and every sample go to ``result.json``.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

import numpy as np

# the reference medians on the host the nominal speed is pinned to: a shared
# 2-core x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17
NOMINAL_S = {"process": 0.65, "kernel": 0.018}
PROCESS_REFERENCE = ["-c", "import numpy, scipy.linalg, scipy.optimize"]
PATH_REFERENCE = {"cli": "process", "lib": "kernel"}  # which reference scales an op's time
EVERY = {"cli": 3, "lib": 2}  # one reference sample before every n-th op of the path

_rng = np.random.default_rng(20201123)
_blocks = _rng.standard_normal((40, 8, 8)) + 1j * _rng.standard_normal((40, 8, 8))
_MATRICES = [m + m.conj().T for m in _blocks]


def kernel() -> float:
    """Checksum of the fixed in-process reference work."""
    total = 0.0
    for _ in range(6):
        for m in _MATRICES:
            w, v = np.linalg.eigh(m)
            total += float(np.abs((v * w) @ v.conj().T - m).max())
    x = 0
    for i in range(100000):
        x += i * i % 7
    return total + x


class HostSpeed:
    def __init__(self, run_python) -> None:
        self.run_python = run_python  # args -> (wall, rss, code, stdout, stderr)
        # per reference, (start time, seconds) of each sample in time order
        self.samples: dict[str, list[tuple[float, float]]] = {"process": [], "kernel": []}
        self.ops_seen = {"cli": 0, "lib": 0}

    def sample(self, reference: str) -> None:
        start = perf_counter()
        if reference == "process":
            wall, _, code, _, stderr = self.run_python(PROCESS_REFERENCE)
            if code != 0:
                raise RuntimeError(f"reference import failed with exit {code}: {stderr[-300:]}")
        else:
            kernel()
            wall = perf_counter() - start
        self.samples[reference].append((start, wall))

    def before_op(self, path: str) -> None:
        """Take a sample of the path's reference before every ``EVERY[path]``-th op."""
        if self.ops_seen[path] % EVERY[path] == 0:
            self.sample(PATH_REFERENCE[path])
        self.ops_seen[path] += 1

    def factor(self, path: str, start: float) -> float:
        """Nominal over local reference time for an op on ``path`` that started at
        ``start``: the mean of the nearest samples before and after it (1.0 with none)."""
        reference = PATH_REFERENCE[path]
        samples = self.samples[reference]
        if not samples:
            return 1.0
        i = bisect_right(samples, (start, float("inf")))
        near = [s for _, s in samples[max(i - 1, 0):i + 1]]
        return NOMINAL_S[reference] / (sum(near) / len(near))

    def record(self) -> dict:
        return {"nominal_s": NOMINAL_S, "samples": self.samples}
