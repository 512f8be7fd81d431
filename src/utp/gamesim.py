"""Seeded Monte Carlo realization of the two-operator guessing game.

One party prepares a tester and hands it over; the other applies one of
two announced unitaries (chosen with a configurable bias) and reports
the measurement outcome.  The simulation draws many such rounds and
compares the empirical outcome entropies with the analytic ones.

Randomness comes from the counter-based Philox-4x64 generator keyed by
the seed.  Uniform doubles are read off the keyed word stream in order;
trial ``i`` owns words ``2 i`` (operator choice) and ``2 i + 1``
(outcome).  Because the stream is counter-addressable, any trial can be
regenerated independently: advance the counter by ``(2 i) // 4`` blocks
(Philox emits four 64-bit words per counter increment), discard
``(2 i) % 4`` words, and read two.

``run_game`` draws the trials from one generator in consecutive chunks of
``GAME_CHUNK`` and adds up its fine-bin counts chunk by chunk, so its
memory does not grow with the trial count.  Consecutive draws continue
the same word stream, so the counts equal those of drawing every trial
at once, whatever the chunk size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .operators import UnitaryOperator
from .testers import Tester, outcome_distribution
from .uncertainty import EntropyValue, shannon_entropy

GAME_CHUNK = 1 << 15  # trials drawn per block; bounds run_game's memory


@dataclass(frozen=True, eq=False)
class GameConfig:
    tester: Tester
    v: UnitaryOperator
    w: UnitaryOperator
    trials: int
    seed: int
    operator_bias: float = 0.5  # probability that the v side is tested

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0.0 <= self.operator_bias <= 1.0):
            raise ValueError("operator_bias must lie in [0, 1]")
        if self.tester.dim != self.v.dim or self.v.dim != self.w.dim:
            raise ValueError("tester and operators must share one dimension")


@dataclass(frozen=True, eq=False)
class GameTranscript:
    counts_v: np.ndarray
    counts_w: np.ndarray
    empirical_entropy_sum: EntropyValue
    analytic_entropy_sum: EntropyValue
    guess_success_rate: float
    seed: int

    @property
    def trials(self) -> int:
        return int(self.counts_v.sum() + self.counts_w.sum())


def empirical_entropy(counts, base: float = 2.0) -> EntropyValue:
    """Plug-in Shannon entropy of a frequency table."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if counts.size == 0 or total < 1:
        raise ValueError("empirical entropy needs at least one count")
    if counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    return shannon_entropy(counts / total, base)


def run_game(cfg: GameConfig) -> GameTranscript:
    """Simulate the guessing game; deterministic per seed.

    The guessing strategy is fixed: the modal outcome of the announced
    operator's analytic distribution (lowest index on ties).
    """
    pv = outcome_distribution(cfg.tester, cfg.v).probs
    pw = outcome_distribution(cfg.tester, cfg.w).probs
    n_outcomes = pv.size

    # clip guards against cumsum roundoff pushing the last edge below 1
    cum_v = np.clip(np.cumsum(pv), 0.0, 1.0)
    cum_w = np.clip(np.cumsum(pw), 0.0, 1.0)
    cum_v[-1] = cum_w[-1] = 1.0

    # Fine bins between the union of both sides' edges fix both outcomes at once: a
    # uniform in bin k lies in [edges[k-1], edges[k]), which holds no edge of either side.
    edges = np.sort(np.concatenate((cum_v, cum_w)))
    edges = edges[np.diff(edges, prepend=-1.0) > 0]  # np.union1d would import numpy.ma
    m = edges.size
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    fine = np.zeros(2 * m, dtype=np.int64)  # [v bins, then w bins]
    for start in range(0, cfg.trials, GAME_CHUNK):
        uniforms = rng.random((min(GAME_CHUNK, cfg.trials - start), 2))
        key = np.searchsorted(edges, uniforms[:, 1], side="right")
        key += m * (uniforms[:, 0] >= cfg.operator_bias)
        fine += np.bincount(key, minlength=2 * m)

    # bin k's outcome on one side is searchsorted(cum, u, "right") for any u in the bin
    below = np.concatenate(([-np.inf], edges[:-1]))
    counts_v = np.zeros(n_outcomes, dtype=np.int64)
    counts_w = np.zeros(n_outcomes, dtype=np.int64)
    for counts, cum, side in ((counts_v, cum_v, fine[:m]), (counts_w, cum_w, fine[m:])):
        np.add.at(counts, np.searchsorted(cum, below, side="right"), side)

    empirical = 0.0
    for counts in (counts_v, counts_w):
        if counts.sum() > 0:
            empirical += empirical_entropy(counts).value
    analytic = shannon_entropy(pv).value + shannon_entropy(pw).value

    successes = counts_v[int(np.argmax(pv))] + counts_w[int(np.argmax(pw))]
    return GameTranscript(
        counts_v=counts_v,
        counts_w=counts_w,
        empirical_entropy_sum=EntropyValue(empirical, 2.0),
        analytic_entropy_sum=EntropyValue(analytic, 2.0),
        guess_success_rate=float(successes / cfg.trials),
        seed=cfg.seed,
    )


def transcript_to_json(t: GameTranscript) -> str:
    return json.dumps(
        {
            "counts_v": t.counts_v.tolist(),
            "counts_w": t.counts_w.tolist(),
            "empirical_bits": t.empirical_entropy_sum.value,
            "analytic_bits": t.analytic_entropy_sum.value,
            "guess_success_rate": t.guess_success_rate,
            "seed": t.seed,
        }
    )
