import json
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import haar_matrix, random_state
from utp import gamesim
from utp.gamesim import GameConfig, empirical_entropy, run_game, transcript_to_json
from utp.operators import UnitaryOperator, clock_shift_pair, identity, omega, pauli
from utp.saturation import su2_basis
from utp.testers import (
    ProjectiveMeasurement,
    PureState,
    Tester,
    computational_basis,
    outcome_distribution,
)
from utp.uncertainty import pair_uncertainty


def equator_config(trials=100000, seed=7, bias=0.5):
    m = su2_basis(np.pi / 4, 0.0)
    return GameConfig(
        tester=Tester.projective(m.states[0], m),
        v=identity(2),
        w=omega(-1),
        trials=trials,
        seed=seed,
        operator_bias=bias,
    )


def test_empirical_entropy_values():
    assert empirical_entropy([10, 0]).value == 0.0
    assert empirical_entropy([5, 5]).value == pytest.approx(1.0)
    # -(3/4) log2(3/4) - (1/4) log2(1/4), worked out by hand
    assert empirical_entropy([3, 1]).value == pytest.approx(0.8112781244591328, abs=1e-12)


def test_empirical_entropy_rejects_empty():
    with pytest.raises(ValueError, match="at least one count"):
        empirical_entropy([])
    with pytest.raises(ValueError, match="at least one count"):
        empirical_entropy([0, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_entropy([3, -1])


def test_game_deterministic_outcomes():
    cfg = GameConfig(
        tester=Tester.projective(PureState(np.array([1.0, 0])), computational_basis(2)),
        v=identity(2),
        w=pauli("X"),
        trials=1000,
        seed=3,
    )
    transcript = run_game(cfg)
    assert transcript.empirical_entropy_sum.value == 0.0
    assert transcript.guess_success_rate == 1.0
    assert transcript.counts_v.sum() + transcript.counts_w.sum() == 1000


def test_game_equator_convergence():
    transcript = run_game(equator_config())
    assert abs(transcript.empirical_entropy_sum.value - 1.0) <= 0.02
    assert transcript.analytic_entropy_sum.value == pytest.approx(1.0)


def test_game_reproducible():
    t1 = run_game(equator_config(trials=20000, seed=11))
    t2 = run_game(equator_config(trials=20000, seed=11))
    assert np.array_equal(t1.counts_v, t2.counts_v)
    assert np.array_equal(t1.counts_w, t2.counts_w)
    assert transcript_to_json(t1) == transcript_to_json(t2)
    t3 = run_game(equator_config(trials=20000, seed=12))
    assert not np.array_equal(t1.counts_w, t3.counts_w)


def test_game_bias_one_sided():
    transcript = run_game(equator_config(trials=5000, seed=2, bias=1.0))
    assert transcript.counts_w.sum() == 0
    assert transcript.counts_v.sum() == 5000
    # empirical sum reduces to the v-side entropy alone (here zero)
    assert transcript.empirical_entropy_sum.value == empirical_entropy(
        transcript.counts_v
    ).value
    assert (transcript.counts_v / transcript.counts_v.sum()).sum() == pytest.approx(1.0)


def test_game_convergence_envelope():
    # loose Chernoff-style bound on the plug-in estimate at 1e5 trials
    rng = np.random.default_rng(606)
    trials = 100000
    for k in range(100):
        d = 2 + k % 3
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        cfg = GameConfig(
            tester=Tester.projective(PureState(random_state(d, rng)), m),
            v=UnitaryOperator(haar_matrix(d, rng)),
            w=UnitaryOperator(haar_matrix(d, rng)),
            trials=trials,
            seed=1000 + k,
        )
        transcript = run_game(cfg)
        envelope = 5 * np.sqrt(d / trials)
        assert (
            abs(transcript.empirical_entropy_sum.value - transcript.analytic_entropy_sum.value)
            <= envelope
        )


def test_game_analytic_matches_pair_uncertainty():
    cfg = equator_config(trials=10, seed=0)
    transcript = run_game(cfg)
    assert transcript.analytic_entropy_sum.value == pytest.approx(
        pair_uncertainty(cfg.tester, cfg.v, cfg.w).value
    )


def test_game_config_validation():
    m = computational_basis(2)
    t = Tester.projective(PureState(np.array([1.0, 0])), m)
    with pytest.raises(ValueError, match="trials"):
        GameConfig(tester=t, v=identity(2), w=pauli("X"), trials=0, seed=0)
    with pytest.raises(ValueError, match="bias"):
        GameConfig(tester=t, v=identity(2), w=pauli("X"), trials=5, seed=0, operator_bias=1.5)
    with pytest.raises(ValueError, match="dimension"):
        GameConfig(tester=t, v=identity(3), w=identity(3), trials=5, seed=0)
    for seed in (-1, 2**128, 1.0, "3", None):  # outside the keys Philox takes
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            GameConfig(tester=t, v=identity(2), w=pauli("X"), trials=5, seed=seed)
    assert run_game(GameConfig(tester=t, v=identity(2), w=pauli("X"), trials=5,
                               seed=2**128 - 1)).trials == 5


def test_transcript_json_fields():
    payload = json.loads(transcript_to_json(run_game(equator_config(trials=50, seed=1))))
    assert sorted(payload) == [
        "analytic_bits", "counts_v", "counts_w", "empirical_bits", "guess_success_rate", "seed",
    ]
    assert payload["seed"] == 1
    assert 0.0 <= payload["guess_success_rate"] <= 1.0
    assert sum(payload["counts_v"]) + sum(payload["counts_w"]) == 50


def test_rng_stream_is_splittable_per_trial():
    # the documented state transition: trial i owns words 2i and 2i+1 of the
    # keyed Philox stream; regenerate a handful of trials via counter jumps
    seed = 424242
    table = np.random.Generator(np.random.Philox(key=seed)).random((40, 2))
    for i in (0, 1, 7, 23, 39):
        block, offset = divmod(2 * i, 4)
        g = np.random.Generator(np.random.Philox(key=seed).advance(block))
        if offset:
            g.random(offset)
        assert np.array_equal(g.random(2), table[i])


def _philox_uniforms(seed: int, first: int, count: int) -> np.ndarray:
    """Words first .. first+count-1 of the keyed Philox stream, reached by a counter jump."""
    block, offset = divmod(first, 4)
    g = np.random.Generator(np.random.Philox(key=seed).advance(block))
    if offset:
        g.random(offset)
    return g.random(count)


def _unchunked_counts(cfg: GameConfig, uniforms: np.ndarray):
    """Outcome counts from a (trials, 2) table of uniforms, all trials at once."""
    pv = gamesim.outcome_distribution(cfg.tester, cfg.v).probs  # the game's own distributions
    pw = gamesim.outcome_distribution(cfg.tester, cfg.w).probs
    picks_v = uniforms[:, 0] < cfg.operator_bias
    cum_v = np.clip(np.cumsum(pv), 0.0, 1.0)
    cum_w = np.clip(np.cumsum(pw), 0.0, 1.0)
    cum_v[-1] = cum_w[-1] = 1.0
    outcomes = np.where(
        picks_v,
        np.searchsorted(cum_v, uniforms[:, 1], side="right"),
        np.searchsorted(cum_w, uniforms[:, 1], side="right"),
    )
    return (
        np.bincount(outcomes[picks_v], minlength=pv.size),
        np.bincount(outcomes[~picks_v], minlength=pv.size),
    )


@pytest.mark.parametrize("chunk", [1, 7, 4096, 5001])
def test_game_counts_do_not_depend_on_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(77)
    m = ProjectiveMeasurement.from_matrix(haar_matrix(3, rng))
    cfg = GameConfig(
        tester=Tester.projective(PureState(random_state(3, rng)), m),
        v=UnitaryOperator(haar_matrix(3, rng)),
        w=UnitaryOperator(haar_matrix(3, rng)),
        trials=5000,
        seed=31337,
        operator_bias=0.37,
    )
    whole = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.trials, 2))
    # the oracle: every trial's two words regenerated on their own by counter jumps
    per_trial = np.array([_philox_uniforms(cfg.seed, 2 * i, 2) for i in range(cfg.trials)])
    assert np.array_equal(per_trial, whole)
    reference = _unchunked_counts(cfg, whole)

    unchunked = run_game(cfg)
    monkeypatch.setattr(gamesim, "GAME_CHUNK", chunk)
    chunked = run_game(cfg)
    assert np.array_equal(chunked.counts_v, reference[0])
    assert np.array_equal(chunked.counts_w, reference[1])
    assert reference[0].sum() not in (0, cfg.trials)  # both sides are played
    assert transcript_to_json(chunked) == transcript_to_json(unchunked)
    assert chunked.guess_success_rate == unchunked.guess_success_rate


@pytest.mark.parametrize("d, sparse, bias, trials", [
    (2, False, 0.5, 1), (2, True, 0.0, 999), (3, False, 1.0, 65537), (3, True, 0.37, 70001),
    (7, False, 0.37, 4097), (16, True, 0.5, 65536), (32, False, 0.61, 70001),
])
def test_fine_bin_counts_match_the_per_side_reference(d, sparse, bias, trials):
    # one search against the union of both sides' edges fixes both outcomes exactly
    rng = np.random.default_rng(d + trials)
    if sparse:  # |0> through clock and shift: most outcomes have probability 0
        v, w = clock_shift_pair(d)
        tester = Tester.projective(PureState(np.eye(d)[0]), computational_basis(d))
    else:
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        tester = Tester.projective(PureState(random_state(d, rng)), m)
        v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    cfg = GameConfig(tester=tester, v=v, w=w, trials=trials, seed=trials, operator_bias=bias)
    whole = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.trials, 2))
    reference = _unchunked_counts(cfg, whole)
    transcript = run_game(cfg)
    assert np.array_equal(transcript.counts_v, reference[0])
    assert np.array_equal(transcript.counts_w, reference[1])
    # the guess is each side's modal analytic outcome
    pv, pw = (outcome_distribution(tester, u).probs for u in (v, w))
    successes = reference[0][np.argmax(pv)] + reference[1][np.argmax(pw)]
    assert transcript.guess_success_rate == float(successes / trials)


# (v-side, w-side) outcome probabilities whose cumulative edges fall on the table's cell
# boundaries, strictly inside cells, at 0.0 and twice over, and several to one cell
EDGE_CASES = {
    "on-cell-boundaries": ([0.25, 0.75], [0.5, 0.5]),
    "inside-cells": ([0.3, 0.7], [0.123456789, 0.876543211]),
    "sparse": ([0.0, 0.5, 0.0, 0.5], [0.2, 0.0, 0.0, 0.8]),
    "one-cell-many-edges": ([1e-5, 2e-5, 1 - 3e-5], [1.5e-5, 0.0, 1 - 1.5e-5]),
}


def _game_with_probs(monkeypatch, pv, pw, trials, seed=2024, bias=0.45):
    """A game whose two outcome distributions are exactly ``pv`` and ``pw``."""
    d = len(pv)
    v, w = identity(d), UnitaryOperator(np.roll(np.eye(d), 1, axis=0))
    probs = {id(v): np.array(pv), id(w): np.array(pw)}
    monkeypatch.setattr(gamesim, "outcome_distribution",
                        lambda tester, u: SimpleNamespace(probs=probs[id(u)]))
    tester = Tester.projective(PureState(np.eye(d)[0]), computational_basis(d))
    return GameConfig(tester=tester, v=v, w=w, trials=trials, seed=seed, operator_bias=bias)


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("cells", [2, gamesim.GAME_CELLS])
def test_cell_table_binning_matches_the_reference(monkeypatch, case, cells):
    # at 2 cells nearly every trial takes the exact fallback search
    cfg = _game_with_probs(monkeypatch, *EDGE_CASES[case], trials=20001)
    monkeypatch.setattr(gamesim, "GAME_CELLS", cells)
    whole = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.trials, 2))
    reference = _unchunked_counts(cfg, whole)
    transcript = run_game(cfg)
    assert np.array_equal(transcript.counts_v, reference[0])
    assert np.array_equal(transcript.counts_w, reference[1])


@pytest.mark.parametrize("edges", [
    [0.25, 0.5, 0.75, 1.0],
    [0.123456789, 0.3, 1.0],
    [0.0, 0.2, 0.5, 1.0],
    [1e-5, 1.5e-5, 3e-5, 1 - 3e-5, 1 - 1.5e-5, 1.0],
    [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0],
])
@pytest.mark.parametrize("cells", [2, 64, gamesim.GAME_CELLS])
def test_cell_table_splits_exactly_the_cells_an_edge_lies_inside(edges, cells):
    edges = np.array(edges)
    table = gamesim._cell_table(edges, cells)
    # a cell's lowest and highest uniforms fall in one fine bin unless an edge splits it
    lowest = np.searchsorted(edges, np.arange(cells) / cells, side="right")
    highest = np.searchsorted(edges, np.nextafter(np.arange(1, cells + 1) / cells, 0.0),
                              side="right")
    assert np.array_equal(table, np.where(lowest == highest, lowest, -1))


def _count_thread_starts(monkeypatch) -> list:
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _haar_game(d, trials, seed=31337, bias=0.37):
    rng = np.random.default_rng(d)
    m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
    return GameConfig(
        tester=Tester.projective(PureState(random_state(d, rng)), m),
        v=UnitaryOperator(haar_matrix(d, rng)),
        w=UnitaryOperator(haar_matrix(d, rng)),
        trials=trials,
        seed=seed,
        operator_bias=bias,
    )


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("trials", [999, 5001])
def test_trials_split_across_workers_match_the_reference(monkeypatch, cpus, trials):
    cfg = _haar_game(3, trials)
    whole = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.trials, 2))
    reference = _unchunked_counts(cfg, whole)
    single = run_game(cfg)
    # chunks of 7 trials give every worker 4 chunks or more: one worker per cpu
    monkeypatch.setattr(gamesim, "GAME_CHUNK", 7)
    monkeypatch.setattr(gamesim, "_cpu_count", lambda: cpus)
    started = _count_thread_starts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        split = run_game(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == cpus - 1
    assert not any(thread.is_alive() for thread in started)
    assert np.array_equal(split.counts_v, reference[0])
    assert np.array_equal(split.counts_w, reference[1])
    assert transcript_to_json(split) == transcript_to_json(single)


def test_run_game_starts_at_most_one_thread_per_extra_cpu(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    run_game(_haar_game(2, 4 * gamesim.GAME_CHUNK))
    assert started == []  # at most 4 chunks: the caller draws them all
    monkeypatch.setattr(gamesim, "GAME_CHUNK", 64)
    for cpus, trials, threads in ((8, 256, 0), (8, 257, 0), (1, 10**5, 0), (3, 10**5, 2),
                                  (64, 1280, 4), (64, 1279, 3)):
        monkeypatch.setattr(gamesim, "_cpu_count", lambda: cpus)
        del started[:]
        run_game(_haar_game(2, trials))
        assert len(started) == threads <= min(cpus, -(-trials // 64)) - 1
        assert not any(thread.is_alive() for thread in started)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("failing", ["caller", "thread"])
def test_a_worker_error_reaches_the_caller(monkeypatch, failing):
    fine_counts = gamesim._fine_counts

    def flaky(seed, first, *rest):
        if (first == 0) == (failing == "caller"):
            raise RuntimeError(f"{failing} failed")
        return fine_counts(seed, first, *rest)

    monkeypatch.setattr(gamesim, "_fine_counts", flaky)
    monkeypatch.setattr(gamesim, "GAME_CHUNK", 7)
    monkeypatch.setattr(gamesim, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        run_game(_haar_game(2, 1001))
