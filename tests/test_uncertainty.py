import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import haar_matrix, random_state
from utp.linalg import operator_norm, psd_sqrt
from utp import linalg, testers
from utp.operators import (
    UnitaryOperator,
    clock_shift_pair,
    identity,
    omega,
    pauli,
    weyl_operators,
)
from utp.saturation import search_min_uncertainty, su2_basis
from utp.testers import (
    DensityMatrix,
    MesMeasurement,
    Povm,
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_basis,
    computational_basis,
    outcome_distribution,
    povm_from_projective,
    trivial_tester,
)
from utp.uncertainty import (
    ZERO_PROBABILITY,
    EntropicBound,
    EntropyValue,
    OutcomeDistribution,
    entropies,
    mes_bound,
    pair_uncertainty,
    povm_bound,
    projective_bound,
    shannon_entropy,
    variance_uncertainty,
)


def test_shannon_entropy_values():
    assert shannon_entropy([1.0, 0.0]).value == 0.0
    assert shannon_entropy([0.5, 0.5]).value == pytest.approx(1.0)
    assert shannon_entropy([0.25] * 4).value == pytest.approx(2.0)
    assert shannon_entropy([0.5, 0.5], base=math.e).value == pytest.approx(math.log(2))


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_entropies_and_bounds_refuse_a_log_base_not_finite_above_1(base):
    # base 1 once gave inf, NaN gave NaN, inf gave 0.0, 0.5 a bound of -1.0, and 0 and -2
    # a math domain error
    m, v, w = computational_basis(2), identity(2), omega(-1)
    t = Tester.projective(PureState(np.array([1.0, 0.0])), m)
    message = re.escape(f"log base must be a finite number > 1, got {base}")
    for call in (lambda: shannon_entropy([0.5, 0.5], base),
                 lambda: EntropicBound.from_overlaps(np.array([[0.5]]), base),
                 lambda: pair_uncertainty(t, v, w, base),
                 lambda: projective_bound(m, v, w, base),
                 lambda: mes_bound(bell_basis(2), v, w, base),
                 lambda: povm_bound(povm_from_projective(m), v, w, base)):
        with pytest.raises(ValueError, match=message):
            call()


def test_outcome_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        OutcomeDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError, match="outside"):
        OutcomeDistribution(np.array([1.5, -0.5]))
    # tiny negatives are clamped
    p = OutcomeDistribution(np.array([1.0 + 1e-13, -1e-13]))
    assert p.probs.min() == 0.0


def test_pair_uncertainty_distinguishable_pair():
    t = Tester.projective(PureState(np.array([1.0, 0])), computational_basis(2))
    assert pair_uncertainty(t, identity(2), pauli("X")).value == pytest.approx(0.0, abs=1e-12)


def test_pair_uncertainty_equator_tester():
    m = su2_basis(np.pi / 4, 0.0)
    t = Tester.projective(m.states[0], m)
    assert pair_uncertainty(t, identity(2), omega(-1)).value == pytest.approx(1.0, abs=1e-12)


def test_pair_uncertainty_trivial_tester():
    t = trivial_tester(identity(2), pauli("Y"))
    assert pair_uncertainty(t, identity(2), pauli("Y")).value == pytest.approx(0.0, abs=1e-9)


def test_projective_bound_computational():
    b = projective_bound(computational_basis(2), identity(2), pauli("X"))
    assert b.value == pytest.approx(0.0, abs=1e-12)
    assert b.argmax == (0, 1)
    assert b.max_overlap == pytest.approx(1.0)


def test_projective_bound_equator():
    b = projective_bound(su2_basis(np.pi / 4, 0.0), identity(2), omega(-1))
    assert b.value == pytest.approx(1.0, abs=1e-9)


def test_projective_bound_sigma_y_quarter():
    b = projective_bound(su2_basis(np.pi / 4, np.pi / 4), identity(2), pauli("Y"))
    assert b.value == pytest.approx(1.0, abs=1e-9)


def test_mes_bound_identity():
    b = mes_bound(bell_basis(2), identity(2), identity(2))
    assert b.value == pytest.approx(0.0, abs=1e-12)
    assert b.argmax == (0, 0)


def test_mes_bound_pauli_x_permutes_bell():
    b = mes_bound(bell_basis(2), identity(2), pauli("X"))
    assert b.value == pytest.approx(0.0, abs=1e-12)


def test_mes_bound_quarter_turn():
    b = mes_bound(bell_basis(2), identity(2), omega(-1))
    assert b.value == pytest.approx(1.0, abs=1e-9)
    assert b.max_overlap == pytest.approx(0.5, abs=1e-12)


def _first_within_tie_tol(table: np.ndarray) -> tuple[int, int]:
    """The documented tie rule: first row-major entry within 1e-12 of the maximum."""
    flat = np.flatnonzero(table.reshape(-1) >= table.max() - 1e-12)[0]
    i, j = np.unravel_index(flat, table.shape)
    return int(i), int(j)


def test_from_overlaps_tie_and_near_one_rules():
    b = EntropicBound.from_overlaps(np.array([[0.25, 0.5 - 1e-13], [0.5, 0.25]]))
    assert b.argmax == (0, 1)
    assert b.max_overlap == 0.5
    b = EntropicBound.from_overlaps(np.array([[0.0, 1.0 - 2e-16], [1.0 - 3e-16, 0.0]]))
    assert (b.value, b.argmax, b.max_overlap) == (0.0, (0, 1), 1.0)


@pytest.mark.parametrize("d", range(2, 9))
def test_mes_bound_matches_kron_reference(d):
    rng = np.random.default_rng(40 + d)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    m = bell_basis(d)
    a = w.matrix @ v.matrix.conj().T
    # the definition |<nu_i| (w v† (x) I) |nu_j>|^2 as a dense d^2 x d^2 product
    reference = np.abs(m.matrix.conj().T @ np.kron(a, np.eye(d)) @ m.matrix) ** 2
    assert np.abs(m.overlaps(a) - reference).max() <= 1e-12
    b = mes_bound(m, v, w)
    assert b.max_overlap == pytest.approx(reference.max(), abs=1e-12)
    assert b.argmax == _first_within_tie_tol(reference)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 32])
def test_weyl_row0_bound_matches_full_table(d):
    # N_j N_i† is a phase times N_(j-i): row 0 holds every overlap of the Weyl table
    rng = np.random.default_rng(700 + d)
    m = bell_basis(d)
    clock, shift = clock_shift_pair(d)
    pairs = [(UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng)))]
    if d < 32:  # the d^6 table is the cost; test_mes_bound_tie_and_near_one_rules has d = 32
        pairs += [(UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))),
                  (clock, shift)]
    for v, w in pairs:
        full = EntropicBound.from_overlaps(m.overlaps(w.matrix @ v.matrix.conj().T))
        b = mes_bound(m, v, w)
        assert b.argmax == full.argmax
        assert abs(b.value - full.value) <= 1e-14
        assert abs(b.max_overlap - full.max_overlap) <= 1e-14


@pytest.mark.parametrize("d", [3, 8])
def test_mes_bound_builds_no_weyl_stack_for_a_rotated_basis(d):
    # element 0 of (u (x) I)|nu_i> is u / sqrt(d), not I / sqrt(d): the Weyl stack is never needed
    rng = np.random.default_rng(800 + d)
    _, _, rotated = sampled_mes(d)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    testers.bell_elements.cache_clear()
    b = mes_bound(rotated, v, w)
    assert testers.bell_elements.cache_info().currsize == 0
    full = EntropicBound.from_overlaps(rotated.overlaps(w.matrix @ v.matrix.conj().T))
    assert (b.value, b.argmax, b.max_overlap) == (full.value, full.argmax, full.max_overlap)


def test_non_weyl_mes_basis_takes_the_full_table(monkeypatch):
    # X N_i with X Haar is an MES basis too, but its table rows do not permute row 0
    calls = []
    overlaps = MesMeasurement.overlaps

    def counted(m, a):
        calls.append(m.elements.shape)
        return overlaps(m, a)

    monkeypatch.setattr(MesMeasurement, "overlaps", counted)
    for d in (2, 3, 5):
        rng = np.random.default_rng(900 + d)
        m = MesMeasurement(haar_matrix(d, rng) @ weyl_operators(d) / np.sqrt(d))
        v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
        reference = np.abs(
            m.matrix.conj().T @ np.kron(w.matrix @ v.matrix.conj().T, np.eye(d)) @ m.matrix
        ) ** 2
        b = mes_bound(m, v, w)
        assert calls[-1] == (d * d, d, d)
        assert b.max_overlap == pytest.approx(reference.max(), abs=1e-12)
        assert b.argmax == _first_within_tie_tol(reference)
    assert len(calls) == 3


def test_bell_bound_at_d32_never_builds_the_table(monkeypatch, run_cli):
    def refuse(m, a):
        raise AssertionError("the d^2 x d^2 table was built")

    monkeypatch.setattr(MesMeasurement, "overlaps", refuse)
    clock, shift = clock_shift_pair(32)
    assert mes_bound(bell_basis(32), clock, shift).argmax == (0, 993)
    code, out, _ = run_cli(["mes-bound", "--v", "clock", "--w", "shift", "--dim", "32"])
    assert code == 0
    assert json.loads(out)["argmax"] == [0, 993]


def test_povm_bound_projective_reduction():
    m = povm_from_projective(computational_basis(2))
    assert povm_bound(m, identity(2), pauli("X")).value == pytest.approx(0.0, abs=1e-9)


def test_povm_bound_equator():
    m = povm_from_projective(su2_basis(np.pi / 4, 0.0))
    assert povm_bound(m, identity(2), omega(-1)).value == pytest.approx(1.0, abs=1e-9)


def test_povm_bound_trivial_povm():
    # sqrt(I/2) sqrt(I/2) has operator norm 1/2: bound is 2 bits in d = 2
    m = Povm((np.eye(2) / 2, np.eye(2) / 2))
    assert povm_bound(m, identity(2), omega(-1)).value == pytest.approx(2.0, abs=1e-12)


def test_variance_uncertainty():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    # the square root turns an O(eps) overlap defect into O(sqrt(eps))
    assert variance_uncertainty(identity(2), plus) == pytest.approx(0.0, abs=1e-7)
    assert variance_uncertainty(pauli("X"), PureState(np.array([1.0, 0]))) == pytest.approx(1.0)
    assert variance_uncertainty(pauli("Z"), plus) == pytest.approx(1.0)


def test_bound_inequality_random():
    rng = np.random.default_rng(314)
    for d in (2, 3, 4):
        for _ in range(200):
            m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
            t = Tester.projective(PureState(random_state(d, rng)), m)
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(haar_matrix(d, rng))
            b = projective_bound(m, v, w)
            assert pair_uncertainty(t, v, w).value - b.value >= -1e-9
            assert -1e-12 <= b.value <= math.log2(d) + 1e-12


def test_bound_swap_symmetry():
    rng = np.random.default_rng(15)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        assert projective_bound(m, v, w).value == pytest.approx(
            projective_bound(m, w, v).value, abs=1e-12
        )


def test_povm_projective_consistency_random():
    rng = np.random.default_rng(99)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        assert povm_bound(povm_from_projective(m), v, w).value == pytest.approx(
            projective_bound(m, v, w).value, abs=1e-9
        )


def test_bound_unitary_covariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        u = haar_matrix(d, rng)
        rotated_m = ProjectiveMeasurement.from_matrix(u @ m.matrix)
        uv = UnitaryOperator(u @ v.matrix)
        uw = UnitaryOperator(u @ w.matrix)
        assert projective_bound(rotated_m, uv, uw).value == pytest.approx(
            projective_bound(m, v, w).value, abs=1e-12
        )


def test_povm_bound_validates_dimensions():
    m = povm_from_projective(computational_basis(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        povm_bound(m, identity(3), identity(3))


def test_pair_uncertainty_povm_matches_projective():
    rng = np.random.default_rng(4)
    m = ProjectiveMeasurement.from_matrix(haar_matrix(3, rng))
    psi = PureState(random_state(3, rng))
    v = UnitaryOperator(haar_matrix(3, rng))
    w = UnitaryOperator(haar_matrix(3, rng))
    t1 = Tester.projective(psi, m)
    t2 = Tester.povm(
        DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj())), povm_from_projective(m)
    )
    assert pair_uncertainty(t1, v, w).value == pytest.approx(
        pair_uncertainty(t2, v, w).value, abs=1e-9
    )


def per_side_entropies(t: Tester, v: UnitaryOperator, w: UnitaryOperator, base: float):
    """The reference: each side's ``shannon_entropy`` on its own, v then w."""
    return [shannon_entropy(outcome_distribution(t, u), base).value for u in (v, w)]


def tester_on_a_pair(kind: str, d: int):
    """(tester, v, w) of one kind; "uneven" is |0> in the computational basis with v = I, so
    the v side keeps one outcome and the w side all d."""
    rng = np.random.default_rng(1000 * d + len(kind))
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    if kind == "projective":
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        return Tester.projective(PureState(random_state(d, rng)), m), v, w
    if kind == "mes":
        return Tester.mes(bell_basis(d)), v, w
    if kind == "povm":  # a mixed input on 2d rank-1 elements of a tight frame
        psi = random_state(d, rng)
        rho = DensityMatrix(0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(d) / d)
        return Tester.povm(rho, rank1_frame(d, 2 * d, rng)), v, w
    return Tester.projective(PureState(np.eye(d)[0]), computational_basis(d)), identity(d), w


ENTROPY_CASES = [("projective", 2), ("projective", 3), ("projective", 4), ("projective", 8),
                 ("mes", 2), ("mes", 3), ("povm", 3), ("uneven", 2), ("uneven", 5)]


@pytest.mark.parametrize("kind, d", ENTROPY_CASES)
@pytest.mark.parametrize("base", [2.0, math.e])
def test_pair_uncertainty_is_the_per_side_sum_bit_for_bit(kind, d, base):
    # pair_uncertainty sums each side's shannon_entropy, and one entropies call on the
    # two-row table, as the game's analytic sum makes, gives the same two values, whether
    # the sides keep equally many outcomes (one group) or not (two groups)
    t, v, w = tester_on_a_pair(kind, d)
    hv, hw = per_side_entropies(t, v, w, base)
    assert pair_uncertainty(t, v, w, base) == EntropyValue(hv + hw, base)
    p = np.array([outcome_distribution(t, u).probs for u in (v, w)])
    kept = (p > ZERO_PROBABILITY).sum(axis=1)
    assert (kept[0] == kept[1]) == (kind != "uneven")
    assert entropies(p, base).tolist() == [hv, hw]


def kept_entropy(p: np.ndarray, base: float) -> float:
    """The reference: -sum q log q of the probabilities q of p above ZERO_PROBABILITY alone."""
    q = p[p > ZERO_PROBABILITY]
    return float(-(q * (np.log2(q) if base == 2.0 else np.log(q) / math.log(base))).sum() + 0.0)


def test_entropies_of_a_table_are_each_rows_kept_entropy():
    # rows that keep 6, 12, 18 and 24 of 24 probabilities, interleaved, so that several groups
    # are summed and written back in place; numpy sums 8 or more terms in unrolled partial
    # sums, so a row summed with its zeros in place can differ in the last bit
    rng = np.random.default_rng(9)
    rows = []
    for k in range(48):
        p = rng.random(24) * (rng.permutation(24) < 6 * (1 + k % 4))
        rows.append(p / p.sum())
    table = np.array(rows)
    for base in (2.0, math.e, 10.0):
        want = [kept_entropy(r, base) for r in rows]
        assert entropies(table, base).tolist() == want
        assert [shannon_entropy(r, base).value for r in rows] == want


def test_entropies_refuse_a_value_outside_0_and_log_n():
    # a probability above 1 gives a negative entropy, which no checked row can reach
    with pytest.raises(ValueError, match=re.escape("entropy -2.0 outside [0, log 2]")):
        entropies(np.array([[2.0, -1.0]]), 2.0)


def frame_vectors(d: int, n: int, rng) -> np.ndarray:
    """d x n: columns r_k, the conjugated rows of an n x d isometry, a tight frame."""
    q, _ = np.linalg.qr(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    return q.conj().T


def rank1_povm(x: np.ndarray) -> Povm:
    """The elements |x_k><x_k| of the columns x_k of x."""
    return Povm(x.T[:, :, None] * x.T.conj()[:, None, :])


def rank1_frame(d: int, n: int, rng) -> Povm:
    """n rank-1 elements |r_k><r_k| of a tight frame."""
    return rank1_povm(frame_vectors(d, n, rng))


def full_rank_frame(d: int, n: int, t: float, rng) -> Povm:
    """Full-rank elements (1 - t) |r_k><r_k| + t I / n of a tight frame."""
    return Povm((1 - t) * rank1_frame(d, n, rng).elements + t * np.eye(d) / n)


def rank1_bound(x: np.ndarray, v: UnitaryOperator, w: UnitaryOperator) -> EntropicBound:
    """The exact POVM bound of the elements |x_k><x_k|: the table |x_i† v w† x_j|."""
    table = np.abs(x.conj().T @ v.matrix @ w.matrix.conj().T @ x)
    return EntropicBound.from_overlaps(table, 2.0, power=2.0)


def per_element_povm_bound(m: Povm, v: UnitaryOperator, w: UnitaryOperator) -> EntropicBound:
    """The POVM bound as one psd_sqrt per element and side and one operator_norm per pair."""
    roots_v = [psd_sqrt(v.matrix.conj().T @ e @ v.matrix) for e in m.elements]
    roots_w = [psd_sqrt(w.matrix.conj().T @ e @ w.matrix) for e in m.elements]
    norms = np.array([[operator_norm(a @ b) for b in roots_w] for a in roots_v])
    return EntropicBound.from_overlaps(norms, 2.0, power=2.0)


def assert_bounds_agree(got: EntropicBound, want: EntropicBound) -> None:
    assert got.argmax == want.argmax
    assert abs(got.value - want.value) <= 1e-12
    assert abs(got.max_overlap - want.max_overlap) <= 1e-12


@pytest.mark.parametrize("d, frame", [(2, False), (3, False), (5, False), (8, False),
                                      (16, False), (32, False), (8, True)])
def test_stacked_povm_and_outcomes_match_per_element_loops(d, frame):
    rng = np.random.default_rng(100 + d)
    x = haar_matrix(d, rng)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    m = ProjectiveMeasurement.from_matrix(x)
    vectors = frame_vectors(d, d * d, rng) if frame else m.matrix
    povm = rank1_povm(vectors) if frame else povm_from_projective(m)
    # the rank-1 table |x_i† v w† x_j| is exact: no square root, no eigensolver
    assert_bounds_agree(povm_bound(povm, v, w), rank1_bound(vectors, v, w))

    psi = PureState(random_state(d, rng))
    rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    mes = Tester.mes(bell_basis(d))
    for u in (v, w):
        rotated = u.matrix @ rho.matrix @ u.matrix.conj().T
        want_povm = [np.trace(e @ rotated).real for e in povm.elements]
        want_projective = np.abs(x.conj().T @ (u.matrix @ psi.amplitudes)) ** 2
        evolved = (u.matrix @ mes.input.amplitudes.reshape(d, d)).reshape(-1)
        want_mes = np.abs(mes.measurement.matrix.conj().T @ evolved) ** 2
        for t, want_p in ((Tester.povm(rho, povm), want_povm),
                          (Tester.projective(psi, m), want_projective),
                          (mes, want_mes)):
            assert np.array_equal(outcome_distribution(t, u).probs, np.clip(want_p, 0.0, 1.0))


def test_rank1_povm_bound_takes_the_moduli_of_its_blocks(monkeypatch):
    # at rank 1 each block is 1 x 1: its norm is its modulus, and no batched SVD norm is run
    rng = np.random.default_rng(64)
    x = frame_vectors(8, 64, rng)
    v, w = UnitaryOperator(haar_matrix(8, rng)), UnitaryOperator(haar_matrix(8, rng))
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: pytest.fail("norm called at rank 1"))
    b = povm_bound(rank1_povm(x), v, w)
    top = np.abs(x.conj().T @ v.matrix @ w.matrix.conj().T @ x).max()
    assert abs(b.value - (-2 * math.log2(top))) <= 1e-12


def test_povm_bound_memory_is_one_row_at_a_time():
    # 64 full-rank elements at d = 8: the whole (nd)^2 table of blocks would take 4 MB
    rng = np.random.default_rng(8)
    v, w = UnitaryOperator(haar_matrix(8, rng)), UnitaryOperator(haar_matrix(8, rng))
    for povm in (rank1_frame(8, 64, rng), full_rank_frame(8, 64, 0.3, rng)):
        tracemalloc.start()
        try:
            povm_bound(povm, v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def mixed_rank_povms(d: int, rng) -> list[Povm]:
    """{I/2, I/2}; a rank-2 element among rank-1 ones; full rank; an eigenvalue of 1e-10."""
    x = haar_matrix(d, rng)
    p = [np.outer(x[:, k], x[:, k].conj()) for k in range(d)]
    return [
        Povm([np.eye(d) / 2] * 2),
        Povm([p[0] + p[1], *p[2:]]),
        full_rank_frame(d, d + 3, 0.4, rng),
        Povm([p[0] + 1e-10 * p[1], (1 - 1e-10) * p[1], *p[2:]]),
    ]


@pytest.mark.parametrize("d", [3, 8])
def test_povm_bound_matches_per_element_roots_beyond_rank_1(d):
    rng = np.random.default_rng(150 + d)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    for povm in mixed_rank_povms(d, rng):
        assert_bounds_agree(povm_bound(povm, v, w), per_element_povm_bound(povm, v, w))


def row_block_povm_bound(m: Povm, v: UnitaryOperator, w: UnitaryOperator) -> EntropicBound:
    """``povm_bound`` with its table taken one element's row block at a time at every rank."""
    a = v.matrix @ w.matrix.conj().T
    lam, vecs = np.linalg.eigh(m.elements)
    lam = np.where(lam > m.dim * np.finfo(float).eps * lam[:, -1:], lam, 0.0)
    r, n = int(np.count_nonzero(lam, axis=1).max()), len(lam)
    f = vecs[:, :, -r:] * np.sqrt(lam[:, None, -r:])
    right = np.moveaxis(a @ f, 0, 1).reshape(m.dim, n * r)
    blocks = [(fi.conj().T @ right).reshape(r, n, r).swapaxes(0, 1) for fi in f]
    norms = np.array([np.abs(b[:, 0, 0]) if r == 1 else np.linalg.norm(b, ord=2, axis=(-2, -1))
                      for b in blocks])
    return EntropicBound.from_overlaps(norms, 2.0, power=2.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 32])
def test_povm_bound_equals_the_row_block_loop_bit_for_bit(d):
    # the rank-1 table is one stacked product, which numpy runs entry by entry through the
    # product the loop takes: the same bits, where one (n, d)(d, n) product moves the last one
    rng = np.random.default_rng(200 + d)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    povms = [rank1_frame(d, n, rng) for n in (d, 2 * d, 3 * d)] + mixed_rank_povms(d, rng)
    for povm in povms:
        got, want = povm_bound(povm, v, w), row_block_povm_bound(povm, v, w)
        assert (got.value.hex(), got.argmax, got.max_overlap.hex()) == (
            want.value.hex(), want.argmax, want.max_overlap.hex())


def test_povm_bound_takes_one_eigh_and_no_square_root(monkeypatch):
    rng = np.random.default_rng(9)
    v, w = UnitaryOperator(haar_matrix(8, rng)), UnitaryOperator(haar_matrix(8, rng))
    povms = [povm_from_projective(ProjectiveMeasurement(haar_matrix(8, rng))),
             *mixed_rank_povms(8, rng)]
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
    for name in ("psd_sqrt", "operator_norm"):
        f = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, f=f, name=name, **k: calls.append(name) or f(*a, **k))
    for povm in povms:
        calls.clear()
        povm_bound(povm, v, w)
        assert calls == ["eigh"]


# --- properties at sampled dimensions up to the advertised d = 32 ---------------

SAMPLED_DIMS = (5, 8, 16, 32)


def random_density(d: int, rng) -> DensityMatrix:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@functools.cache
def sampled_mes(d: int) -> tuple[MesMeasurement, np.ndarray, MesMeasurement]:
    """The Bell basis, a Haar u, and the basis (u (x) I)|nu_i>, whose table is the full product.

    Cached: at d = 32 each MES basis takes ~0.2 s to validate.
    """
    u = haar_matrix(d, np.random.default_rng(4000 + d))
    return bell_basis(d), u, MesMeasurement(u @ weyl_operators(d) / np.sqrt(d))


@pytest.mark.parametrize("d", SAMPLED_DIMS)
def test_bound_inequality_at_sampled_d(d):
    rng = np.random.default_rng(5000 + d)
    for _ in range(1 if d == 32 else 3):  # at d = 32 the rotated MES basis's d^4 table is the cost
        v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
        m = ProjectiveMeasurement(haar_matrix(d, rng))
        t = Tester.projective(PureState(random_state(d, rng)), m)
        assert pair_uncertainty(t, v, w).value >= projective_bound(m, v, w).value - 1e-9
        povm = rank1_frame(d, d + 1, rng)
        t = Tester.povm(random_density(d, rng), povm)
        assert pair_uncertainty(t, v, w).value >= povm_bound(povm, v, w).value - 1e-9
        bell, _, rotated = sampled_mes(d)
        for mes in (bell, rotated):
            b = mes_bound(mes, v, w)
            assert pair_uncertainty(Tester.mes(mes), v, w).value >= b.value - 1e-9
            assert -1e-12 <= b.value <= 2 * math.log2(d) + 1e-12


@pytest.mark.parametrize("d", SAMPLED_DIMS)
def test_unitary_covariance_at_sampled_d(d):
    # rotating the operators by u and the measurement by u leaves every bound unchanged
    rng = np.random.default_rng(6000 + d)
    bell, u, rotated = sampled_mes(d)
    v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
    uv, uw = UnitaryOperator(u @ v.matrix), UnitaryOperator(u @ w.matrix)
    m = ProjectiveMeasurement(haar_matrix(d, rng))
    assert projective_bound(ProjectiveMeasurement(u @ m.matrix), uv, uw).value == pytest.approx(
        projective_bound(m, v, w).value, abs=1e-9
    )
    povm = rank1_frame(d, d + 1, rng)
    assert povm_bound(Povm(u @ povm.elements @ u.conj().T), uv, uw).value == pytest.approx(
        povm_bound(povm, v, w).value, abs=1e-9
    )
    assert mes_bound(rotated, uv, uw).value == pytest.approx(mes_bound(bell, v, w).value, abs=1e-9)


@pytest.mark.parametrize("d", SAMPLED_DIMS)
def test_povm_reduces_to_projective_at_sampled_d(d):
    rng = np.random.default_rng(7000 + d)
    for _ in range(3):
        m = ProjectiveMeasurement(haar_matrix(d, rng))
        v, w = UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng))
        assert povm_bound(povm_from_projective(m), v, w).value == pytest.approx(
            projective_bound(m, v, w).value, abs=1e-9
        )


@pytest.mark.parametrize("u_dim, psi_dim", [(3, 2), (2, 4)])
def test_variance_uncertainty_refuses_a_dimension_mismatch(u_dim, psi_dim):
    psi = PureState(np.eye(psi_dim)[0])
    with pytest.raises(ValueError, match=f"^dimension mismatch: {u_dim} vs {psi_dim}$"):
        variance_uncertainty(identity(u_dim), psi)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 32])
def test_results_do_not_depend_on_memory_layout(d):
    # every validated value owns its array in C order, so a Fortran-ordered copy of an input
    # gives the same bits; a measurement once kept its caller's layout, and the pair
    # uncertainty moved by up to ~2e-15 bits at d = 4, 5, 16 and 32
    rng = np.random.default_rng(3)
    for _ in range(6):
        x, v, w = (haar_matrix(d, rng) for _ in range(3))
        psi, rho = random_state(d, rng), random_density(d, rng).matrix
        elements = povm_from_projective(ProjectiveMeasurement(x)).elements
        results = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            m, povm = ProjectiveMeasurement(layout(x)), Povm(layout(elements))
            uv, uw = UnitaryOperator(layout(v)), UnitaryOperator(layout(w))
            report = search_min_uncertainty(m, uv, uw, budget=40, restarts=4)
            results.append([value.hex() for value in (
                pair_uncertainty(Tester.projective(PureState(layout(psi)), m), uv, uw).value,
                pair_uncertainty(Tester.povm(DensityMatrix(layout(rho)), povm), uv, uw).value,
                projective_bound(m, uv, uw).value,
                povm_bound(povm, uv, uw).value,
                report.achieved.value,
                report.bound.value,
            )])
        assert results[1] == results[0]
