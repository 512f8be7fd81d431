import json
import re

import numpy as np
import pytest

from utp import operators
from utp.operators import (
    UnitaryBasis,
    UnitaryOperator,
    array_from_literal,
    clock_shift_pair,
    haar_random_unitary,
    hs_inner,
    identity,
    is_muub,
    is_perfectly_distinguishable,
    omega,
    pauli,
)
from utp.testers import MesMeasurement, bell_elements, weyl_operators


def r_basis_elements():
    """The even-sign set {(I + i(s1 sx + s2 sy + s3 sz))/2 : s1 s2 s3 = +1}."""
    sx, sy, sz = (pauli(c).matrix for c in "XYZ")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return tuple(
        UnitaryOperator((np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2)
        for a, b, c in signs
    )


def test_pauli_y_literal():
    assert np.allclose(pauli("Y").matrix, [[0, -1j], [1j, 0]])


def test_pauli_anticommutation():
    x, z = pauli("X").matrix, pauli("Z").matrix
    assert np.allclose(x @ z, -(z @ x))


def test_pauli_orthogonality():
    assert hs_inner(pauli("X"), pauli("Z")) == pytest.approx(0)


def test_pauli_unknown_label():
    with pytest.raises(ValueError, match="unknown Pauli"):
        pauli("Q")


def test_unitary_operator_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOperator(np.array([[1, 1], [0, 1]], dtype=complex))


def test_unitary_operator_rejects_zero_dimension():
    with pytest.raises(ValueError, match=re.escape("dimension >= 1, got (0, 0)")):
        UnitaryOperator(np.zeros((0, 0)))


def test_unitary_operator_immutable():
    u = pauli("X")
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5.0


def test_clock_shift_d2():
    p, q = clock_shift_pair(2)
    # j runs over {-1, 0} in ascending order: diag(exp(-i pi), 1)
    assert np.allclose(p.matrix, np.diag([-1, 1]), atol=1e-12)
    assert np.allclose(p.matrix @ q.matrix, -(q.matrix @ p.matrix), atol=1e-12)


def test_clock_shift_d3_orthogonal():
    p, q = clock_shift_pair(3)
    assert abs(hs_inner(p, q)) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_clock_shift_commutation(d):
    p, q = clock_shift_pair(d)
    lhs = p.matrix @ q.matrix
    rhs = np.exp(2j * np.pi / d) * (q.matrix @ p.matrix)
    assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("d", range(2, 7))
def test_clock_shift_hs_norm(d):
    p, q = clock_shift_pair(d)
    assert abs(hs_inner(p, p)) == pytest.approx(d, abs=1e-9)
    assert abs(hs_inner(q, q)) == pytest.approx(d, abs=1e-9)


def test_clock_shift_pair_is_bit_identical_to_its_formula():
    # the pair now reads the shared centred DFT; its matrices must not move by a bit
    for d in range(2, 33):
        js = np.arange(-(d // 2), (d - 1) // 2 + 1)
        clock = np.diag(np.exp(2j * np.pi * js / d))
        fourier = np.exp(2j * np.pi * np.outer(js, js) / d) / np.sqrt(d)
        shift = (fourier * np.exp(-2j * np.pi * js / d)[None, :]) @ fourier.conj().T
        p, q = clock_shift_pair(d)
        assert np.array_equal(p.matrix, clock) and np.array_equal(q.matrix, shift), d
        assert np.array_equal(operators.dft_matrix(d), fourier), d


def test_clock_shift_rejects_small_dim():
    with pytest.raises(ValueError):
        clock_shift_pair(1)


def test_hs_inner_examples():
    assert hs_inner(pauli("X"), pauli("X")) == pytest.approx(2)
    # only the identity component survives the trace against I
    u = r_basis_elements()[0]
    assert abs(hs_inner(identity(2), u)) == pytest.approx(1.0, abs=1e-12)


def test_is_muub_qubit_subspace():
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    flag, kappa = is_muub(b1, b2)
    assert flag
    assert kappa == pytest.approx(2.0, abs=1e-9)


def test_is_muub_identical_bases():
    b = UnitaryBasis((identity(2), pauli("Y")))
    flag, _ = is_muub(b, b)
    assert not flag


def test_is_muub_full_space():
    bp = UnitaryBasis(tuple(pauli(c) for c in "IXYZ"))
    br = UnitaryBasis(r_basis_elements())
    flag, kappa = is_muub(bp, br)
    assert flag
    assert kappa == pytest.approx(1.0, abs=1e-12)


def test_is_muub_symmetric():
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    assert is_muub(b1, b2) == is_muub(b2, b1)
    b3 = UnitaryBasis((identity(2), pauli("Z")))
    assert is_muub(b1, b3)[0] == is_muub(b3, b1)[0]


def test_muub_completeness_sum():
    # for each fixed element, overlaps against the other basis sum to d^2
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    for p in b1.elements:
        total = sum(abs(hs_inner(p, q)) ** 2 for q in b2.elements)
        assert total == pytest.approx(4.0, abs=1e-9)


def test_unitary_basis_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="HS-orthogonal"):
        UnitaryBasis((identity(2), identity(2)))


@pytest.fixture(scope="module")
def weyl_32():
    """The 1024 Weyl operators at d = 32, the advertised full-space size."""
    return tuple(UnitaryOperator(o) for o in weyl_operators(32))


def test_unitary_basis_full_space_d32(weyl_32):
    assert UnitaryBasis(weyl_32).subspace_dim == 1024


def test_unitary_basis_d32_rejects_phase_multiple(weyl_32):
    copy = weyl_32[:-1] + (UnitaryOperator(1j * weyl_32[5].matrix),)
    with pytest.raises(ValueError, match="HS-orthogonal"):
        UnitaryBasis(copy)


def _dense_hs_deviation(p, norm):
    return np.abs(operators.hs_moduli(p, p) - norm * np.eye(len(p))).max()


@pytest.mark.parametrize("grouped_from", [0, operators.HS_BLOCK_MIN_PRODUCT],
                         ids=["blocks-forced", "size-rule"])
@pytest.mark.parametrize("d", [11, 16, 32])
def test_hs_check_accepts_weyl_stacks_by_support_blocks(monkeypatch, d, grouped_from):
    # the d Weyl operators X^a Z^b of one shift a share one support, disjoint from the rest
    monkeypatch.setattr(operators, "HS_BLOCK_MIN_PRODUCT", grouped_from)
    weyl = weyl_operators(d)
    assert len(operators._support_blocks(weyl.reshape(d * d, -1))) == d
    for p, norm in ((bell_elements(d), 1.0), (weyl, float(d))):
        dev = operators.check_hs_orthogonal(p, norm, "not HS-orthogonal")
        assert abs(dev - _dense_hs_deviation(p, norm)) <= 1e-15 * norm  # rounding of sums ~ norm
    assert UnitaryBasis(tuple(UnitaryOperator(o) for o in weyl)).subspace_dim == d * d


def test_hs_check_seeks_blocks_only_past_the_dense_crossover(monkeypatch):
    seen = []  # the stand-in finds no blocks, so every stack takes the dense product
    monkeypatch.setattr(operators, "_support_blocks", lambda a: seen.append(len(a)))
    for d in (2, 3, 4, 8, 11, 16, 32):
        operators.check_hs_orthogonal(bell_elements(d), 1.0, "not orthonormal")
    assert seen == [256, 1024]


def _spoiled_bell_32(kind):
    r = bell_elements(32).copy()
    if kind == "on-support":
        r[5, 3, 3] += 1e-6  # X^0 Z^5 is diagonal
    elif kind == "off-support":
        r[5, 3, 2] = 1e-6  # where only the shift-1 operators are nonzero
    elif kind == "zero-row":
        r[7] = 0
    else:
        r[40, 9, 8] = {"nan": np.nan, "inf": np.inf}[kind]  # X^1 Z^8 is nonzero at i = j + 1
    return r


@pytest.mark.parametrize("kind", ["on-support", "off-support", "nan", "inf", "zero-row"])
def test_hs_check_refuses_spoiled_bell_32_as_the_dense_product_does(kind):
    r = _spoiled_bell_32(kind)
    a = r.reshape(len(r), -1)
    # only the off-support entry makes two patterns overlap and so takes the dense product
    assert (operators._support_blocks(a) is None) == (kind == "off-support")
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as refused:  # inf * 0
        dense = _dense_hs_deviation(r, 1.0)
        MesMeasurement(r)
    assert str(refused.value) == (
        f"MES basis is not orthonormal: |Tr(P_i† P_j)| is {dense:.3e} off 1·δ_ij")


def test_is_muub_d32_identical_bases(weyl_32):
    b = UnitaryBasis(weyl_32)
    assert is_muub(b, b) == (False, 1.0)


def test_unitary_basis_rejects_bad_count():
    with pytest.raises(ValueError, match="neither"):
        UnitaryBasis((identity(2), pauli("X"), pauli("Y")))


def test_haar_deterministic_and_unitary():
    u1 = haar_random_unitary(4, seed=42)
    u2 = haar_random_unitary(4, seed=42)
    assert np.array_equal(u1.matrix, u2.matrix)
    assert np.abs(u1.matrix.conj().T @ u1.matrix - np.eye(4)).max() < 1e-9
    u3 = haar_random_unitary(2, seed=1)
    u4 = haar_random_unitary(2, seed=2)
    assert np.abs(u3.matrix - u4.matrix).max() > 1e-3


def test_distinguishable_pauli_pair():
    assert is_perfectly_distinguishable(pauli("X"), pauli("Z"))


def test_not_distinguishable_identity():
    assert not is_perfectly_distinguishable(identity(2), identity(2))


def test_not_distinguishable_quarter_turn():
    # eigenvalues exp(+-i pi/4): the hull chord misses the origin
    assert not is_perfectly_distinguishable(identity(2), omega(-1))


@pytest.mark.parametrize("d", range(2, 7))
def test_orthogonal_clock_shift_distinguishable(d):
    p, q = clock_shift_pair(d)
    assert abs(hs_inner(p, q)) < 1e-9
    assert is_perfectly_distinguishable(p, q)


def test_json_roundtrip():
    u = haar_random_unitary(3, seed=3)
    again = UnitaryOperator.from_literal(json.loads(json.dumps(u.to_literal())))
    assert np.abs(again.matrix - u.matrix).max() < 1e-15


def test_json_rejects_non_unitary():
    bad = {"dim": 2, "re": [[1, 1], [0, 1]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOperator.from_literal(bad)


def test_json_rejects_malformed():
    with pytest.raises(ValueError, match="malformed matrix literal: missing field 'dim'"):
        UnitaryOperator.from_literal("{not json")
    with pytest.raises(ValueError, match="malformed matrix literal"):
        UnitaryOperator.from_literal({"dim": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="malformed matrix literal: dim must be >= 1, got 0"):
        UnitaryOperator.from_literal({"dim": 0, "re": [], "im": []})
    x = [[0, 1], [1, 0]]
    for dim in (2.7, 2.0, "2", True):  # int() once truncated 2.7, read "2" and loaded True as 1
        with pytest.raises(ValueError, match="malformed matrix literal: dim must be an integer"):
            UnitaryOperator.from_literal({"dim": dim, "re": x, "im": [[0, 0], [0, 0]]})
    shape = r"malformed matrix literal: re and im must both have shape \(2, 2\)"
    for re_, im in ((x, 0), ([0, 0], [[1, 0], [0, 1]]), (x, [[0, 0]]), ([x], [[x]])):  # no broadcast
        with pytest.raises(ValueError, match=shape):
            UnitaryOperator.from_literal({"dim": 2, "re": re_, "im": im})
    with pytest.raises(ValueError, match="malformed vector literal: re and im must both have shape"):
        array_from_literal({"dim": 2, "re": [[1], [0]], "im": [[0], [0]]}, ndim=1)  # not flattened
    with pytest.raises(ValueError, match="malformed matrix literal: int too large to convert"):
        UnitaryOperator.from_literal({"dim": 2, "re": [[10 ** 400, 0], [0, 1]], "im": x})
    for u in (pauli("Y"), haar_random_unitary(3, seed=3)):  # valid literals still load exactly
        assert np.array_equal(UnitaryOperator.from_literal(u.to_literal()).matrix, u.matrix)


def test_hull_distance_single_eigenvalue():
    # all-equal spectrum sits at distance 1 from the origin
    assert operators._hull_nearest_origin(np.array([1j, 1j, 1j]))[0] == pytest.approx(1.0)


def test_hull_distance_antipodal():
    assert operators._hull_nearest_origin(np.array([1.0 + 0j, -1.0 + 0j]))[0] == 0.0


def test_hull_distance_near_antipodal_resolution():
    # chord between angles 0 and pi - eps passes at distance sin(eps/2)
    for eps in (1e-3, 1e-6, 1e-9):
        pts = np.array([1.0, np.exp(1j * (np.pi - eps))])
        assert operators._hull_nearest_origin(pts)[0] == pytest.approx(
            np.sin(eps / 2), rel=1e-6
        )


def test_hull_distance_equally_spaced_roots():
    # cube roots of unity: chords sit at distance cos(pi/3) = 1/2 but the
    # origin is interior, so the hull distance is zero
    pts = np.exp(2j * np.pi * np.arange(3) / 3)
    assert operators._hull_nearest_origin(pts)[0] == 0.0


def _hull_spectra(d: int, rng) -> dict[str, np.ndarray]:
    """Eigenvalues on the unit circle, from generic to exactly degenerate."""
    small = rng.uniform(-1e-6, 1e-6, max(0, d - 4))
    phases = {
        "uniform": rng.uniform(-np.pi, np.pi, d),
        "within-1.2-of-0": rng.uniform(-1.2, 1.2, d),
        "quarter-turns": rng.integers(0, 4, d) * np.pi / 2 + 1e-10 * rng.standard_normal(d),
        "antipodal-with-repeats": np.concatenate([[0.0, 0.0, 1e-10, np.pi], small])[:d],
    }
    return {kind: np.exp(1j * p) for kind, p in phases.items()}


def test_hull_witness_is_the_nearest_convex_mixture():
    rng = np.random.default_rng(2024)
    inside = outside = 0
    for d in range(2, 33):
        for _ in range(25):
            for kind, pts in _hull_spectra(d, rng).items():
                distance, indices, weights = operators._hull_nearest_origin(pts)
                assert len(indices) == len(weights) <= 3, kind
                assert weights.min() >= 0 and abs(weights.sum() - 1) <= 1e-12, kind
                mixture = abs(weights @ pts[list(indices)])
                if distance > 0:
                    # brute force: the nearest hull point lies on some chord
                    x, y = pts[:, None], pts[None, :]
                    xy = y - x
                    denom = np.abs(xy) ** 2
                    t = np.clip(-(x * xy.conj()).real / np.where(denom < 1e-30, 1, denom), 0, 1)
                    assert distance == pytest.approx(np.abs(x + t * xy).min(), abs=1e-14), kind
                    assert mixture == pytest.approx(distance, abs=1e-14), kind
                    outside += 1
                else:
                    assert distance == 0.0 and mixture <= 1e-12, kind
                    inside += 1
    assert inside >= 500 and outside >= 500


def test_hull_witness_on_nearly_flat_triangles_off_the_axes():
    # phases {phi, phi + pi - delta, phi + pi + delta / 3}: 0 lies inside a triangle
    # whose weights lose accuracy near delta ~ sqrt(eps), the routine's known limit
    rng = np.random.default_rng(2025)
    worst = 0.0
    for delta in 10.0 ** -np.arange(4, 11):
        for phi in rng.uniform(-np.pi, np.pi, 200):
            pts = np.exp(1j * (phi + np.array([0.0, np.pi - delta, np.pi + delta / 3])))
            distance, indices, weights = operators._hull_nearest_origin(pts)
            assert distance == 0.0, (phi, delta)
            assert weights.min() >= 0 and abs(weights.sum() - 1) <= 1e-12, (phi, delta)
            worst = max(worst, abs(weights @ pts[list(indices)]))
    assert worst <= 1e-8


@pytest.mark.parametrize("build, message", [
    (lambda: UnitaryBasis(()), "a unitary basis needs at least one element"),
    (lambda: UnitaryBasis((identity(2), identity(3))), "all basis elements must share one dimension"),
    (lambda: omega(0), "sign must be -1 or +1"),
    (lambda: operators.weyl_operators(1), "local dimension must be >= 2"),
    (lambda: hs_inner(identity(2), identity(3)), "dimension mismatch: 2 vs 3"),
    (lambda: operators.hs_table(UnitaryBasis((pauli("I"), pauli("Z"))),
                                UnitaryBasis(tuple(pauli(c) for c in "IXYZ"))),
     "bases must share dimension and subspace dimension"),
    (lambda: haar_random_unitary(0, 1), "dimension must be >= 1"),
    (lambda: is_perfectly_distinguishable(identity(2), identity(3)), "dimension mismatch: 2 vs 3"),
], ids=["empty-basis", "mixed-dims", "omega-sign", "weyl-d1", "hs-inner-dim", "hs-table-shape",
        "haar-d0", "hull-dim"])
def test_operators_refuse_malformed_input_with_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
