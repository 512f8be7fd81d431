import numpy as np
import pytest

from conftest import haar_matrix
from utp import linalg
from utp.operators import UnitaryOperator
from utp.saturation import zero_bound_witness
from utp.testers import MES_RESHAPE_TOL, DensityMatrix, MesMeasurement, Povm, bell_elements
from utp.uncertainty import pair_uncertainty

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        linalg.as_complex(np.array([[np.nan, 0], [0, 1]]), 2)
    with pytest.raises(ValueError, match="finite"):
        linalg.as_complex(np.array([np.inf, 0]), 1)


def _pairs(u):
    """The (eigenvalue, eigenvector) pairs of ``eig_unitary(u)``."""
    lam, z = linalg.eig_unitary(u)
    return list(zip(lam, z.T))


def test_eig_unitary_sigma_z():
    by_value = {round(lam.real): vec for lam, vec in _pairs(SZ)}
    assert set(by_value) == {1, -1}
    assert np.allclose(np.abs(by_value[1]), [1, 0])
    assert np.allclose(np.abs(by_value[-1]), [0, 1])


def test_eig_unitary_sigma_y_eigenequation():
    # oracle: check U v = lambda v by direct multiplication
    pairs = _pairs(SY)
    for lam, vec in pairs:
        assert np.allclose(SY @ vec, lam * vec, atol=1e-12)
    values = sorted(lam.real for lam, _ in pairs)
    assert np.allclose(values, [-1, 1], atol=1e-12)
    assert all(abs(lam.imag) < 1e-12 for lam, _ in pairs)


def test_eig_unitary_quarter_turn():
    # (I - i sigma_y)/sqrt(2) diagonalizes in the sigma_y eigenbasis with
    # eigenvalues exp(-/+ i pi/4)
    u = (I2 - 1j * SY) / np.sqrt(2)
    values, _ = linalg.eig_unitary(u)
    expected = np.exp(np.array([-1j, 1j]) * np.pi / 4)
    assert np.allclose(values[np.argsort(values.imag)], expected, atol=1e-12)


def test_eig_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        linalg.eig_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_eig_unitary_random_reconstruction(d):
    rng = np.random.default_rng(d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r))).conj()[None, :]
    pairs = _pairs(u)
    rebuilt = sum(lam * np.outer(vec, vec.conj()) for lam, vec in pairs)
    assert np.abs(rebuilt - u).max() < 1e-8
    for lam, _ in pairs:
        assert abs(abs(lam) - 1) < 1e-9


def test_eig_unitary_degenerate_identity():
    values, basis = linalg.eig_unitary(np.eye(3, dtype=complex))
    assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
    assert np.allclose(values, [1, 1, 1])


def _hard_spectra(d: int, rng) -> dict[str, np.ndarray]:
    """Eigenphases of each kind a Hermitian eigenbasis of a unitary could get wrong."""
    half = rng.uniform(0.0, np.pi, (d + 1) // 2)
    quarter = rng.choice([-np.pi / 2, np.pi / 2])
    return {
        "haar": rng.uniform(-np.pi, np.pi, d),
        "multiplicities": rng.choice(rng.uniform(-np.pi, np.pi, max(1, d // 3)), d),
        "plus-minus": np.concatenate([half, -half])[:d],
        "near-degenerate": rng.uniform(-np.pi, np.pi) + 1e-9 * rng.standard_normal(d),
        "straddling-the-cut": np.pi + 1e-9 * rng.standard_normal(d),
        # eigenvalues near +-i differ mostly in their real parts
        "near-quarter-turn": quarter + rng.uniform(-5e-4, 5e-4, d),
        "mirrored-about-quarter-turn": np.pi / 2 + 3e-4 * (-1.0) ** np.arange(d),
        # the spectrum of every cross pair of the chirp MUUB bases
        "chirp": np.pi * np.arange(d) ** 2 * (d + 1) / d,
        # one cluster narrower than CLUSTER_GAP and one as wide as it
        "cluster-1e-8": rng.uniform(-np.pi, np.pi) + 1e-8 * rng.uniform(-0.5, 0.5, d),
        "cluster-1e-7": rng.uniform(-np.pi, np.pi) + 1e-7 * rng.uniform(-0.5, 0.5, d),
    }


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_eig_unitary_hard_spectra_up_to_d32(d, monkeypatch):
    eigh, eigh_calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: eigh_calls.append(a) or eigh(*a))
    rng = np.random.default_rng(100 + d)
    for kind, phases in _hard_spectra(d, rng).items():
        x = haar_matrix(d, rng)
        u = (x * np.exp(1j * phases)) @ x.conj().T
        eigh_calls.clear()
        lam, z = linalg.eig_unitary(u)
        assert len(eigh_calls) == 1, kind
        assert np.abs(z.conj().T @ z - np.eye(d)).max() <= 1e-12, kind
        assert np.abs(u @ z - z * lam).max() <= 1e-12, kind
        angles = np.angle(lam)
        angles = np.where(angles > np.pi - linalg.CLUSTER_GAP, angles - 2 * np.pi, angles)
        assert np.all(np.diff(angles) >= 0), kind

    # the witness built from this eigenbasis still reaches zero pair uncertainty
    phases = rng.uniform(-np.pi, np.pi, d)
    phases[: min(d, 3)] = [0.0, np.pi] if d == 2 else [0.0, 2 * np.pi / 3, -2 * np.pi / 3]
    x = haar_matrix(d, rng)
    v = UnitaryOperator(haar_matrix(d, rng))
    w = UnitaryOperator(v.matrix @ (x * np.exp(1j * phases)) @ x.conj().T)
    found, tester, _ = zero_bound_witness(v, w)
    assert found
    assert pair_uncertainty(tester, v, w).value <= 1e-12


def test_operator_norm():
    assert linalg.operator_norm(SY) == pytest.approx(1.0, abs=1e-12)
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert linalg.operator_norm(proj) == pytest.approx(1.0, abs=1e-12)
    assert linalg.operator_norm(np.diag([3, 4j])) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        qu, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        qv, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert linalg.operator_norm(qu @ a @ qv) == pytest.approx(
            linalg.operator_norm(a), abs=1e-9
        )


def test_psd_sqrt_basic():
    assert np.allclose(linalg.psd_sqrt(I2), I2)
    proj = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert np.allclose(linalg.psd_sqrt(proj), proj, atol=1e-12)
    assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_random_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = b @ b.conj().T
        root = linalg.psd_sqrt(m)
        assert np.abs(root @ root - m).max() < 1e-9 * max(1.0, np.abs(m).max())
        assert linalg.is_hermitian(root, 1e-10)


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match="expected a matrix"):  # one matrix a call
        linalg.psd_sqrt(np.stack([I2, I2]))


def _clusters(lam: np.ndarray, gap: float = 1e-6) -> list[np.ndarray]:
    """Indices of the runs of sorted eigenvalues whose angles lie within ``gap`` of the next."""
    angles = np.angle(lam)
    angles = np.where(angles > np.pi - linalg.CLUSTER_GAP, angles - 2 * np.pi, angles)
    return np.split(np.arange(lam.size), np.flatnonzero(np.diff(angles) > gap) + 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 32])
def test_eig_unitary_stack_matches_one_matrix_at_a_time(d):
    # Haar, degenerate, clustered and branch-cut spectra in one stack, each matrix with its
    # own tolerance: every eigenvalue and every cluster projector is that of its own call
    rng = np.random.default_rng(200 + d)
    spectra = list(_hard_spectra(d, rng).values())
    stack = np.stack([(x * np.exp(1j * p)) @ x.conj().T
                      for x, p in zip((haar_matrix(d, rng) for _ in spectra), spectra)])
    tols = np.linspace(1e-9, 2e-9, len(stack))
    lam, z = linalg.eig_unitary(stack, tols)
    assert lam.shape == (len(stack), d) and z.shape == stack.shape
    for k, u in enumerate(stack):
        lam_k, z_k = linalg.eig_unitary(u, tols[k])
        assert np.abs(lam[k] - lam_k).max() <= 1e-12
        clusters = _clusters(lam_k)
        assert [list(c) for c in _clusters(lam[k])] == [list(c) for c in clusters]
        for cluster in clusters:
            own = z_k[:, cluster] @ z_k[:, cluster].conj().T
            stacked = z[k][:, cluster] @ z[k][:, cluster].conj().T
            assert np.abs(stacked - own).max() <= 1e-12


def test_eig_unitary_stack_names_the_matrix_that_fails(monkeypatch):
    rng = np.random.default_rng(9)
    stack = np.stack([haar_matrix(4, rng) for _ in range(5)])
    bad = stack.copy()
    bad[3] *= 1 + 1e-6  # off unitarity by 2e-6: refused at 1e-9, accepted at its own 1e-5
    with pytest.raises(ValueError, match=r"not unitary within tol=1e-09 \(matrix 3 of the stack\)"):
        linalg.eig_unitary(bad)
    linalg.eig_unitary(bad, [1e-9, 1e-9, 1e-9, 1e-5, 1e-9])
    # eigenvectors of matrix 2 mixed by a rotation: its residual fails, and it alone is named
    eigh = np.linalg.eigh

    def mixed(h):
        w, z = eigh(h)
        c, s = np.cos(1e-3), np.sin(1e-3)
        z[2, :, :2] = z[2, :, :2] @ np.array([[c, -s], [s, c]])
        return w, z

    monkeypatch.setattr(np.linalg, "eigh", mixed)
    with pytest.raises(linalg.ConvergenceError, match=r"residual .* \(matrix 2 of the stack\)"):
        linalg.eig_unitary(stack)


def _off_unitary(dev: float) -> np.ndarray:
    """diag(sqrt(1 + dev), 1), whose U†U - I is dev in one entry."""
    return np.diag([np.sqrt(1 + dev), 1.0]).astype(complex)


def _off_mes(dev: float) -> np.ndarray:
    """The qubit Bell states with R_0 = I/sqrt(2) and R_1 = Z/sqrt(2) turned into each other.

    Orthonormality holds; 2 R_i† R_i - I is +-dev Z for the two turned states.
    """
    r = np.array(bell_elements(2))
    c, s = np.cos(np.arcsin(dev) / 2), np.sin(np.arcsin(dev) / 2)
    r[0], r[1] = c * r[0] + s * r[1], c * r[1] - s * r[0]
    return r


# validator of a matrix off its invariant by dev, its tolerance, and the keyword it refuses with
TOLERANCE_EDGES = {
    "unitary-operator": (lambda dev: UnitaryOperator(_off_unitary(dev)),
                         linalg.DEFAULT_TOL, "not unitary"),
    "eig-unitary-stack": (lambda dev: linalg.eig_unitary(np.stack([I2, _off_unitary(dev)]),
                                                         [linalg.DEFAULT_TOL, 1e-7]),
                          1e-7, "not unitary"),
    "mes-measurement": (lambda dev: MesMeasurement(_off_mes(dev)),
                        MES_RESHAPE_TOL, "maximally entangled"),
    "density-hermitian": (lambda dev: DensityMatrix(np.array([[0.5, dev], [0, 0.5]])),
                          linalg.DEFAULT_TOL, "Hermitian"),
    "density-psd": (lambda dev: DensityMatrix(np.diag([1 + dev, -dev])),
                    linalg.DEFAULT_TOL, "eigenvalue"),
    "povm-hermitian": (lambda dev: Povm((np.array([[0.5, dev], [0, 0.5]]),
                                         np.array([[0.5, -dev], [0, 0.5]]))),
                       linalg.DEFAULT_TOL, "Hermitian"),
    "povm-psd": (lambda dev: Povm((np.diag([1 + dev, 0.5]), np.diag([-dev, 0.5]))),
                 linalg.DEFAULT_TOL, "eigenvalue"),
}


@pytest.mark.parametrize("case", TOLERANCE_EDGES)
def test_validators_keep_their_tolerance_and_refuse_nan(case):
    # just inside the tolerance passes, just past it is refused, and so is a NaN entry
    build, tol, keyword = TOLERANCE_EDGES[case]
    build((1 - 1e-3) * tol)
    with pytest.raises(ValueError, match=keyword):
        build((1 + 1e-3) * tol)
    with pytest.raises(ValueError):
        build(np.nan)


def test_owned_takes_a_read_only_c_ordered_array_as_is_and_copies_any_other():
    # whoever made an array read-only hands it over; any other is copied in C order, read-only
    a = haar_matrix(4, np.random.default_rng(0))
    a.flags.writeable = False
    assert linalg.owned(a) is a
    writable = np.array(a)
    for given, dtype in ((writable, complex), (np.asfortranarray(a), complex),
                         (np.eye(3), float), (writable.real, float)):
        kept = linalg.owned(given, dtype)
        assert not np.shares_memory(kept, given)
        assert kept.dtype == dtype and kept.flags.c_contiguous and not kept.flags.writeable
        assert np.array_equal(kept, given)
    fortran = np.asfortranarray(a)
    fortran.flags.writeable = False  # read-only, but not in C order
    kept = linalg.owned(fortran)
    assert not np.shares_memory(kept, fortran) and kept.flags.c_contiguous
    assert kept.tobytes() == a.tobytes()
