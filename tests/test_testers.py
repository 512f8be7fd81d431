import hashlib
import json
import re

import numpy as np
import pytest

from conftest import haar_matrix, random_state
from utp import testers
from utp.linalg import InvariantError
from utp.operators import UnitaryOperator, haar_random_unitary, identity, omega, pauli
from utp.testers import (
    DensityMatrix,
    MesMeasurement,
    OutcomeDistribution,
    Povm,
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_basis,
    bell_elements,
    computational_basis,
    is_trivial_measurement,
    mes_state,
    outcome_distribution,
    povm_from_projective,
    tester_from_json,
    tester_to_json,
    trivial_tester,
    weyl_operators,
)


def qubit_state(a, b):
    return PureState(np.array([a, b], dtype=complex))


# --- type invariants ---------------------------------------------------------

def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError, match="not normalized"):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_is_not_flattened_from_a_matrix():
    # a 2 x 2 array of unit Frobenius norm is not a state of dimension 4
    with pytest.raises(ValueError, match="expected a vector"):
        PureState(np.full((2, 2), 0.5))


@pytest.mark.parametrize("m", [computational_basis(3), bell_basis(3)], ids=["projective", "mes"])
def test_measurement_matrix_is_stored_read_only(m):
    assert m.matrix is m.matrix
    assert np.array_equal(m.matrix, np.column_stack([s.amplitudes for s in m.states]))
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 0.0


def test_projective_requires_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectiveMeasurement(np.column_stack([[1, 0], [np.sqrt(0.5), np.sqrt(0.5)]]))


def test_projective_requires_complete():
    with pytest.raises(ValueError, match="exactly d"):
        ProjectiveMeasurement(np.eye(3)[:, :2])  # two states of dimension 3


def test_density_matrix_invariants():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_povm_invariants():
    half = np.eye(2) / 2
    Povm((half, half))  # fine
    with pytest.raises(ValueError, match="sum to identity"):
        Povm((half, half / 2))
    with pytest.raises(ValueError, match="Hermitian"):
        Povm((np.array([[0.5, 0.5], [0.0, 0.5]]), np.array([[0.5, -0.5], [0.0, 0.5]])))
    with pytest.raises(ValueError, match="eigenvalue"):
        Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))


def test_mes_measurement_rejects_separable_basis():
    # the computational basis of C^4 is orthonormal but not entangled
    with pytest.raises(ValueError, match="maximally entangled"):
        MesMeasurement(np.eye(4).reshape(4, 2, 2))


def test_mes_measurement_owns_read_only_stacks_without_copying():
    assert bell_basis(32).elements is bell_elements(32)
    writable = weyl_operators(3) / np.sqrt(3)
    m = MesMeasurement(writable)  # copied, so writing the caller's stack changes nothing
    before = m.elements.copy()
    assert not np.shares_memory(m.elements, writable)
    assert writable.flags.writeable and not m.elements.flags.writeable
    writable[0] = 0
    assert np.array_equal(m.elements, before)
    frozen = (weyl_operators(2) / np.sqrt(2)).real  # the qubit Weyl operators are real
    frozen.flags.writeable = False  # read-only but not complex128: copied too
    assert MesMeasurement(frozen).elements.dtype == np.complex128


def test_tester_kind_consistency():
    m = computational_basis(2)
    with pytest.raises(ValueError, match="needs a DensityMatrix input"):
        Tester(qubit_state(1, 0), povm_from_projective(m))
    with pytest.raises(ValueError, match="needs a PureState input"):
        Tester(DensityMatrix(np.eye(2) / 2), m)
    with pytest.raises(ValueError, match="not a measurement"):
        Tester(qubit_state(1, 0), "projective")


def test_mes_tester_requires_canonical_input():
    m = bell_basis(2)
    rotated = PureState(m.states[3].amplitudes)
    with pytest.raises(ValueError, match="canonical"):
        Tester(rotated, m)


# --- outcome distributions ---------------------------------------------------

def test_outcomes_projective_identity():
    t = Tester.projective(qubit_state(1, 0), computational_basis(2))
    assert np.allclose(outcome_distribution(t, identity(2)).probs, [1, 0])


def test_outcomes_projective_flip():
    t = Tester.projective(qubit_state(1, 0), computational_basis(2))
    assert np.allclose(outcome_distribution(t, pauli("X")).probs, [0, 1])


def test_outcomes_projective_rotation():
    # (I - i sigma_y)/sqrt(2) |0> = (|0> + |1>)/sqrt(2), computed by hand
    t = Tester.projective(qubit_state(1, 0), computational_basis(2))
    assert np.allclose(outcome_distribution(t, omega(-1)).probs, [0.5, 0.5])


def test_outcomes_mes_contains_input():
    t = Tester.mes(bell_basis(2))
    assert np.allclose(outcome_distribution(t, identity(2)).probs, [1, 0, 0, 0])


def test_outcomes_sum_to_one_random():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        t = Tester.projective(PureState(random_state(d, rng)), m)
        u = UnitaryOperator(haar_matrix(d, rng))
        p = outcome_distribution(t, u).probs
        assert abs(p.sum() - 1) < 1e-9
        assert p.min() >= 0


def test_computed_outcomes_off_the_simplex_are_an_invariant_failure(monkeypatch):
    # a vector passed in directly is bad input; the same vector computed from a valid
    # tester is a numerical failure
    with pytest.raises(ValueError, match="sum to 1.1"):
        OutcomeDistribution(np.array([0.55, 0.55]))
    monkeypatch.setattr(ProjectiveMeasurement, "probabilities", lambda self, psi, u: [0.55, 0.55])
    t = Tester.projective(qubit_state(1, 0), computational_basis(2))
    with pytest.raises(InvariantError, match="projective tester outcome probabilities sum to 1.1"):
        outcome_distribution(t, identity(2))


def test_projective_povm_agreement():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        psi = PureState(random_state(d, rng))
        u = UnitaryOperator(haar_matrix(d, rng))
        p_proj = outcome_distribution(Tester.projective(psi, m), u).probs
        rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        t_povm = Tester.povm(rho, povm_from_projective(m))
        p_povm = outcome_distribution(t_povm, u).probs
        assert np.abs(p_proj - p_povm).max() < 1e-12


def test_mes_diagonal_overlap_law():
    # diagonal MES overlaps all equal |Tr(w v+)| / d, independent of the basis
    rng = np.random.default_rng(5)
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        a = np.kron(w.matrix @ v.matrix.conj().T, np.eye(d))
        x = bell_basis(d).matrix
        diag = np.abs(np.diag(x.conj().T @ a @ x))
        expected = abs(np.trace(w.matrix @ v.matrix.conj().T)) / d
        assert np.abs(diag - expected).max() < 1e-9
        assert diag.max() <= 1 + 1e-12


# --- mes_state / bell_basis --------------------------------------------------

def test_mes_state_d2():
    phi = mes_state(2).amplitudes
    assert np.allclose(phi, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_mes_state_reduced_is_maximally_mixed():
    for d in (2, 3):
        phi = mes_state(d).amplitudes.reshape(d, d)
        assert np.allclose(phi @ phi.conj().T, np.eye(d) / d)
        assert np.allclose(phi.conj().T @ phi, np.eye(d) / d)


def test_bell_basis_d2_states():
    basis = bell_basis(2)
    known = np.array(
        [
            [1, 0, 0, 1],  # (I x I) Phi
            [1, 0, 0, -1],  # (Z x I) Phi
            [0, 1, 1, 0],  # (X x I) Phi
            [0, 1, -1, 0],  # (XZ x I) Phi
        ],
        dtype=complex,
    ) / np.sqrt(2)
    for state, expect in zip(basis.states, known):
        assert abs(abs(np.vdot(state.amplitudes, expect)) - 1) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_operators_match_matrix_power_formula(d):
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    reference = [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b)
        for a in range(d)
        for b in range(d)
    ]
    assert np.abs(weyl_operators(d) - np.array(reference)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mes_outcomes_match_kron_formula(d):
    rng = np.random.default_rng(d)
    m = bell_basis(d)
    t = Tester.mes(m)
    for _ in range(5):
        u = UnitaryOperator(haar_matrix(d, rng))
        evolved = np.kron(u.matrix, np.eye(d)) @ mes_state(d).amplitudes
        expected = np.abs(m.matrix.conj().T @ evolved) ** 2
        assert np.abs(outcome_distribution(t, u).probs - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 16, 32])
def test_bell_basis_orthonormal_and_entangled(d):
    basis = bell_basis(d)
    x = basis.matrix
    assert np.abs(x.conj().T @ x - np.eye(d * d)).max() < 1e-12
    for n in x.T.reshape(d * d, d, d) * np.sqrt(d):  # |nu_i> = (N_i (x) I)|Phi>
        assert np.abs(n.conj().T @ n - np.eye(d)).max() < 1e-12


# --- trivial testers ---------------------------------------------------------

def test_trivial_tester_sigma_y():
    t = trivial_tester(identity(2), pauli("Y"))
    expected = [np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)]
    for state in t.measurement.states:
        overlaps = [abs(np.vdot(state.amplitudes, e)) for e in expected]
        assert max(overlaps) == pytest.approx(1.0, abs=1e-9)


def test_trivial_tester_identity_pair():
    t = trivial_tester(identity(2), identity(2))
    assert np.allclose(np.abs(t.measurement.matrix), np.eye(2))


def test_trivial_tester_sigma_z():
    # the sigma_z eigenbasis is the computational basis, up to order/phase
    t = trivial_tester(identity(2), pauli("Z"))
    magnitudes = np.abs(t.measurement.matrix)
    assert np.allclose(np.sort(magnitudes, axis=0), [[0, 0], [1, 1]], atol=1e-12)
    assert np.allclose(magnitudes @ magnitudes.T, np.eye(2), atol=1e-12)


def test_trivial_tester_at_the_validation_edge():
    # each factor passes UnitaryOperator's 1e-9 check, while w v† is off by ~2e-9
    x = UnitaryOperator((1 + 4.9e-10) * pauli("X").matrix)
    z = UnitaryOperator((1 + 4.9e-10) * pauli("Z").matrix)
    assert np.abs((z.matrix @ x.matrix.conj().T).conj().T @ z.matrix @ x.matrix.conj().T
                  - np.eye(2)).max() > 1.9e-9
    tester = trivial_tester(x, z)
    assert is_trivial_measurement(tester.measurement, x, z)
    # each operator sends the input onto one outcome, of probability 1 + 9.8e-10
    for u in (x, z):
        p = outcome_distribution(tester, u).probs
        assert sorted(p) == [0.0, 1.0]


def test_outcome_range_allows_only_the_unitarity_error_it_is_given():
    # a vector from outside keeps the 1e-12 allowance, and the message gives the excess
    with pytest.raises(ValueError, match=r"outside \[0, 1\] by 2\.000e-12"):
        OutcomeDistribution(np.array([1 + 2e-12, 0.0]))
    with pytest.raises(ValueError, match=r"outside \[0, 1\] by 3\.000e-11"):
        OutcomeDistribution(np.array([1.0 + 1e-11, -3e-11]))
    assert list(OutcomeDistribution(np.array([1 + 2e-12, 0.0]), 1e-11).probs) == [1.0, 0.0]
    with pytest.raises(ValueError, match="outside"):
        OutcomeDistribution(np.array([1 + 2e-11, 0.0]), 1e-11)
    with pytest.raises(ValueError, match="sum"):
        OutcomeDistribution(np.array([0.5 + 2e-9, 0.5 + 2e-9]), 1e-9)


def test_is_trivial_measurement_cases():
    eig_basis = trivial_tester(identity(2), pauli("Y")).measurement
    assert is_trivial_measurement(eig_basis, identity(2), pauli("Y"))
    assert not is_trivial_measurement(computational_basis(2), identity(2), pauli("Y"))
    phase_only = UnitaryOperator(np.exp(0.3j) * np.eye(2))
    assert is_trivial_measurement(eig_basis, identity(2), phase_only)
    assert is_trivial_measurement(computational_basis(2), identity(2), phase_only)


# --- serialization -----------------------------------------------------------

def test_tester_json_roundtrip_projective():
    m = ProjectiveMeasurement.from_matrix(haar_matrix(3, np.random.default_rng(0)))
    t = Tester.projective(m.states[1], m)
    again = tester_from_json(tester_to_json(t))
    assert again.kind == "projective"
    assert np.abs(again.input.amplitudes - t.input.amplitudes).max() < 1e-15
    assert np.abs(again.measurement.matrix - t.measurement.matrix).max() < 1e-15


def test_tester_json_roundtrip_mes():
    t = Tester.mes(bell_basis(2))
    again = tester_from_json(tester_to_json(t))
    assert again.kind == "mes"
    assert np.abs(again.measurement.matrix - t.measurement.matrix).max() < 1e-15


def test_tester_json_roundtrip_povm():
    rho = DensityMatrix(np.eye(2) / 2)
    t = Tester.povm(rho, povm_from_projective(computational_basis(2)))
    again = tester_from_json(tester_to_json(t))
    assert again.kind == "povm"
    assert np.abs(again.input.matrix - rho.matrix).max() < 1e-15


def test_tester_json_rejects_invariant_violation():
    t = Tester.projective(qubit_state(1, 0), computational_basis(2))
    text = tester_to_json(t).replace('"re": [1.0, 0.0]', '"re": [1.0, 1.0]', 1)
    with pytest.raises(ValueError, match="normalized|orthonormal"):
        tester_from_json(text)


def test_tester_kind_follows_measurement():
    rho = DensityMatrix(np.eye(2) / 2)
    assert Tester.projective(qubit_state(1, 0), computational_basis(2)).kind == "projective"
    assert Tester.mes(bell_basis(2)).kind == "mes"
    assert Tester.povm(rho, povm_from_projective(computational_basis(2))).kind == "povm"
    with pytest.raises(ValueError, match="needs a PureState input"):
        Tester(rho, bell_basis(2))
    with pytest.raises(AttributeError):
        Tester.mes(bell_basis(2)).kind = "povm"


def test_povm_elements_are_one_read_only_stack():
    povm = povm_from_projective(computational_basis(3))
    assert povm.elements.shape == (3, 3, 3) and len(povm.elements) == 3
    with pytest.raises(ValueError):
        povm.elements[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="share one square shape"):
        Povm((np.eye(2) / 2, np.eye(3) / 2))
    with pytest.raises(ValueError, match="at least one element"):
        Povm(())


# tester_to_json bytes for one tester of each kind; the MES one by its SHA-256
GOLDEN_PROJECTIVE_JSON = (
    '{"kind": "projective", "input": {"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}, '
    '"measurement": {"states": [{"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}, '
    '{"dim": 2, "re": [0.0, 1.0], "im": [0.0, 0.0]}]}}'
)
GOLDEN_POVM_JSON = (
    '{"kind": "povm", "input": {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], '
    '"im": [[0.0, 0.0], [0.0, 0.0]]}, "measurement": {"elements": ['
    '{"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, '
    '{"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}}'
)
GOLDEN_MES_SHA256 = "35d2ad3eff3577877d7510487c9270a5e497a0a5fb56a79032fc6df07ac823d9"


def test_tester_json_golden_bytes():
    qubit = computational_basis(2)
    assert tester_to_json(Tester.projective(qubit_state(1, 0), qubit)) == GOLDEN_PROJECTIVE_JSON
    povm = Tester.povm(DensityMatrix(np.eye(2) / 2), povm_from_projective(qubit))
    assert tester_to_json(povm) == GOLDEN_POVM_JSON
    mes = tester_to_json(Tester.mes(bell_basis(2))).encode()
    assert hashlib.sha256(mes).hexdigest() == GOLDEN_MES_SHA256


def test_tester_json_rejects_malformed():
    with pytest.raises(ValueError, match="malformed JSON"):
        tester_from_json("{")
    with pytest.raises(ValueError, match="unknown tester kind"):
        tester_from_json('{"kind": "x", "input": {}, "measurement": {}}')


@pytest.mark.parametrize(
    "measurement",
    [{}, {"states": 5}, {"states": None}, [], {"states": [{"dim": 2, "re": [1, 0]}]}],
)
def test_tester_json_rejects_malformed_measurement(measurement):
    data = json.loads(tester_to_json(Tester.projective(qubit_state(1, 0), computational_basis(2))))
    data["measurement"] = measurement
    with pytest.raises(ValueError, match="malformed"):
        tester_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"input": {}, "measurement": {}}',
        '{"kind": ["projective"], "input": {}, "measurement": {}}',
        json.dumps(
            {
                "kind": "mes",
                "input": {"dim": 4, "re": [2**-0.5, 0, 0, 2**-0.5], "im": [0, 0, 0, 0]},
                "measurement": {"local_dim": "2", "states": []},
            }
        ),
    ],
)
def test_tester_json_rejects_malformed_fields(text):
    with pytest.raises(ValueError, match="malformed|unknown tester kind"):
        tester_from_json(text)


def test_trivial_tester_random_pairs():
    rng = np.random.default_rng(77)
    for k in range(10):
        d = int(rng.integers(2, 5))
        v = haar_random_unitary(d, seed=100 + k)
        w = haar_random_unitary(d, seed=200 + k)
        t = trivial_tester(v, w)
        assert is_trivial_measurement(t.measurement, v, w)
        pv = outcome_distribution(t, v).probs
        pw = outcome_distribution(t, w).probs
        assert pv.max() > 1 - 1e-12 and pw.max() > 1 - 1e-12


def _e(d: int, k: int = 0) -> PureState:
    amps = np.zeros(d, dtype=complex)
    amps[k] = 1.0
    return PureState(amps)


@pytest.mark.parametrize("build, message", [
    (lambda: OutcomeDistribution([]), "empty distribution"),
    (lambda: OutcomeDistribution([0.5, np.nan]), "probabilities must be finite"),
    (lambda: ProjectiveMeasurement.from_literal(
        {"states": [_e(2).to_literal(), _e(3).to_literal()]}),
     "projective measurement needs exactly d states of dimension d"),
    (lambda: ProjectiveMeasurement.from_literal({"states": []}),
     "projective measurement needs exactly d states of dimension d"),
    (lambda: DensityMatrix(np.ones((2, 3))), "density matrix must be square"),
    (lambda: Povm(np.ones((2, 2, 3))), "POVM elements must share one square shape"),
    (lambda: Povm(np.ones((2, 2))), "POVM elements must share one square shape"),
    (lambda: MesMeasurement(np.ones((4, 2, 3))), "MES measurement needs a (d^2, d, d) stack, d >= 2"),
    (lambda: MesMeasurement(np.ones((1, 1, 1))), "MES measurement needs a (d^2, d, d) stack, d >= 2"),
    (lambda: MesMeasurement.from_literal({"local_dim": 2, "states": [_e(4).to_literal()] * 3}),
     "MES measurement needs d^2=4 states of dimension d^2, d >= 2"),
    (lambda: Tester.projective(_e(3), computational_basis(2)),
     "input dimension 3 != measurement dimension 2"),
    (lambda: mes_state(1), "local dimension must be >= 2"),
    (lambda: outcome_distribution(Tester.projective(_e(2), computational_basis(2)), identity(3)),
     "dimension mismatch: tester 2 vs operator 3"),
], ids=["empty", "nan", "ragged-states", "no-states", "density-shape", "povm-shape",
        "povm-ndim", "mes-shape", "mes-d1", "mes-literal-count", "input-dim", "mes-state-d1",
        "outcome-dim"])
def test_testers_refuse_malformed_input_with_its_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# --- stack constructors --------------------------------------------------------

def _one_bad(good: np.ndarray, bad, k: int = 2, n: int = 5) -> np.ndarray:
    """n copies of ``good`` with ``bad`` at index k."""
    block = np.array([good] * n, dtype=complex)
    block[k] = bad
    return block


def _spoiled(a: np.ndarray, index: tuple, value) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a[index] = value
    return a


_STATE = np.array([0.6, 0.8j, 0.0])
_BASIS = haar_matrix(3, np.random.default_rng(3))
_MES = bell_elements(2).copy()


@pytest.mark.parametrize("cls, good, bad", [
    (PureState, _STATE, 1.1 * _STATE),
    (PureState, _STATE, _spoiled(_STATE, (2,), np.nan)),
    (ProjectiveMeasurement, _BASIS, _spoiled(_BASIS, (0, 1), 0.0)),
    (ProjectiveMeasurement, _BASIS, _spoiled(_BASIS, (1, 2), np.inf)),
    (ProjectiveMeasurement, _BASIS, _BASIS @ np.diag([1, 1, 1 + 1e-6])),
    (MesMeasurement, _MES, np.eye(4).reshape(4, 2, 2)),  # orthonormal, not entangled
    (MesMeasurement, _MES, 1.01 * _MES),
    (MesMeasurement, _MES, _spoiled(_MES, (3, 1, 0), np.nan)),
], ids=["state-norm", "state-nan", "basis-orthonormal", "basis-inf", "basis-column-norm",
        "mes-entangled", "mes-orthonormal", "mes-nan"])
def test_stack_constructors_refuse_one_bad_entry_as_its_own_check_does(cls, good, bad):
    # one rule per type: the stack names the bad entry as the single constructor names it
    with pytest.raises(ValueError) as single:
        cls(bad)
    with pytest.raises(ValueError) as stacked:
        cls.stack(_one_bad(good, bad))
    assert str(stacked.value) == str(single.value)
    assert len(cls.stack(_one_bad(good, good))) == 5


def test_tester_stack_refuses_one_bad_pair_as_its_own_check_does():
    m, mes = computational_basis(2), bell_basis(2)
    other = PureState(np.array([0, 1, 0, 0], dtype=complex))
    rho = DensityMatrix(np.eye(2) / 2)
    for state, measurement in ((_e(3), m), (rho, m), (other, mes), (_e(2), "basis")):
        with pytest.raises(ValueError) as single:
            Tester(state, measurement)
        inputs, measurements = [_e(2)] * 4 + [state], [m] * 4 + [measurement]
        with pytest.raises(ValueError) as stacked:
            Tester.stack(inputs, measurements)
        assert str(stacked.value) == str(single.value)
    built = Tester.stack([mes_state(2)] * 3, [mes] * 3)
    assert [(t.input, t.measurement, t.kind) for t in built] == [(mes_state(2), mes, "mes")] * 3


def test_stack_constructors_own_read_only_slices_of_one_checked_array():
    x = np.array([_BASIS, _BASIS.conj()])
    x.flags.writeable = False  # handed over: owned as is
    built = ProjectiveMeasurement.stack(x)
    assert [np.shares_memory(m.matrix, x) for m in built] == [True, True]
    writable = np.array([_STATE, _STATE])  # not handed over: copied once, read-only
    states = PureState.stack(writable)
    assert not np.shares_memory(states[0].amplitudes, writable)
    for item, array in ((built[1], "matrix"), (states[0], "amplitudes")):
        assert not getattr(item, array).flags.writeable
    assert built[1].matrix.tobytes() == ProjectiveMeasurement(_BASIS.conj()).matrix.tobytes()
    with pytest.raises(ValueError, match="expected a vector stack, got ndim=1"):
        PureState.stack(_STATE)
    with pytest.raises(ValueError, match=re.escape("MES measurement needs a (d^2, d, d) stack")):
        MesMeasurement.stack(_MES)


def _monomial_not_entangled_32() -> np.ndarray:
    # the shift-0 elements diag(u_b), u_b the columns of a Haar unitary with no zero entry:
    # orthonormal and monomial, but the moduli of each are not flat
    r = bell_elements(32).copy()
    r[:32] = np.einsum("ij,jb->bij", np.eye(32), haar_matrix(32, np.random.default_rng(0)))
    return r


@pytest.mark.parametrize("spoil, message", [
    (lambda r: r, None),
    (lambda r: _monomial_not_entangled_32(), "MES basis element is not maximally entangled"),
    (lambda r: _spoiled(r, (40, 9, 8), np.nan), "MES basis is not orthonormal"),
    (lambda r: _spoiled(r, (5, 3, 2), 1e-6), "MES basis is not orthonormal"),
], ids=["weyl", "not-entangled", "nan", "off-support"])
def test_mes_check_of_monomial_stacks_gives_the_dense_verdict(monkeypatch, spoil, message):
    # at d = 32 a stack of monomial elements, such as the Weyl stack, is checked on its
    # nonzeros without the 1024 dense 32 x 32 products; forced dense, the verdict is the same
    r, crossover = spoil(bell_elements(32)), testers.HS_BLOCK_MIN_PRODUCT
    for dense_from in (crossover, 10**18):
        monkeypatch.setattr(testers, "HS_BLOCK_MIN_PRODUCT", dense_from)
        if message is None:
            assert MesMeasurement(r).local_dim == 32
        else:
            with pytest.raises(ValueError, match=f"^{message}"):
                MesMeasurement(r)
    monkeypatch.setattr(testers, "HS_BLOCK_MIN_PRODUCT", crossover)
    calls = []
    residual = testers.unitarity_residual
    monkeypatch.setattr(testers, "unitarity_residual", lambda *a: calls.append(1) or residual(*a))
    MesMeasurement(bell_elements(32))
    MesMeasurement(bell_elements(8))  # below the crossover: dense
    x = haar_matrix(32, np.random.default_rng(1))
    MesMeasurement(x @ bell_elements(32) @ x.conj().T)  # not monomial: dense
    assert len(calls) == 2
