"""Testers: an input state paired with a measurement, and their statistics.

A tester probes an unknown unitary by sending a known state through it
and measuring the output.  The measurement's type is the tester's flavor
(its ``kind``), and it holds the outcome formula (``probabilities``):

* ``projective`` -- pure input state, orthonormal projective basis;
* ``mes`` -- canonical maximally entangled input on H_d (x) H_d, measured
  in a basis of maximally entangled states (any other MES input is
  equivalent to the canonical one after absorbing its defining unitary
  into the measurement);
* ``povm`` -- density-matrix input, POVM measurement.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex,
    check_hermitian_psd,
    computed,
    eig_unitary,
    owned,
    unitarity_residual,
)
from .operators import (
    HS_BLOCK_MIN_PRODUCT,
    UnitaryOperator,
    array_from_literal,
    array_to_literal,
    arrays_from_literals,
    check_hs_orthogonal,
    hs_moduli,
    literal_field,
    pair_operator,
    product_unitarity_tol,
    weyl_operators,
)

POVM_SUM_TOL = 1e-8  # element sums accumulate error over d^2 terms
MES_RESHAPE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability vector over measurement outcomes.

    Entries may carry numerical noise of at most 1e-12 + ``slack`` outside [0, 1];
    they are clamped on construction.  The total must be 1 within 1e-9 + ``slack``,
    where ``slack`` (0 unless given) is the error a computed vector may carry.
    """

    probs: np.ndarray
    slack: InitVar[float] = 0.0

    def __post_init__(self, slack: float) -> None:
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("empty distribution")
        p = checked_probabilities(p, slack)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


def checked_probabilities(p: np.ndarray, slack=0.0) -> np.ndarray:
    """``p`` clipped to [0, 1] once each row (its last axis) passes ``OutcomeDistribution``'s
    checks; ``slack`` is one number, or one per row."""
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    excess = np.maximum(-p.min(axis=-1), p.max(axis=-1) - 1.0)
    bad = excess > 1e-12 + slack
    if bad.any():  # np.extract takes the 0-d results of a single row too
        raise ValueError(f"probabilities outside [0, 1] by {np.extract(bad, excess)[0]:.3e}")
    total = p.sum(axis=-1)
    bad = abs(total - 1.0) > 1e-9 + slack
    if bad.any():
        raise ValueError(f"probabilities sum to {np.extract(bad, total)[0]:.12g}, not 1")
    return np.minimum(np.maximum(p, 0.0), 1.0)  # np.clip's values, at half its cost


def in_basis(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X† a X: the operator a in the basis of X's columns; x and a may be stacks."""
    return x.conj().swapaxes(-1, -2) @ a @ x


def _column_moduli(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|<c_i|y>|^2 for the columns c_i of c; or for each of a stack of c and of y."""
    return np.abs(c.conj().swapaxes(-1, -2) @ y[..., None])[..., 0] ** 2


def projective_overlaps(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|<chi_i| a |chi_j>|^2 for the columns chi_i of x; x and a may be stacks."""
    return np.abs(in_basis(x, a)) ** 2


def projective_probabilities(x: np.ndarray, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """p_i = |<chi_i| U |psi>|^2 for the columns chi_i of x; x, u and psi may be stacks."""
    return _column_moduli(x, (u @ psi[..., None])[..., 0])


def mes_overlaps(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|Tr(R_i† a R_j)|^2 for the states R_i of an MES stack r; r and a may be stacks of them."""
    return hs_moduli(r, a[..., None, :, :] @ r) ** 2


def mes_columns(r: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 matrix whose columns are the vec'd states R_i of r; or one per stack entry."""
    return np.ascontiguousarray(r.reshape(*r.shape[:-2], -1).swapaxes(-1, -2))


def mes_probabilities(columns: np.ndarray, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """p_i = |<nu_i| (U (x) I) |Phi>|^2 for the columns nu_i of ``columns``; any may be stacks.

    (U (x) I)|Phi> is the row-major vec of U Phi, Phi the d x d reshape of |Phi>.
    """
    d = u.shape[-1]
    evolved = u @ phi.reshape(*phi.shape[:-1], d, d)
    return _column_moduli(columns, evolved.reshape(*evolved.shape[:-2], d * d))


def eigen_residuals(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|a chi_j - <chi_j|a|chi_j> chi_j| for the columns chi_j of x; x and a may be stacks."""
    images = a @ x
    return np.linalg.norm(images - (x.conj() * images).sum(axis=-2, keepdims=True) * x, axis=-2)


def row_inputs(x: np.ndarray, v: np.ndarray, k: int = 0) -> np.ndarray:
    """v†|chi_k> for column chi_k of x, which v sends onto outcome k; x and v may be stacks."""
    return (v.conj().swapaxes(-1, -2) @ x[..., k:k + 1])[..., 0]


def _built(cls, **fields) -> list:
    """One ``cls`` per row of the fields, checked as a stack: no ``__post_init__`` runs."""
    first, *_ = fields.values()
    items = [object.__new__(cls) for _ in range(len(first))]
    for name, values in fields.items():
        for item, value in zip(items, values, strict=True):
            item.__dict__[name] = value
    return items


def _check_states(a: np.ndarray, stacked: bool) -> np.ndarray:
    """``PureState``'s rule on a state, or on each row of a stack: finite, of unit norm."""
    a = as_complex(a, 1, stacked)
    off = np.abs(np.linalg.norm(a, axis=-1) - 1.0)
    bad = off > DEFAULT_TOL
    if bad.any():  # np.extract takes the 0-d result of one state too
        raise ValueError(f"state is not normalized: |norm - 1| = {np.extract(bad, off)[0]:.3e}")
    return a


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a literal stack, checked by ``PureState``'s rule, each then divided in place
    by its norm; the constructor each is handed to checks them again.

    A literal may be off unit norm by up to DEFAULT_TOL; left so, its outcome probabilities
    could leave [0, 1] by more than ``OutcomeDistribution`` allows.  Each row takes its own
    ``np.linalg.norm``: the norms along axis 1 differ from it in the last bit.
    """
    for row in _check_states(a, True):
        row /= np.linalg.norm(row)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector, read-only, owned as ``owned`` takes it."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _check_states(owned(self.amplitudes), False))

    @classmethod
    def stack(cls, a) -> list["PureState"]:
        """The states of the rows of ``a``, checked as one stack; each owns its row as is."""
        return _built(cls, amplitudes=_check_states(owned(a), True))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def weight(self) -> float:
        """<psi|psi>, which validation leaves 1 only within about 2 DEFAULT_TOL."""
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def to_literal(self) -> dict:
        return array_to_literal(self.amplitudes)

    @classmethod
    def from_literal(cls, data) -> "PureState":
        """The literal's state, divided by its norm once it passes the norm check."""
        return cls(arrays_from_literals([data], 1, rows=_unit_rows)[0])


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete orthonormal basis of rank-1 projectors."""

    kind: ClassVar[str] = "projective"
    input_type: ClassVar[type] = PureState
    matrix: np.ndarray  # read-only, owned as ``owned`` takes it; columns are the states

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _check_projective(owned(self.matrix), False))

    @classmethod
    def stack(cls, x) -> list["ProjectiveMeasurement"]:
        """The bases of the matrices of ``x``, checked as one stack; each owns its matrix as is."""
        return _built(cls, matrix=_check_projective(owned(x), True))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def states(self) -> tuple[PureState, ...]:
        return tuple(PureState(s) for s in self.matrix.T)

    def overlaps(self, a: np.ndarray) -> np.ndarray:
        """|<chi_i| a |chi_j>|^2 for the basis states chi_i."""
        return projective_overlaps(self.matrix, a)

    def probabilities(self, psi: PureState, u: UnitaryOperator) -> np.ndarray:
        """p_i = |<chi_i| U |psi>|^2."""
        return projective_probabilities(self.matrix, u.matrix, psi.amplitudes)

    @classmethod
    def from_matrix(cls, x) -> "ProjectiveMeasurement":
        return cls(x)

    def to_literal(self) -> dict:
        return {"states": [s.to_literal() for s in self.states]}

    @classmethod
    def from_literal(cls, data) -> "ProjectiveMeasurement":
        """The basis of the literal's states, read as one stack and normalised as
        ``PureState.from_literal`` normalises one."""
        message = "projective measurement needs exactly d states of dimension d"
        states = literal_field(data, "states", "projective measurement", list)
        a = arrays_from_literals(states, 1, message, _unit_rows)
        if not a.size or a.shape[0] != a.shape[1]:
            raise ValueError(message)
        return cls(a.T)


def _check_projective(x: np.ndarray, stacked: bool) -> np.ndarray:
    """``ProjectiveMeasurement``'s rule on a matrix, or each of a stack: d orthonormal columns."""
    x = as_complex(x, 2, stacked)
    if not x.size or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"projective measurement needs exactly d={x.shape[-2]} states of dimension d")
    states = x.swapaxes(-1, -2)[..., None, :]  # each a 1 x d operator
    check_hs_orthogonal(states, 1.0, "measurement basis is not orthonormal")
    return x


def computational_basis(d: int) -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_matrix(np.eye(d, dtype=complex))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD operator of unit trace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex(owned(self.matrix), 2)
        if m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        check_hermitian_psd(m, "density matrix")
        if abs(np.trace(m).real - 1.0) > DEFAULT_TOL or abs(np.trace(m).imag) > DEFAULT_TOL:
            raise ValueError(f"density matrix trace {np.trace(m):.6g} != 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def weight(self) -> float:
        """Tr rho, which validation leaves 1 only within DEFAULT_TOL."""
        return float(np.trace(self.matrix).real)

    def to_literal(self) -> dict:
        return array_to_literal(self.matrix)

    @classmethod
    def from_literal(cls, data) -> "DensityMatrix":
        return cls(array_from_literal(data, ndim=2))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: Hermitian PSD elements summing to I.

    ``elements`` is one read-only (n, d, d) array.
    """

    kind: ClassVar[str] = "povm"
    input_type: ClassVar[type] = DensityMatrix
    elements: np.ndarray

    def __post_init__(self) -> None:
        try:
            e = owned(self.elements)
        except ValueError as exc:  # ragged element shapes
            raise ValueError("POVM elements must share one square shape") from exc
        if not e.size:
            raise ValueError("POVM needs at least one element")
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError("POVM elements must share one square shape")
        check_hermitian_psd(e, "POVM element")  # refuses NaN and Inf too
        dev = np.abs(e.sum(axis=0) - np.eye(e.shape[1])).max()
        if dev > POVM_SUM_TOL:
            raise ValueError(f"POVM elements do not sum to identity: deviation {dev:.3e}")
        object.__setattr__(self, "elements", e)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def probabilities(self, rho: DensityMatrix, u: UnitaryOperator) -> np.ndarray:
        """p_k = Tr(M_k U rho U†)."""
        rotated = u.matrix @ rho.matrix @ u.matrix.conj().T
        return np.trace(self.elements @ rotated, axis1=1, axis2=2).real

    def to_literal(self) -> dict:
        return {"elements": [array_to_literal(e) for e in self.elements]}

    @classmethod
    def from_literal(cls, data) -> "Povm":
        elements = literal_field(data, "elements", "POVM", list)
        return cls(arrays_from_literals(elements, 2, "POVM elements must share one square shape"))


def povm_from_projective(m: ProjectiveMeasurement) -> Povm:
    """Rank-1 POVM with elements |chi_i><chi_i|."""
    x = m.matrix.T
    return Povm(x[:, :, None] * x.conj()[:, None, :])


@dataclass(frozen=True, eq=False)
class MesMeasurement:
    """Orthonormal basis of d^2 maximally entangled bipartite states.

    ``elements`` is one read-only (d^2, d, d) array, owned as ``owned`` takes it: R_i, the
    row-major reshape of the basis state |nu_i> = sqrt(d) (R_i (x) I) |Phi>.  Each sqrt(d) R_i
    must be unitary.
    """

    kind: ClassVar[str] = "mes"
    input_type: ClassVar[type] = PureState
    elements: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", _check_mes(owned(self.elements), False))

    @classmethod
    def stack(cls, r) -> list["MesMeasurement"]:
        """The bases of the (d^2, d, d) entries of ``r``, checked as one stack; each owns one."""
        return _built(cls, elements=_check_mes(owned(r), True))

    @property
    def local_dim(self) -> int:
        return self.elements.shape[1]

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def states(self) -> tuple[PureState, ...]:
        return tuple(PureState(s) for s in self.elements.reshape(self.dim, -1))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only d^2 x d^2 matrix whose columns are the states."""
        x = mes_columns(self.elements)
        x.flags.writeable = False
        return x

    def overlaps(self, a: np.ndarray) -> np.ndarray:
        """|<nu_i| (a (x) I) |nu_j>|^2 for the basis states nu_i; a acts on the first factor.

        With R_i the row-major reshape of |nu_i>, this is |Tr(R_i† a R_j)|^2, the HS table.
        """
        return mes_overlaps(self.elements, a)

    def probabilities(self, phi: PureState, u: UnitaryOperator) -> np.ndarray:
        """p_i = |<nu_i| (U (x) I) |Phi>|^2."""
        return mes_probabilities(self.matrix, u.matrix, phi.amplitudes)

    def to_literal(self) -> dict:
        return {"local_dim": self.local_dim, "states": [s.to_literal() for s in self.states]}

    @classmethod
    def from_literal(cls, data) -> "MesMeasurement":
        d = literal_field(data, "local_dim", "MES measurement", int)
        message = f"MES measurement needs d^2={d * d} states of dimension d^2, d >= 2"
        states = literal_field(data, "states", "MES measurement", list)
        a = arrays_from_literals(states, 1, message, _unit_rows)
        if d < 2 or a.shape != (d * d, d * d):
            raise ValueError(message)
        return cls(a.reshape(d * d, d, d))


def _check_mes(r: np.ndarray, stacked: bool) -> np.ndarray:
    """``MesMeasurement``'s rule on a (d^2, d, d) stack r, or, ``stacked``, on each of a stack.

    Past HS_BLOCK_MIN_PRODUCT products (n d^3 for the dense d R_i† R_i), R_i that are all
    monomial, one nonzero a row and a column (as the Weyl operators are), have d R_i† R_i
    diagonal, so its residual is max |d |c|^2 - 1| over the nonzeros c, each its column's sum.
    """
    d = r.shape[-1] if r.ndim == 3 + stacked else 0
    if r.shape[-3:] != (d * d, d, d) or d < 2:
        raise ValueError("MES measurement needs a (d^2, d, d) stack, d >= 2")
    check_hs_orthogonal(r, 1.0, "MES basis is not orthonormal")  # refuses NaN and Inf too
    support = r != 0 if r.size * d > HS_BLOCK_MIN_PRODUCT else None
    if support is not None and all((support.sum(axis=k) == 1).all() for k in (-2, -1)):
        c = r.sum(axis=-2)
        dev = np.abs(d * (c.real ** 2 + c.imag ** 2) - 1.0).max()
    else:
        dev = unitarity_residual(r, d)[1].max()
    if not dev <= MES_RESHAPE_TOL:  # is sqrt(d) R_i unitary?
        raise ValueError("MES basis element is not maximally entangled")
    return r


_MEASUREMENT_TYPES = (ProjectiveMeasurement, MesMeasurement, Povm)


@dataclass(frozen=True, eq=False)
class Tester:
    """A pair (input state, measurement); the measurement's type is the flavor."""

    input: PureState | DensityMatrix
    measurement: ProjectiveMeasurement | MesMeasurement | Povm

    def __post_init__(self) -> None:
        state, m = self.input, self.measurement
        if not isinstance(m, _MEASUREMENT_TYPES):
            raise ValueError(f"not a measurement: {type(m).__name__}")
        if not isinstance(state, m.input_type):
            raise ValueError(f"a {m.kind} tester needs a {m.input_type.__name__} input")
        if state.dim != m.dim:
            raise ValueError(f"input dimension {state.dim} != measurement dimension {m.dim}")
        # the cached canonical MES, which MES testers share, passes without a comparison
        phi = mes_state(m.local_dim) if isinstance(m, MesMeasurement) else state
        if phi is not state and np.abs(state.amplitudes - phi.amplitudes).max() > DEFAULT_TOL:
            raise ValueError("mes tester input must be the canonical MES")

    @property
    def kind(self) -> str:
        return self.measurement.kind

    @property
    def dim(self) -> int:
        """Dimension of the tested operator (local dimension for mes kind)."""
        if isinstance(self.measurement, MesMeasurement):
            return self.measurement.local_dim
        return self.input.dim

    @classmethod
    def projective(cls, state: PureState, m: ProjectiveMeasurement) -> "Tester":
        return cls(state, m)

    @classmethod
    def mes(cls, m: MesMeasurement) -> "Tester":
        return cls(mes_state(m.local_dim), m)

    @classmethod
    def povm(cls, rho: DensityMatrix, m: Povm) -> "Tester":
        return cls(rho, m)


@lru_cache(maxsize=1)
def mes_state(d: int) -> PureState:
    """Canonical maximally entangled state (1/sqrt(d)) sum_i |ii>, kept for the last d: a
    ``PureState`` is immutable, and every MES tester holds and checks one."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1 / math.sqrt(d)
    return PureState(phi)


@lru_cache(maxsize=1)
def bell_elements(d: int) -> np.ndarray:
    """Read-only states R_i = N_i / sqrt(d) of ``bell_basis(d)`` (N_i Weyl), kept for the last d."""
    r = weyl_operators(d)
    r /= math.sqrt(d)  # in place: no second d^4 array
    r.flags.writeable = False
    return r


def bell_basis(d: int) -> MesMeasurement:
    """Weyl-Heisenberg MES basis {(X^a Z^b (x) I)|Phi>} for a, b in 0..d-1.

    For d = 2 these are the four Bell states.
    """
    return MesMeasurement(bell_elements(d))


def outcome_distribution(t: Tester, u: UnitaryOperator) -> OutcomeDistribution:
    """Outcome probabilities of tester ``t`` applied to the unitary ``u``.

    Each measurement type holds its formula in ``probabilities``.  Their total,
    <psi|U†U|psi> (Tr(rho U†U) for a POVM), leaves 1 by at most e w + |w - 1|, for
    e = ``u.unitarity_error`` and the input's weight w as validation left them, and
    the checks allow that.  Probabilities that fail them anyway are a numerical
    failure: ``InvariantError``, not the ``ValueError`` of a bad vector.
    """
    if t.dim != u.dim:
        raise ValueError(f"dimension mismatch: tester {t.dim} vs operator {u.dim}")
    p = t.measurement.probabilities(t.input, u)
    w = t.input.weight
    return computed(OutcomeDistribution, (p, u.unitarity_error * w + abs(w - 1.0)),
                    "%s tester outcome", t.kind)


def row_tester(m: ProjectiveMeasurement, v: UnitaryOperator, k: int = 0) -> Tester:
    """The tester of input v†|chi_k> in ``m``, which v sends onto outcome k with certainty."""
    return Tester.projective(PureState(row_inputs(m.matrix, v.matrix, k)), m)


def trivial_tester(v: UnitaryOperator, w: UnitaryOperator) -> Tester:
    """The zero-uncertainty tester whose measurement diagonalizes w v†.

    The measurement basis is an orthonormal eigenbasis of w v† and the
    input is v† applied to its first eigenvector, so both operators send
    the input onto a single measurement outcome and the pair uncertainty
    vanishes.  Useless for telling v from w, which is why such testers
    are excluded from saturation searches.
    """
    _, eigvecs = eig_unitary(pair_operator(v.dim, v, w), product_unitarity_tol(v, w))
    return row_tester(ProjectiveMeasurement.from_matrix(eigvecs), v)


def is_trivial_measurement(
    m: ProjectiveMeasurement, v: UnitaryOperator, w: UnitaryOperator
) -> bool:
    """True iff every basis vector of ``m`` is an eigenvector of w v† within DEFAULT_TOL."""
    return bool((eigen_residuals(m.matrix, pair_operator(m.dim, v, w)) < DEFAULT_TOL).all())


# --- JSON serialization ----------------------------------------------------

def tester_to_json(t: Tester) -> str:
    return json.dumps(
        {"kind": t.kind, "input": t.input.to_literal(), "measurement": t.measurement.to_literal()}
    )


def tester_from_json(text: str) -> Tester:
    """Load a tester, re-validating every invariant of its parts."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    kind = literal_field(data, "kind", "tester")
    measurement_type = next((t for t in _MEASUREMENT_TYPES if t.kind == kind), None)
    if measurement_type is None:
        raise ValueError(f"unknown tester kind {kind!r}")
    state = measurement_type.input_type.from_literal(literal_field(data, "input", "tester"))
    m = measurement_type.from_literal(literal_field(data, "measurement", "tester"))
    return Tester(state, m)
