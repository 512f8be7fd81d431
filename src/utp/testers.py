"""Testers: an input state paired with a measurement, and their statistics.

A tester probes an unknown unitary by sending a known state through it
and measuring the output.  Three flavors are supported:

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
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    as_complex_vector,
    eig_unitary,
    is_hermitian,
)
from .operators import UnitaryOperator, array_from_literal, array_to_literal, literal_field

POVM_SUM_TOL = 1e-8  # element sums accumulate error over d^2 terms
MES_RESHAPE_TOL = 1e-8


def overlap_table(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared overlaps |<x_i| a |x_j>|^2 between the columns of ``x``."""
    return np.abs(x.conj().T @ a @ x) ** 2


def mes_overlap_table(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """|Tr(R_i† a R_j)|^2 over a (n, d, d) stack ``r``, one product of vec'd operators.

    For R_i the row-major reshape of |nu_i>, this is |<nu_i| (a (x) I) |nu_j>|^2.
    """
    n = r.shape[0]
    return np.abs(r.reshape(n, -1).conj() @ (a @ r).reshape(n, -1).T) ** 2


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability vector over measurement outcomes.

    Entries may carry numerical noise of at most 1e-12 outside [0, 1];
    they are clamped on construction.  The total must be 1 within 1e-9.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size == 0:
            raise ValueError("empty distribution")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if p.min() < -1e-12 or p.max() > 1 + 1e-12:
            raise ValueError(
                f"probabilities outside [0, 1]: min {p.min():.3e}, max {p.max():.3e}"
            )
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum():.12g}, not 1")
        p = np.clip(p, 0.0, 1.0)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = as_complex_vector(self.amplitudes)
        n = np.linalg.norm(a)
        if abs(n - 1.0) > DEFAULT_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(n - 1):.3e}")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_literal(self) -> dict:
        return array_to_literal(self.amplitudes)

    @classmethod
    def from_literal(cls, data) -> "PureState":
        """The literal's state, divided by its norm once it passes the norm check.

        A literal may be off unit norm by up to DEFAULT_TOL; left so, its outcome
        probabilities could leave [0, 1] by more than ``OutcomeDistribution`` allows.
        """
        a = cls(array_from_literal(data, ndim=1)).amplitudes
        return cls(a / np.linalg.norm(a))


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete orthonormal basis of rank-1 projectors."""

    states: tuple[PureState, ...]
    matrix: np.ndarray = field(init=False, repr=False)  # read-only, columns are the states

    def __post_init__(self) -> None:
        states = tuple(self.states)
        if not states:
            raise ValueError("measurement needs at least one basis state")
        d = states[0].dim
        if len(states) != d or any(s.dim != d for s in states):
            raise ValueError(f"projective measurement needs exactly d={d} states of dimension d")
        x = np.column_stack([s.amplitudes for s in states])
        gram = x.conj().T @ x
        dev = np.abs(gram - np.eye(d)).max()
        if dev > DEFAULT_TOL:
            raise ValueError(f"measurement basis is not orthonormal: deviation {dev:.3e}")
        x.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "matrix", x)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def overlaps(self, a: np.ndarray) -> np.ndarray:
        """|<chi_i| a |chi_j>|^2 for the basis states chi_i."""
        return overlap_table(self.matrix, a)

    @classmethod
    def from_matrix(cls, x) -> "ProjectiveMeasurement":
        x = as_complex_matrix(x)
        return cls(tuple(PureState(x[:, i]) for i in range(x.shape[1])))

    def to_literal(self) -> dict:
        return {"states": [s.to_literal() for s in self.states]}

    @classmethod
    def from_literal(cls, data) -> "ProjectiveMeasurement":
        states = literal_field(data, "states", "projective measurement", list)
        return cls(tuple(PureState.from_literal(s) for s in states))


def computational_basis(d: int) -> ProjectiveMeasurement:
    return ProjectiveMeasurement.from_matrix(np.eye(d, dtype=complex))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD operator of unit trace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not is_hermitian(m, DEFAULT_TOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > DEFAULT_TOL or abs(np.trace(m).imag) > DEFAULT_TOL:
            raise ValueError(f"density matrix trace {np.trace(m):.6g} != 1")
        lo = np.linalg.eigvalsh(m).min()
        if lo < -DEFAULT_TOL:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} < 0")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        a = psi.amplitudes
        return cls(np.outer(a, a.conj()))

    def to_literal(self) -> dict:
        return array_to_literal(self.matrix)

    @classmethod
    def from_literal(cls, data) -> "DensityMatrix":
        return cls(array_from_literal(data, ndim=2))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operator-valued measure: Hermitian PSD elements summing to I."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        elements = tuple(as_complex_matrix(e) for e in self.elements)
        if not elements:
            raise ValueError("POVM needs at least one element")
        d = elements[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        frozen = []
        for e in elements:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square shape")
            if not is_hermitian(e, DEFAULT_TOL):
                raise ValueError("POVM element is not Hermitian")
            lo = np.linalg.eigvalsh(e).min()
            if lo < -DEFAULT_TOL:
                raise ValueError(f"POVM element has eigenvalue {lo:.3e} < 0")
            total += e
            e = e.copy()
            e.flags.writeable = False
            frozen.append(e)
        dev = np.abs(total - np.eye(d)).max()
        if dev > POVM_SUM_TOL:
            raise ValueError(f"POVM elements do not sum to identity: deviation {dev:.3e}")
        object.__setattr__(self, "elements", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def to_literal(self) -> dict:
        return {"elements": [array_to_literal(e) for e in self.elements]}

    @classmethod
    def from_literal(cls, data) -> "Povm":
        elements = literal_field(data, "elements", "POVM", list)
        return cls(tuple(array_from_literal(e, ndim=2) for e in elements))


def povm_from_projective(m: ProjectiveMeasurement) -> Povm:
    """Rank-1 POVM with elements |chi_i><chi_i|."""
    return Povm(tuple(np.outer(s.amplitudes, s.amplitudes.conj()) for s in m.states))


@dataclass(frozen=True, eq=False)
class MesMeasurement:
    """Orthonormal basis of d^2 maximally entangled bipartite states.

    Each basis vector, reshaped to a d x d matrix C, must satisfy that
    sqrt(d) * C is unitary.
    """

    local_dim: int
    states: tuple[PureState, ...]
    matrix: np.ndarray = field(init=False, repr=False)  # read-only, columns are the states

    def __post_init__(self) -> None:
        d = int(self.local_dim)
        states = tuple(self.states)
        if d < 2:
            raise ValueError("local dimension must be >= 2")
        if len(states) != d * d or any(s.dim != d * d for s in states):
            raise ValueError(f"MES measurement needs d^2={d * d} states of dimension d^2")
        x = np.column_stack([s.amplitudes for s in states])
        dev = np.abs(x.conj().T @ x - np.eye(d * d)).max()
        if dev > DEFAULT_TOL:
            raise ValueError(f"MES basis is not orthonormal: deviation {dev:.3e}")
        n = x.T.reshape(d * d, d, d) * math.sqrt(d)
        if np.abs(n.conj().transpose(0, 2, 1) @ n - np.eye(d)).max() > MES_RESHAPE_TOL:
            raise ValueError("MES basis element is not maximally entangled")
        x.flags.writeable = False
        object.__setattr__(self, "local_dim", d)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "matrix", x)

    @property
    def dim(self) -> int:
        return self.local_dim * self.local_dim

    def overlaps(self, a: np.ndarray) -> np.ndarray:
        """|<nu_i| (a (x) I) |nu_j>|^2 for the basis states nu_i; a acts on the first factor."""
        d = self.local_dim
        return mes_overlap_table(self.matrix.T.reshape(d * d, d, d), a)

    def unitaries(self) -> list[np.ndarray]:
        """The unitaries N_i with |nu_i> = (N_i (x) I)|Phi>."""
        d = self.local_dim
        return [s.amplitudes.reshape(d, d) * math.sqrt(d) for s in self.states]

    @classmethod
    def from_unitaries(cls, ops) -> "MesMeasurement":
        """The basis |nu_i> = (N_i (x) I)|Phi> = vec(N_i) / sqrt(d) (row-major vec)."""
        ops = [as_complex_matrix(o) for o in ops]
        d = ops[0].shape[0]
        return cls(d, tuple(PureState(o.reshape(-1) / math.sqrt(d)) for o in ops))

    def to_literal(self) -> dict:
        return {"local_dim": self.local_dim, "states": [s.to_literal() for s in self.states]}

    @classmethod
    def from_literal(cls, data) -> "MesMeasurement":
        local_dim = literal_field(data, "local_dim", "MES measurement", int)
        states = literal_field(data, "states", "MES measurement", list)
        return cls(local_dim, tuple(PureState.from_literal(s) for s in states))


# tester kind -> (input type, measurement type)
_TESTER_KINDS = {
    "projective": (PureState, ProjectiveMeasurement),
    "mes": (PureState, MesMeasurement),
    "povm": (DensityMatrix, Povm),
}


def _tester_types(kind) -> tuple[type, type]:
    if not isinstance(kind, str) or kind not in _TESTER_KINDS:
        raise ValueError(f"unknown tester kind {kind!r}")
    return _TESTER_KINDS[kind]


@dataclass(frozen=True, eq=False)
class Tester:
    """A pair (input state, measurement); kind selects the flavor."""

    kind: str
    input: PureState | DensityMatrix
    measurement: ProjectiveMeasurement | MesMeasurement | Povm

    def __post_init__(self) -> None:
        kind = self.kind
        input_type, measurement_type = _tester_types(kind)
        if not (
            isinstance(self.input, input_type) and isinstance(self.measurement, measurement_type)
        ):
            raise ValueError(f"input/measurement types do not match kind {kind!r}")
        if self.input.dim != self.measurement.dim:
            raise ValueError(
                f"input dimension {self.input.dim} != measurement dimension {self.measurement.dim}"
            )
        if kind == "mes":
            d = self.measurement.local_dim
            if np.abs(self.input.amplitudes - mes_state(d).amplitudes).max() > DEFAULT_TOL:
                raise ValueError("mes tester input must be the canonical MES")

    @property
    def dim(self) -> int:
        """Dimension of the tested operator (local dimension for mes kind)."""
        if self.kind == "mes":
            return self.measurement.local_dim
        return self.input.dim

    @classmethod
    def projective(cls, state: PureState, m: ProjectiveMeasurement) -> "Tester":
        return cls("projective", state, m)

    @classmethod
    def mes(cls, m: MesMeasurement) -> "Tester":
        return cls("mes", mes_state(m.local_dim), m)

    @classmethod
    def povm(cls, rho: DensityMatrix, m: Povm) -> "Tester":
        return cls("povm", rho, m)


def mes_state(d: int) -> PureState:
    """Canonical maximally entangled state (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1 / math.sqrt(d)
    return PureState(phi)


def weyl_operators(d: int) -> np.ndarray:
    """The d^2 Weyl operators X^a Z^b, a-major, as a (d^2, d, d) stack.

    X is the cyclic shift |j> -> |j+1 mod d> and Z = diag(exp(2 pi i j / d)),
    so (X^a Z^b)[i, j] = exp(2 pi i b j / d) when i = j + a mod d, else 0.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    k = np.arange(d)
    hits = (k[None, :, None] - k[None, None, :] - k[:, None, None]) % d == 0  # [a, i, j]
    phases = np.exp(2j * np.pi * (np.outer(k, k) % d) / d)  # [b, j]
    ops = np.where(hits[:, None, :, :], phases[None, :, None, :], 0)
    return ops.reshape(d * d, d, d)


def bell_basis(d: int) -> MesMeasurement:
    """Weyl-Heisenberg MES basis {(X^a Z^b (x) I)|Phi>} for a, b in 0..d-1.

    For d = 2 these are the four Bell states.
    """
    return MesMeasurement.from_unitaries(weyl_operators(d))


def outcome_distribution(t: Tester, u: UnitaryOperator) -> OutcomeDistribution:
    """Outcome probabilities of tester ``t`` applied to the unitary ``u``.

    projective: p_i = |<chi_i| U |psi>|^2
    mes:        p_i = |<nu_i| (U (x) I) |Phi>|^2, where (U (x) I)|Phi>
                is the row-major vec of U times the reshaped |Phi>
    povm:       p_k = Tr(M_k U rho U†)
    """
    if t.dim != u.dim:
        raise ValueError(f"dimension mismatch: tester {t.dim} vs operator {u.dim}")
    if t.kind == "projective":
        amps = t.measurement.matrix.conj().T @ (u.matrix @ t.input.amplitudes)
        p = np.abs(amps) ** 2
    elif t.kind == "mes":
        evolved = (u.matrix @ t.input.amplitudes.reshape(u.dim, u.dim)).reshape(-1)
        amps = t.measurement.matrix.conj().T @ evolved
        p = np.abs(amps) ** 2
    else:
        rotated = u.matrix @ t.input.matrix @ u.matrix.conj().T
        p = np.array([np.trace(e @ rotated).real for e in t.measurement.elements])
    return OutcomeDistribution(p)


def trivial_tester(v: UnitaryOperator, w: UnitaryOperator) -> Tester:
    """The zero-uncertainty tester whose measurement diagonalizes w v†.

    The measurement basis is an orthonormal eigenbasis of w v† and the
    input is v† applied to its first eigenvector, so both operators send
    the input onto a single measurement outcome and the pair uncertainty
    vanishes.  Useless for telling v from w, which is why such testers
    are excluded from saturation searches.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    pairs = eig_unitary(w.matrix @ v.matrix.conj().T)
    basis = ProjectiveMeasurement.from_matrix(np.column_stack([vec for _, vec in pairs]))
    psi = PureState(v.matrix.conj().T @ pairs[0][1])
    return Tester.projective(psi, basis)


def is_trivial_measurement(
    m: ProjectiveMeasurement,
    v: UnitaryOperator,
    w: UnitaryOperator,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff every basis vector of ``m`` is an eigenvector of w v† within tol."""
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    x = m.matrix
    images = w.matrix @ v.matrix.conj().T @ x
    residuals = images - (x.conj() * images).sum(axis=0) * x
    return bool((np.linalg.norm(residuals, axis=0) < tol).all())


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
    input_type, measurement_type = _tester_types(kind)
    state = input_type.from_literal(literal_field(data, "input", "tester"))
    m = measurement_type.from_literal(literal_field(data, "measurement", "tester"))
    return Tester(kind, state, m)
