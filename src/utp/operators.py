"""Named unitary operators and the Hilbert-Schmidt geometry of operator space.

Provides the standard qubit unitaries, the clock/shift pair in any
dimension, Haar-random sampling, and the predicates used throughout the
package: Hilbert-Schmidt orthogonality, mutual unbiasedness of unitary
bases, and single-shot perfect distinguishability of an operator pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex,
    eig_unitary,
    owned,
    unitarity_residual,
    validate_tol,
)

# check_hs_orthogonal seeks support blocks past this many products in its dense table:
# the Bell stacks from d = 16 on, where blocks win, and none up to d = 12, where they lose
HS_BLOCK_MIN_PRODUCT = 10**7

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """A d x d unitary matrix, validated on construction within DEFAULT_TOL per entry of U†U - I.

    ``unitarity_error`` bounds |U†U - I| by its Frobenius norm, so it may reach ~d DEFAULT_TOL.
    """

    matrix: np.ndarray
    unitarity_error: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = as_complex(owned(self.matrix), 2)
        if m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"unitary operator must be square of dimension >= 1, got {m.shape}")
        residual, dev = unitarity_residual(m)
        if not dev <= DEFAULT_TOL:
            raise ValueError(f"matrix is not unitary: |U†U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "unitarity_error", float(np.linalg.norm(residual)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_literal(self) -> dict:
        return array_to_literal(self.matrix)

    @classmethod
    def from_literal(cls, data) -> "UnitaryOperator":
        return cls(array_from_literal(data, ndim=2))


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """A set of pairwise HS-orthogonal unitaries spanning an operator subspace.

    The number of elements must be either d (a d-dimensional subspace of
    the operator space) or d**2 (the full space).
    """

    elements: tuple[UnitaryOperator, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("a unitary basis needs at least one element")
        d = elements[0].dim
        if any(e.dim != d for e in elements):
            raise ValueError("all basis elements must share one dimension")
        if len(elements) not in (d, d * d):
            raise ValueError(
                f"basis size {len(elements)} is neither d={d} nor d^2={d * d}"
            )
        object.__setattr__(self, "elements", elements)
        # |Tr(P_i† P_i)| = d holds exactly for any unitary; the diagonal is a guard.
        p = np.stack([e.matrix for e in elements])
        check_hs_orthogonal(p, d, "basis elements are not HS-orthogonal")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def subspace_dim(self) -> int:
        return len(self.elements)


def pauli(which: str) -> UnitaryOperator:
    """One of the 2x2 operators I, X, Y, Z."""
    key = which.upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli label {which!r}; expected one of I, X, Y, Z")
    return UnitaryOperator(_PAULI[key])


def identity(d: int = 2) -> UnitaryOperator:
    return UnitaryOperator(np.eye(d, dtype=complex))


def omega(sign: int = -1) -> UnitaryOperator:
    """The qubit rotation (I + sign * i * sigma_y) / sqrt(2), sign in {-1, +1}."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    return UnitaryOperator((_PAULI["I"] + sign * 1j * _PAULI["Y"]) / math.sqrt(2))


def clock_shift_pair(d: int) -> tuple[UnitaryOperator, UnitaryOperator]:
    """The commuting-up-to-a-phase pair P (clock) and Q (shift) in dimension d.

    With j, k running over -floor(d/2), ..., floor((d-1)/2):

        P = sum_j exp(i 2 pi j / d) |a_j><a_j|
        Q = sum_k exp(-i 2 pi k / d) |b_k><b_k|,
        |b_k> = (1/sqrt(d)) sum_j exp(i 2 pi j k / d) |a_j>

    where {|a_j>} is the computational basis in ascending index order.
    They satisfy P Q = Q P exp(2 i pi / d) and Tr(P Q†) = 0.
    """
    if d < 2:
        raise ValueError("clock/shift pair needs dimension >= 2")
    js = _centred_indices(d)
    clock = np.diag(np.exp(2j * np.pi * js / d))
    fourier = dft_matrix(d)  # columns |b_k>
    shift = (fourier * np.exp(-2j * np.pi * js / d)[None, :]) @ fourier.conj().T
    return UnitaryOperator(clock), UnitaryOperator(shift)


def _centred_indices(d: int) -> np.ndarray:
    """-floor(d/2), ..., floor((d-1)/2)."""
    return np.arange(-(d // 2), (d - 1) // 2 + 1)


def dft_matrix(d: int) -> np.ndarray:
    """The centred discrete Fourier transform exp(i 2 pi j k / d) / sqrt(d), j, k centred.

    It differs from the uncentred DFT only by diagonal phases on its rows and
    columns, so both map an eigenbasis to a basis with the same overlap moduli.
    """
    js = _centred_indices(d)
    return np.exp(2j * np.pi * np.outer(js, js) / d) / math.sqrt(d)


def weyl_operators(d: int) -> np.ndarray:
    """The d^2 Weyl operators X^a Z^b, a-major, as a (d^2, d, d) stack.

    X is the cyclic shift |j> -> |j+1 mod d> and Z = diag(exp(2 pi i j / d)),
    so (X^a Z^b)[i, j] = exp(2 pi i b j / d) when i = j + a mod d, else 0.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    k = np.arange(d)
    phases = np.exp(2j * np.pi * (np.outer(k, k) % d) / d)  # [b, j]
    ops = np.zeros((d, d, d, d), dtype=complex)  # [a, b, i, j]
    ops[k[:, None], :, (k[:, None] + k) % d, k] = phases.T
    return ops.reshape(d * d, d, d)


def hs_inner(a: UnitaryOperator, b: UnitaryOperator) -> complex:
    """Hilbert-Schmidt inner product Tr(a† b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.trace(a.matrix.conj().T @ b.matrix))


def hs_moduli(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|Tr(P_i† Q_j)| between two stacks of operators (or |<p_i|q_j>| of two 2-D vector tables).

    Stacks of operator stacks, (..., n, d, d), give one table per stack entry.
    """
    if p.ndim > 2:  # operators, vec'd row-major: Tr(P† Q) = <vec P|vec Q>
        p, q = p.reshape(*p.shape[:-2], -1), q.reshape(*q.shape[:-2], -1)
    return np.abs(p.conj() @ q.swapaxes(-1, -2))


def check_hs_orthogonal(p: np.ndarray, norm: float, what: str) -> float:
    """Refuse ``p`` unless |Tr(P_i† P_j)| = norm·δ_ij within DEFAULT_TOL; returns the deviation.

    ``p`` holds n operators, (n, r, c), or a stack of such, (k, n, r, c), each checked on its
    own and the first that fails named; a vector is a 1 x c operator.  Past
    HS_BLOCK_MIN_PRODUCT products (n^2 m for n operators of m entries), the operators of
    one are grouped into support blocks by nonzero pattern, NaN and Inf counting as nonzero.
    If no two patterns share a column, as with the Weyl operators, every product across
    blocks is an exact zero, and one product per block over its own columns suffices.
    """
    n = p.shape[-3]
    dense = p.ndim > 3 or n * p.size <= HS_BLOCK_MIN_PRODUCT
    blocks = None if dense else _support_blocks(p.reshape(n, -1))
    if blocks is None:
        dev = np.abs(hs_moduli(p, p) - norm * np.eye(n)).max(axis=(-2, -1))
    else:  # np.max, not max(): a NaN block deviation must refuse the stack, not be skipped
        dev = np.max([np.abs(hs_moduli(b, b) - norm * np.eye(len(b))).max() for b in blocks])
    bad = ~(dev <= DEFAULT_TOL)
    if bad.any():  # np.extract takes the 0-d deviation of one set of operators too
        dev = np.extract(bad, dev)[0]
        raise ValueError(f"{what}: |Tr(P_i† P_j)| is {dev:.3e} off {norm:g}·δ_ij")
    return float(dev.max())


def _support_blocks(a: np.ndarray) -> list[np.ndarray] | None:
    """Rows of ``a`` grouped by nonzero pattern, on its columns; None if all nonzero or overlapping."""
    support = a != 0
    groups: dict[bytes, list[int]] = {}
    for i, key in enumerate(np.packbits(support, axis=1)):  # np.unique(axis=0) is far slower
        groups.setdefault(key.tobytes(), []).append(i)
    masks = support[[rows[0] for rows in groups.values()]]
    if support.all() or (masks.sum(axis=0) > 1).any():
        return None
    return [a[np.ix_(rows, np.flatnonzero(mask))] for rows, mask in zip(groups.values(), masks)]


def hs_table(b1: UnitaryBasis, b2: UnitaryBasis) -> np.ndarray:
    """|Tr(P_i† Q_j)| for P_i in ``b1`` and Q_j in ``b2``, two bases of one shape."""
    if b1.dim != b2.dim or b1.subspace_dim != b2.subspace_dim:
        raise ValueError("bases must share dimension and subspace dimension")
    p, q = (np.stack([e.matrix for e in b.elements]) for b in (b1, b2))
    return hs_moduli(p, q)


def muub_verdict(moduli: np.ndarray, d: int, tol: float) -> tuple[bool, float, float, float, float]:
    """The MUUB rule on the table |Tr(P_i† Q_j)| of two n-element bases in dimension d.

    Returns (flag, kappa, spread, expected, offset): kappa is the mean of |Tr(P_i† Q_j)|²,
    spread its largest distance from kappa, and offset |kappa - expected|, for the d²/n
    that completeness forces.  The flag is true when spread and offset are within ``tol``.
    """
    overlaps = moduli**2
    kappa = float(overlaps.mean())
    spread = float(np.abs(overlaps - kappa).max())
    expected = d * d / len(moduli)
    offset = abs(kappa - expected)
    return spread <= tol and offset <= tol, kappa, spread, expected, offset


def is_muub(b1: UnitaryBasis, b2: UnitaryBasis, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """(flag, kappa) of ``muub_verdict``: whether two unitary bases are mutually unbiased.

    Symmetric in its arguments since |Tr(P†Q)| = |Tr(Q†P)|.  A tol of d²/n or more is
    refused: kappa = 0, bases as far from MUUB as can be, would pass it.
    """
    validate_tol(tol, b1.dim ** 2 / b1.subspace_dim)
    return muub_verdict(hs_table(b1, b2), b1.dim, tol)[:2]


def haar_random_unitary(d: int, seed: int) -> UnitaryOperator:
    """Haar-random unitary via QR of a complex Gaussian, deterministic per seed."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return UnitaryOperator(haar_matrix(d, np.random.default_rng(seed)))


def haar_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary matrix: QR of a complex Gaussian drawn from ``rng``."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()[None, :]


def _chord_weight(x: complex, y: complex) -> float:
    """The t in [0, 1] for which x + t (y - x) is the point of the chord [x, y] nearest 0."""
    xy = y - x
    denom = abs(xy) ** 2
    return 0.0 if denom < 1e-30 else float(np.clip(-(x * xy.conjugate()).real / denom, 0.0, 1.0))


def _hull_nearest_origin(points: np.ndarray) -> tuple[float, tuple[int, ...], np.ndarray]:
    """Distance from 0 to the convex hull of points on the unit circle, and a witness.

    Returns (distance, indices, weights): the hull point sum_i weights[i] *
    points[indices[i]] mixes at most three points and is the nearest to 0.
    Uses the circular-gap criterion: the origin lies outside the hull iff
    some angular gap between consecutive points exceeds pi, and then the
    nearest hull point lies on the chord closing the widest gap.  Inside, with
    a the first point by angle, c the first at least pi further round and b
    the point before c, no gap of the triangle abc exceeds pi, so it holds 0
    with weights proportional to the opposite edges' Im(conj(x) y).  Those
    weights lose accuracy as the triangle flattens, so its three chords are
    tried too, and the mixture nearest 0 is returned with distance 0.0.
    """
    order = np.argsort(np.angle(points))
    angles = np.angle(points[order])
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    if gaps[k] > np.pi:
        # endpoints adjacent to the widest gap close the arc holding all points
        i, j = int(order[k]), int(order[(k + 1) % order.size])
        a, b = points[i], points[j]
        t = _chord_weight(a, b)
        return float(abs(a + t * (b - a))), (i, j), np.array([1 - t, t])
    # no gap exceeds pi, so c exists; min() only guards against rounding
    c = min(int(np.searchsorted(angles, angles[0] + np.pi)), order.size - 1)
    trio = order[[0, c - 1, c]]
    x = points[trio]
    areas = np.clip((x[[1, 2, 0]].conj() * x[[2, 0, 1]]).imag, 0.0, None)
    mixtures = [(trio, areas / areas.sum())] if areas.sum() > 0 else []
    for p, q in ((0, 1), (1, 2), (2, 0)):
        t = _chord_weight(x[p], x[q])
        mixtures.append((trio[[p, q]], np.array([1 - t, t])))
    indices, weights = min(mixtures, key=lambda m: abs(m[1] @ points[m[0]]))
    return 0.0, tuple(int(i) for i in indices), weights


def pair_operator(
    dim: int, v: UnitaryOperator, w: UnitaryOperator, adjoint: bool = False
) -> np.ndarray:
    """The pair operator w v† that every bound reads (v w† with ``adjoint``), once v and w
    are both ``dim``-dimensional; a mismatch names v's dimension first either way."""
    if v.dim != dim or w.dim != dim:
        raise ValueError(f"dimension mismatch: operators {v.dim} and {w.dim}, measurement {dim}")
    left, right = (v, w) if adjoint else (w, v)
    return left.matrix @ right.matrix.conj().T


def product_unitarity_tol(
    v: UnitaryOperator, w: UnitaryOperator, tol: float = DEFAULT_TOL
) -> float:
    """The tolerance within which to check that v†w or w v† is unitary.

    With factors unitary within DEFAULT_TOL, either product is unitary only within
    e_v + e_w + e_v e_w, e = ``UnitaryOperator.unitarity_error``; this allows that
    on top of max(tol, DEFAULT_TOL) for rounding.
    """
    ev, ew = v.unitarity_error, w.unitarity_error
    return max(tol, DEFAULT_TOL) + ev + ew + ev * ew


def _adjoint_product_hull(
    v: UnitaryOperator, w: UnitaryOperator, tol: float
) -> tuple[float, tuple[int, ...], np.ndarray, np.ndarray]:
    """``_hull_nearest_origin`` of the eigenvalues of v†w, and their eigenvectors.

    A tol of 1 or more is refused: every point on the unit circle lies within 1 of 0.
    """
    validate_tol(tol, 1.0)
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    lam, z = eig_unitary(v.matrix.conj().T @ w.matrix, product_unitarity_tol(v, w, tol))
    return *_hull_nearest_origin(lam), z


def is_perfectly_distinguishable(
    v: UnitaryOperator, w: UnitaryOperator, tol: float = DEFAULT_TOL
) -> bool:
    """Single-shot distinguishability of a unitary pair.

    True iff there is an input state sending v and w to orthogonal
    outputs, i.e. iff 0 lies in the numerical range of v†w.  Since v†w
    is unitary (hence normal) its numerical range is the convex hull of
    its eigenvalues, so this reduces to an exact 2-D hull membership test
    with distance tolerance ``tol``.
    """
    return _adjoint_product_hull(v, w, tol)[0] <= tol


def literal_field(data, key: str, what: str, kind: type = object):
    """Field ``key`` of a JSON literal describing ``what``, checked to be a ``kind``.

    Raises ValueError naming the literal when ``data`` is not an object,
    lacks the field, or holds a value of another type there.
    """
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"malformed {what} literal: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ValueError(f"malformed {what} literal: field {key!r} is not a {kind.__name__}")
    return value


def array_to_literal(a: np.ndarray) -> dict:
    """JSON-friendly literal {"dim": d, "re": [..], "im": [..]} of a vector or square matrix."""
    a = np.asarray(a, dtype=complex)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def array_from_literal(data, ndim: int) -> np.ndarray:
    """Vector (``ndim`` 1) or d x d matrix (``ndim`` 2) from its literal: the one-item call of
    ``arrays_from_literals``."""
    return arrays_from_literals([data], ndim)[0]


def arrays_from_literals(items: list, ndim: int, ragged: str = "", rows=None) -> np.ndarray:
    """The vectors (``ndim`` 1) or d x d matrices (``ndim`` 2) of a list of literals, read as
    one (n, d) or (n, d, d) array and mapped by ``rows`` (a check of the stack) when given.

    Each ``dim`` is an integer >= 1, and each ``re`` and ``im`` has its literal's shape, (d,)
    or (d, d), and finite entries: nothing is cast, broadcast or flattened.  An empty list
    gives an empty array.  When the stack cannot be read, each item is read, and ``rows``
    applied, alone and in order, so the first bad item names the fault as it would alone; a
    list whose items all pass alone has unequal ``dim``, and ``ragged`` is raised.
    """
    what = "vector" if ndim == 1 else "matrix"
    if not items:
        return np.zeros((0,) * (ndim + 1), dtype=complex)
    try:
        dims = []
        for data in items:
            d = literal_field(data, "dim", what)
            literal_field(data, "re", what), literal_field(data, "im", what)
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"malformed {what} literal: dim must be an integer, got {d!r}")
            if d < 1:
                raise ValueError(f"malformed {what} literal: dim must be >= 1, got {d}")
            dims.append(d)
        if len(set(dims)) > 1:
            raise ValueError(ragged)
        shape = (dims[0],) * ndim
        try:  # one item converts alone, so that numpy's message reads as for it alone
            re, im = (np.array(data[key], dtype=float)[None] if len(items) == 1 else
                      np.array([data[key] for data in items], dtype=float) for key in ("re", "im"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed {what} literal: {exc}") from exc
        if re.shape[1:] != shape or im.shape[1:] != shape:
            raise ValueError(f"malformed {what} literal: re and im must both have shape {shape}")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):  # NaN, Infinity, or 1e400
            raise ValueError(f"malformed {what} literal: entries must be finite")
        a = re + 1j * im
        return a if rows is None else rows(a)
    except ValueError:
        if len(items) == 1:
            raise
    for data in items:
        arrays_from_literals([data], ndim, rows=rows)
    raise ValueError(ragged)
