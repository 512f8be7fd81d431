"""Shannon entropies, pair uncertainties, and entropic lower bounds.

The central quantity is the summed uncertainty of one tester applied to
two unitaries v and w,

    H(T|v) + H(T|w),

which for any projective measurement {|chi_i>} obeys the
measurement-only bound

    H + H >= -log max_{i,j} |<chi_i| w v† |chi_j>|^2,

together with its analogues for MES-projecting measurements and POVMs.
Entropies default to base 2 (bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import validate_base
from .operators import UnitaryOperator, pair_operator
from .testers import (
    MesMeasurement,
    OutcomeDistribution,
    Povm,
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_elements,
    outcome_distribution,
)

ZERO_PROBABILITY = 1e-15  # below this, a probability is logged as an exact zero
TIE_TOL = 1e-12  # overlaps this close to each other tie; a maximum this close to 1 is 1


@dataclass(frozen=True)
class EntropyValue:
    """An entropy together with the logarithm base it was computed in."""

    value: float
    base: float = 2.0


@dataclass(frozen=True)
class EntropicBound:
    """A lower bound on a pair uncertainty, with the overlap achieving it."""

    value: float
    base: float
    argmax: tuple[int, int]
    max_overlap: float

    @classmethod
    def from_overlaps(
        cls, overlaps: np.ndarray, base: float = 2.0, power: float = 1.0
    ) -> "EntropicBound":
        """The bound -power * log max(overlaps) of an overlap table, and its argmax.

        Ties and a maximum near 1 follow the two rules stated on ``projective_bound``.
        """
        return cls.stack(overlaps[None], base, power)[0]

    @classmethod
    def stack(cls, tables, base: float = 2.0, power: float = 1.0) -> list["EntropicBound"]:
        """``from_overlaps`` of each table of a (k, n, m) stack, from its stacked maxima."""
        validate_base(base)
        flat = tables.reshape(len(tables), -1)
        top = flat.max(axis=1)
        first = (flat >= (top - TIE_TOL)[:, None]).argmax(axis=1)  # row-major: (i, j) = divmod
        m = snap_to_one(top)
        value = -power * _log(m, base) + 0.0
        n = tables.shape[-1]
        return [cls(v, base, divmod(f, n), x) for v, f, x in zip(value.tolist(), first.tolist(),
                                                                m.tolist())]


def snap_to_one(overlap):
    """``overlap`` with each value within TIE_TOL of 1, or above 1, set to exactly 1.

    A float comes back as a float, without a trip through numpy.
    """
    near_one = overlap >= 1.0 - TIE_TOL
    if isinstance(overlap, float):
        return 1.0 if near_one else overlap
    return np.where(near_one, 1.0, overlap)


def _log(x: np.ndarray | float, base: float):
    if base == 2.0:
        return np.log2(x)
    return np.log(x) / math.log(base)


def shannon_entropy(p, base: float = 2.0) -> EntropyValue:
    """Shannon entropy -sum p log p with 0 log 0 = 0."""
    validate_base(base)
    if not isinstance(p, OutcomeDistribution):
        p = OutcomeDistribution(np.asarray(p, dtype=float))
    q = p.probs[p.probs > ZERO_PROBABILITY]
    return EntropyValue(float(_kept_entropies(q[None], len(p), base)[0]), base)


def entropies(p: np.ndarray, base: float) -> np.ndarray:
    """``shannon_entropy`` of each row of a table of distributions, bit for bit.

    Each row keeps its probabilities above ZERO_PROBABILITY, and the rows that keep equally
    many are summed as one table: numpy sums each row of a table as it sums that row alone.
    """
    keep = p > ZERO_PROBABILITY
    counts = keep.sum(axis=1)
    values = np.empty(len(p))
    for n in set(counts.tolist()):
        rows = counts == n
        values[rows] = _kept_entropies(p[rows][keep[rows]].reshape(-1, n), p.shape[1], base)
    return values


def _kept_entropies(q: np.ndarray, n: int, base: float) -> np.ndarray:
    """-sum q log q of each row of q, the probabilities kept from an n-outcome distribution,
    each checked to lie in [0, log n]."""
    values = -(q * _log(q, base)).sum(axis=1) + 0.0  # normalize -0.0
    cap = math.log(n) / math.log(base) + 1e-9
    for value in values.tolist():  # as Python floats: a few rows check faster so, NaN too
        if not -1e-12 <= value <= cap:
            raise ValueError(f"entropy {value} outside [0, log {n}]")
    return values


def pair_uncertainty(
    t: Tester, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropyValue:
    """H(T|v) + H(T|w): summed outcome entropies of one tester on two unitaries."""
    hv, hw = [shannon_entropy(outcome_distribution(t, u), base).value for u in (v, w)]
    return EntropyValue(hv + hw, base)


def projective_bound(
    m: ProjectiveMeasurement, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """Measurement-only bound -log max_{i,j} |<chi_i| w v† |chi_j>|^2.

    Holds for every input state of a tester carrying this measurement.
    The returned argmax is the first (row-major) pair (i, j) whose overlap
    lies within TIE_TOL = 1e-12 of the maximum, so roundoff does not pick
    among pairs equal in exact arithmetic.  A maximum within TIE_TOL of 1
    counts as 1 (bound exactly 0): overlaps cannot exceed 1, and roundoff
    around 1 would print a bound of about ±1e-16.  The MES and POVM bounds
    follow the same two rules.
    """
    return EntropicBound.from_overlaps(m.overlaps(pair_operator(m.dim, v, w)), base)


def mes_bound(
    m: MesMeasurement, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """MES-measurement bound -log max_{i,j} |<nu_i| (w v† (x) I) |nu_j>|^2.

    On the Weyl basis of ``bell_basis`` the table is ``weyl_table``'s row 0.
    """
    a = pair_operator(m.local_dim, v, w)
    table = weyl_table(m.elements, a) if weyl_bases(m.elements) else m.overlaps(a)
    return EntropicBound.from_overlaps(table, base)


def weyl_bases(r: np.ndarray) -> np.ndarray:
    """Whether r, or each of a stack of (d^2, d, d) stacks, is ``bell_elements(d)`` bit for bit."""
    d = r.shape[-1]
    # element 0 of the Weyl stack is I / sqrt(d) bit for bit, whose first entry most other
    # stacks fail: only those that pass are compared whole
    weyl = r[..., 0, 0, 0] == 1 / math.sqrt(d)
    if weyl.any() and r is not bell_elements(d):
        weyl &= (r == bell_elements(d)).all(axis=(-3, -2, -1))
    return weyl


def weyl_table(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row 0 of the overlap table of a in the Weyl basis r of ``bell_basis``; or of each a_k in
    r_k, for stacks of both.

    There N_j N_i† is a phase times N_(j-i): every row of the table permutes row 0,
    |Tr(a N_j)|^2 / d^2, which holds the max and argmax.
    """
    n = r.shape[-3]
    # Tr(a R_j) = Tr(a N_j) / sqrt(d)
    traces = r.reshape(*r.shape[:-3], n, n) @ a.swapaxes(-1, -2).reshape(*a.shape[:-2], n, 1)
    return np.abs(traces.swapaxes(-1, -2)) ** 2 / r.shape[-1]


def povm_bound(
    m: Povm, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """POVM bound -2 log max_{i,j} || sqrt(M_i^(v)) sqrt(M_j^(w)) ||.

    M_i^(u) = u† M_i u matches a povm tester's p_k = Tr(M_k u rho u†), so rank-1
    projective POVMs give exactly ``projective_bound``.  One ``eigh`` of the stack
    gives M_i = F_i F_i† (eigenvectors times sqrt(eigenvalue)), and the norm is
    || F_i† (v w†) F_j ||: a rank-1 table is one product.  Eigenvalues <= d eps
    lambda_max(M_i) are cut to zero and F_i padded to the largest rank r left; as
    ||[G; g]||^2 <= ||G||^2 + mu, cutting mu moves a norm by <= mu / (2 ||G||).
    """
    a = pair_operator(m.dim, v, w, adjoint=True)  # v w†, refused before any work
    lam, vecs = np.linalg.eigh(m.elements)
    lam = np.where(lam > m.dim * np.finfo(float).eps * lam[:, -1:], lam, 0.0)
    r, n = int(np.count_nonzero(lam, axis=1).max()), len(lam)
    f = vecs[:, :, -r:] * np.sqrt(lam[:, None, -r:])  # (n, d, r): eigh sorts ascending
    right = np.moveaxis(a @ f, 0, 1).reshape(m.dim, n * r)
    # one row block of Phi† (v w†) Phi, Phi = [F_1 ... F_n], at a time: O(n r^2) memory
    blocks = ((fi.conj().T @ right).reshape(r, n, r).swapaxes(0, 1) for fi in f)
    # a 1 x 1 block's norm is its modulus; norm(ord=2) would run one SVD per block
    norms = np.array([np.abs(b[:, 0, 0]) if r == 1 else np.linalg.norm(b, ord=2, axis=(-2, -1))
                      for b in blocks])
    return EntropicBound.from_overlaps(norms, base, power=2.0)


def variance_uncertainty(u: UnitaryOperator, psi: PureState) -> float:
    """Variance-style uncertainty sqrt(1 - |<psi| u |psi>|^2).

    Provided only for comparison with the entropic quantities; it measures
    how far ``u`` moves the state ``psi``, not any testing uncertainty.
    """
    if u.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {psi.dim}")
    overlap = np.vdot(psi.amplitudes, u.matrix @ psi.amplitudes)
    return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))
