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

from .linalg import psd_sqrt
from .operators import UnitaryOperator
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

NATURAL = math.e
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
        top = float(overlaps.max())
        i, j = np.unravel_index(int(np.argmax(overlaps >= top - TIE_TOL)), overlaps.shape)
        m = float(snap_to_one(top))
        value = float(-power * _log(m, base)) + 0.0
        return cls(value, base, (int(i), int(j)), m)


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
    if base == NATURAL:
        return np.log(x)
    return np.log(x) / math.log(base)


def _entropy_of(p: np.ndarray, base: float) -> float:
    mask = p > ZERO_PROBABILITY
    q = p[mask]
    return float(-(q * _log(q, base)).sum()) + 0.0  # normalize -0.0


def shannon_entropy(p, base: float = 2.0) -> EntropyValue:
    """Shannon entropy -sum p log p with 0 log 0 = 0."""
    if not isinstance(p, OutcomeDistribution):
        p = OutcomeDistribution(np.asarray(p, dtype=float))
    value = _entropy_of(p.probs, base)
    cap = float(_log(len(p), base))
    if value < -1e-12 or value > cap + 1e-9:
        raise ValueError(f"entropy {value} outside [0, log {len(p)}]")
    return EntropyValue(value, base)


def pair_uncertainty(
    t: Tester, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropyValue:
    """H(T|v) + H(T|w): summed outcome entropies of one tester on two unitaries."""
    hv = shannon_entropy(outcome_distribution(t, v), base)
    hw = shannon_entropy(outcome_distribution(t, w), base)
    return EntropyValue(hv.value + hw.value, base)


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
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    return EntropicBound.from_overlaps(m.overlaps(w.matrix @ v.matrix.conj().T), base)


def mes_bound(
    m: MesMeasurement, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """MES-measurement bound -log max_{i,j} |<nu_i| (w v† (x) I) |nu_j>|^2.

    On the Weyl basis of ``bell_basis``, N_j N_i† is a phase times N_(j-i): every row
    of the table permutes row 0, |Tr(a N_j)|^2 / d^2, which holds the max and argmax.
    """
    if m.local_dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    a = w.matrix @ v.matrix.conj().T
    d = m.local_dim
    r = m.elements
    # element 0 of the Weyl stack is I / sqrt(d) bit for bit, which most other stacks fail
    weyl = np.array_equal(r[0], np.eye(d) / math.sqrt(d)) and np.array_equal(r, bell_elements(d))
    if not weyl:
        return EntropicBound.from_overlaps(m.overlaps(a), base)
    traces = r.reshape(d * d, -1) @ a.T.reshape(-1)  # Tr(a R_j) = Tr(a N_j) / sqrt(d)
    return EntropicBound.from_overlaps(np.abs(traces[None, :]) ** 2 / d, base)


def povm_bound(
    m: Povm, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """POVM bound -2 log max_{i,j} || sqrt(M_i^(v)) sqrt(M_j^(w)) ||.

    The rotated POVMs are M_i^(u) = u† M_i u, matching the outcome
    statistics p_k = Tr(M_k u rho u†) of a povm tester, so that for
    rank-1 projective POVMs this reduces exactly to ``projective_bound``.
    """
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between POVM and operators")
    roots_v = psd_sqrt(v.matrix.conj().T @ m.elements @ v.matrix)
    roots_w = psd_sqrt(w.matrix.conj().T @ m.elements @ w.matrix)
    # one row of the table at a time: O(n d^2) memory, not O(n^2 d^2)
    norms = np.array([np.linalg.norm(a @ roots_w, ord=2, axis=(-2, -1)) for a in roots_v])
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
