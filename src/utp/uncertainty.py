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

from .linalg import operator_norm, psd_sqrt
from .operators import UnitaryOperator
from .testers import (
    MesMeasurement,
    OutcomeDistribution,
    Povm,
    ProjectiveMeasurement,
    PureState,
    Tester,
    outcome_distribution,
)

NATURAL = math.e
ZERO_PROBABILITY = 1e-15  # below this, a probability is logged as an exact zero


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


def _bound_from_overlaps(overlaps: np.ndarray, base: float, power: float = 1.0) -> EntropicBound:
    flat = int(np.argmax(overlaps))
    argmax = np.unravel_index(flat, overlaps.shape)
    # overlaps of unit vectors (and norms of PSD-root products) cannot
    # exceed 1; anything above is roundoff and would give a negative bound
    m = min(float(overlaps[argmax]), 1.0)
    value = float(-power * _log(m, base)) + 0.0
    return EntropicBound(value, base, (int(argmax[0]), int(argmax[1])), m)


def projective_bound(
    m: ProjectiveMeasurement, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """Measurement-only bound -log max_{i,j} |<chi_i| w v† |chi_j>|^2.

    Holds for every input state of a tester carrying this measurement.
    The returned argmax is the first (row-major) maximizing pair (i, j).
    """
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    x = m.matrix
    o = x.conj().T @ (w.matrix @ v.matrix.conj().T) @ x
    return _bound_from_overlaps(np.abs(o) ** 2, base)


def mes_bound(
    m: MesMeasurement, v: UnitaryOperator, w: UnitaryOperator, base: float = 2.0
) -> EntropicBound:
    """MES-measurement bound -log max_{i,j} |<nu_i| (w v† (x) I) |nu_j>|^2."""
    if m.local_dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    x = m.matrix
    big = np.kron(w.matrix @ v.matrix.conj().T, np.eye(v.dim))
    o = x.conj().T @ big @ x
    return _bound_from_overlaps(np.abs(o) ** 2, base)


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
    roots_v = [psd_sqrt(v.matrix.conj().T @ e @ v.matrix) for e in m.elements]
    roots_w = [psd_sqrt(w.matrix.conj().T @ e @ w.matrix) for e in m.elements]
    norms = np.array([[operator_norm(a @ b) for b in roots_w] for a in roots_v])
    return _bound_from_overlaps(norms, base, power=2.0)


def variance_uncertainty(u: UnitaryOperator, psi: PureState) -> float:
    """Variance-style uncertainty sqrt(1 - |<psi| u |psi>|^2).

    Provided only for comparison with the entropic quantities; it measures
    how far ``u`` moves the state ``psi``, not any testing uncertainty.
    """
    if u.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {psi.dim}")
    overlap = np.vdot(psi.amplitudes, u.matrix @ psi.amplitudes)
    return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2))
