"""Reaching the entropic bounds: saturating testers, witnesses, surfaces.

This module answers four questions about a unitary pair (v, w):

* does a given measurement admit a *saturating* tester, one whose pair
  uncertainty equals the measurement-only bound (row construction)?
* what is the minimum pair uncertainty over all pure inputs for a fixed
  measurement (multi-start derivative-free search)?
* can every cross pair drawn from two unitary bases saturate the maximal
  bound, certifying the bases as mutually unbiased?
* for a perfectly distinguishable pair, which concrete non-trivial
  tester achieves zero uncertainty?

It also evaluates the closed-form overlap surfaces for the two qubit
operator pairs used as worked examples, cross-checked at every grid
point against dense matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .linalg import DEFAULT_TOL, eig_unitary
from .operators import (
    UnitaryBasis,
    UnitaryOperator,
    _hull_distance_to_origin,
    hs_table,
    identity,
    omega,
    pauli,
)
from .testers import (
    MesMeasurement,
    ProjectiveMeasurement,
    PureState,
    Tester,
    is_trivial_measurement,
    mes_overlap_table,
    overlap_table,
    weyl_operators,
)
from .uncertainty import EntropicBound, EntropyValue, pair_uncertainty, snap_to_one

GAP_FLOOR = -1e-9  # the bound is a true lower bound; gaps below this are a bug
SATURATION_GAP_BITS = 1e-6  # "achieves the bound" threshold after a search


@dataclass(frozen=True, eq=False)
class SaturationReport:
    """Outcome of a saturation attempt for one measurement and operator pair."""

    achieved: EntropyValue
    bound: EntropicBound
    tester: Tester
    trivial: bool
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("row-construction", "numerical-search"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.gap < GAP_FLOOR:
            raise ValueError(f"achieved {self.achieved.value} undercuts the bound by {-self.gap}")

    @property
    def gap(self) -> float:
        """achieved - bound, in the base of both."""
        return self.achieved.value - self.bound.value

    @property
    def saturates(self) -> bool:
        """Whether the tester reaches the bound, up to optimizer noise."""
        return self.gap < SATURATION_GAP_BITS


SWEEP_COLUMNS = ("theta", "phi", "max_overlap", "diag_overlap", "bound_bits")


def _check_sweep(max_overlap, diag_overlap, bound_bits) -> None:
    """The sweep invariants, on the floats of one record or on whole columns.

    bound_bits is -log2 of the maximum after the near-1 rule of ``snap_to_one``,
    and the maximum overlap is at least the diagonal one; a NaN fails both.
    Floats take plain float arithmetic: a numpy call on a scalar costs more
    than the whole check.
    """
    log2, all_ = (math.log2, bool) if isinstance(max_overlap, float) else (np.log2, np.all)
    if not all_(abs(bound_bits + log2(snap_to_one(max_overlap))) <= 1e-12):
        raise ValueError("bound_bits is not -log2(max_overlap)")
    if not all_(max_overlap >= diag_overlap - 1e-12):
        raise ValueError("max_overlap below diagonal overlap")


@dataclass(frozen=True)
class SweepRecord:
    """One (theta, phi) sample of an overlap surface."""

    theta: float
    phi: float
    max_overlap: float
    diag_overlap: float
    bound_bits: float

    def __post_init__(self) -> None:
        _check_sweep(self.max_overlap, self.diag_overlap, self.bound_bits)


@dataclass(frozen=True, eq=False)
class SweepSurface:
    """An overlap surface as five equal-length columns, theta-outer row-major.

    ``max_deviation`` is the largest closed-form-versus-matrix deviation over
    the grid.  ``surface[k]`` builds the ``SweepRecord`` of row k on demand;
    a slice gives a list of them.
    """

    theta: np.ndarray
    phi: np.ndarray
    max_overlap: np.ndarray
    diag_overlap: np.ndarray
    bound_bits: np.ndarray
    max_deviation: float

    def __post_init__(self) -> None:
        n = np.size(self.theta)
        for name in SWEEP_COLUMNS:
            c = np.array(getattr(self, name), dtype=float)
            if c.shape != (n,):
                raise ValueError(f"sweep column {name} has shape {c.shape}, want ({n},)")
            c.flags.writeable = False
            object.__setattr__(self, name, c)
        _check_sweep(self.max_overlap, self.diag_overlap, self.bound_bits)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The five columns, in the order of ``SWEEP_COLUMNS``."""
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS)

    def __len__(self) -> int:
        return self.theta.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        return SweepRecord(*(float(c[k]) for c in self.columns()))

    def __iter__(self):
        return map(SweepRecord, *(c.tolist() for c in self.columns()))


def _report(
    tester: Tester, v: UnitaryOperator, w: UnitaryOperator, overlaps: np.ndarray,
    trivial: bool, method: str, base: float,
) -> SaturationReport:
    """Report of ``tester`` on (v, w) against the bound of its overlap table."""
    return SaturationReport(
        achieved=pair_uncertainty(tester, v, w, base),
        bound=EntropicBound.from_overlaps(overlaps, base),
        tester=tester,
        trivial=trivial,
        method=method,
    )


def sweep_pair(name: str) -> tuple[UnitaryOperator, UnitaryOperator]:
    """The named operator pairs whose overlap surfaces have closed forms."""
    if name == "i-sigmay":
        return identity(2), pauli("Y")
    if name == "i-omega":
        return identity(2), omega(-1)
    raise ValueError(f"unknown sweep pair {name!r}; expected i-sigmay or i-omega")


def su2_basis(theta: float, phi: float) -> ProjectiveMeasurement:
    """Qubit measurement basis parameterized by two angles in [0, pi].

    chi_1 = cos(theta)|0> + e^{i phi} sin(theta)|1>
    chi_2 = -sin(theta)|0> + e^{i phi} cos(theta)|1>
    """
    if not (0.0 <= theta <= np.pi) or not (0.0 <= phi <= np.pi):
        raise ValueError(f"angles must lie in [0, pi], got theta={theta}, phi={phi}")
    return ProjectiveMeasurement.from_matrix(_su2_matrix(np.asarray(theta), np.asarray(phi)))


def _su2_matrix(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Stacked basis matrices of shape theta.shape + (2, 2), columns chi_1, chi_2."""
    phase = np.exp(1j * phi)
    x = np.empty(np.broadcast(theta, phi).shape + (2, 2), dtype=complex)
    x[..., 0, 0] = np.cos(theta)
    x[..., 1, 0] = phase * np.sin(theta)
    x[..., 0, 1] = -np.sin(theta)
    x[..., 1, 1] = phase * np.cos(theta)
    return x


def _closed_form_overlaps(pair: str, theta: np.ndarray, phi: np.ndarray):
    """(diagonal, off-diagonal) squared overlaps |<chi_i| w v† |chi_j>|^2.

    For i-sigmay the off-diagonal term is
    cos^4(theta) + sin^4(theta) + 2 cos^2(theta) sin^2(theta) cos(2 phi),
    which equals 1 - sin^2(2 theta) sin^2(phi); the cos(2 phi) factor is
    sometimes misprinted as cos^2(2 phi), which breaks that row-sum
    identity and disagrees with direct matrix evaluation.
    """
    s2 = np.sin(2 * theta) ** 2 * np.sin(phi) ** 2
    if pair == "i-sigmay":
        diag = s2
        off = (
            np.cos(theta) ** 4
            + np.sin(theta) ** 4
            + 2 * np.cos(theta) ** 2 * np.sin(theta) ** 2 * np.cos(2 * phi)
        )
        return diag, off
    if pair == "i-omega":
        return (1 + s2) / 2, (1 - s2) / 2
    raise ValueError(f"unknown sweep pair {pair!r}; expected i-sigmay or i-omega")


def _surface_arrays(pair: str, theta: np.ndarray, phi: np.ndarray, check_tol: float = 1e-12):
    """(max_overlap, diag_overlap, bound_bits, deviation), closed form vs matrices cross-checked.

    deviation is the largest closed-form-versus-matrix difference, at most
    ``check_tol``.  bound_bits follows the bounds' rule that a maximum within
    TIE_TOL of 1 is 1.
    """
    v, w = sweep_pair(pair)
    a = w.matrix @ v.matrix.conj().T
    x = _su2_matrix(theta, phi)
    o = np.einsum("...ki,kl,...lj->...ij", x.conj(), a, x)
    p = np.abs(o) ** 2
    diag_cf, off_cf = _closed_form_overlaps(pair, theta, phi)
    dev = float(max(
        np.abs(p[..., 0, 0] - diag_cf).max(),
        np.abs(p[..., 1, 1] - diag_cf).max(),
        np.abs(p[..., 0, 1] - off_cf).max(),
        np.abs(p[..., 1, 0] - off_cf).max(),
    ))
    if dev > check_tol:
        raise ArithmeticError(
            f"closed-form/matrix overlap mismatch {dev:.3e} exceeds {check_tol:.0e}"
        )
    max_overlap = p.max(axis=(-2, -1))
    return max_overlap, p[..., 0, 0], -np.log2(snap_to_one(max_overlap)) + 0.0, dev


def su2_overlap_point(pair: str, theta: float, phi: float) -> SweepRecord:
    """Overlap surface sample at one (theta, phi), cross-checked both ways."""
    arrays = _surface_arrays(pair, np.asarray(float(theta)), np.asarray(float(phi)))[:3]
    return SweepRecord(float(theta), float(phi), *(float(a) for a in arrays))


def su2_overlap_surface(pair: str, grid: int) -> SweepSurface:
    """Overlap surface over the [0, pi] x [0, pi] grid, theta-outer row-major."""
    if grid < 2:
        raise ValueError("grid must be at least 2 points per axis")
    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, np.pi, grid)
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    max_overlap, diag, bound_bits, dev = _surface_arrays(pair, th, ph)
    return SweepSurface(
        th.ravel(), ph.ravel(), max_overlap.ravel(), diag.ravel(), bound_bits.ravel(), dev
    )


def _format_column(c: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each value of ``c`` as an object array, each distinct value formatted once.

    Values are told apart by bit pattern, so -0.0 and 0.0 keep their own strings.
    """
    bits, inverse = np.unique(c.view(np.int64), return_inverse=True)
    text = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


def sweep_to_csv(surface: SweepSurface) -> str:
    """CSV rendering with 12 significant digits per field."""
    lines = map(",".join, zip(*(_format_column(c, "{:.12g}".format) for c in surface.columns())))
    return "\n".join([",".join(SWEEP_COLUMNS), *lines]) + "\n"


def sweep_to_json(surface: SweepSurface) -> str:
    """``{"records": [...]}`` with one object per row, as ``json.dumps`` writes it.

    ``repr`` is how ``json.dumps`` writes a finite float, and every sweep value is finite.
    """
    row = "{{" + ", ".join(f'"{name}": {{}}' for name in SWEEP_COLUMNS) + "}}"
    lines = map(row.format, *(_format_column(c, repr) for c in surface.columns()))
    return '{"records": [' + ", ".join(lines) + "]}\n"


def _is_phase_of_identity(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    d = a.shape[0]
    z = np.trace(a) / d
    return abs(z) > 1e-12 and np.abs(a - z * np.eye(d)).max() <= tol


def saturating_tester_by_construction(
    m: ProjectiveMeasurement,
    v: UnitaryOperator,
    w: UnitaryOperator,
    tol: float = DEFAULT_TOL,
    base: float = 2.0,
) -> SaturationReport | None:
    """Try to saturate the projective bound with an input of the form v†|chi_i>.

    Such an input makes the v-side outcome deterministic, so the pair
    uncertainty collapses to the w-side entropy, i.e. the entropy of one
    column of |<chi_j| w v† |chi_i>|^2.  That equals the bound exactly
    when the column is uniform on its support with its maximum equal to
    the global maximum overlap.  Returns the report for the smallest
    qualifying column index, or None when no column qualifies.
    """
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    x = m.matrix
    overlaps = overlap_table(x, w.matrix @ v.matrix.conj().T)
    global_max = overlaps.max()
    for i in range(m.dim):
        column = overlaps[:, i]
        support = column[column > tol]
        if support.size == 0:
            continue
        if support.max() - support.min() <= tol and abs(support.max() - global_max) <= tol:
            tester = Tester.projective(PureState(v.matrix.conj().T @ x[:, i]), m)
            trivial = is_trivial_measurement(m, v, w)
            return _report(tester, v, w, overlaps, trivial, "row-construction", base)
    return None


def _hypersphere_state(x: np.ndarray, d: int) -> np.ndarray:
    """Unit state from 2d-2 real parameters (d-1 magnitude angles, d-1 phases)."""
    g = x[: d - 1]
    beta = x[d - 1 :]
    prefix = np.concatenate(([1.0], np.cumprod(np.sin(g))))
    mags = np.empty(d)
    mags[: d - 1] = prefix[: d - 1] * np.cos(g)
    mags[d - 1] = prefix[d - 1]
    amps = mags.astype(complex)
    amps[1:] *= np.exp(1j * beta)
    return amps


def _multistart_nelder_mead(objective, x0s, budget: int):
    """Deterministic multi-start Nelder-Mead with a shared evaluation budget.

    Results are reduced with the total order (value, restart index), so
    the outcome does not depend on evaluation order; leftover budget is
    spent polishing from the best point found.
    """
    import scipy.optimize  # loaded on first use: only the searches need it

    per_start = max(1, budget // max(1, len(x0s)))
    best = (math.inf, -1, None)
    used = 0
    for idx, x0 in enumerate(x0s):
        if used >= budget:
            break
        res = scipy.optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": min(per_start, budget - used), "xatol": 1e-8, "fatol": 1e-11},
        )
        used += res.nfev
        candidate = (float(res.fun), idx, res.x)
        if candidate[:2] < best[:2]:
            best = candidate
    if best[2] is not None and used < budget:
        res = scipy.optimize.minimize(
            objective,
            best[2],
            method="Nelder-Mead",
            options={"maxfev": budget - used, "xatol": 1e-10, "fatol": 1e-13},
        )
        used += res.nfev
        if float(res.fun) < best[0]:
            best = (float(res.fun), best[1], res.x)
    return best[2], best[0], used


def search_min_uncertainty(
    m: ProjectiveMeasurement,
    v: UnitaryOperator,
    w: UnitaryOperator,
    budget: int = 5000,
    seed: int = 0,
    restarts: int = 20,
    base: float = 2.0,
) -> SaturationReport:
    """Minimize the pair uncertainty over pure inputs for a fixed measurement.

    Pure states are parameterized by 2d-2 angles and explored with
    multi-start Nelder-Mead under a total evaluation budget; the best
    tester found is reported (budget exhaustion returns best-so-far,
    never a claim of optimality).  Deterministic for fixed
    (seed, budget, restarts).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if m.dim != v.dim or v.dim != w.dim:
        raise ValueError("dimension mismatch between measurement and operators")
    d = m.dim
    x = m.matrix
    a = w.matrix @ v.matrix.conj().T
    overlaps = overlap_table(x, a)

    if _is_phase_of_identity(a):
        # w = phase * v: every basis is trivial and any chi_i input gives 0.
        tester = Tester.projective(PureState(v.matrix.conj().T @ x[:, 0]), m)
        return _report(tester, v, w, overlaps, True, "numerical-search", base)

    bv = x.conj().T @ v.matrix
    bw = x.conj().T @ w.matrix
    log_base = math.log(base)

    def objective(params: np.ndarray) -> float:
        amps = _hypersphere_state(params, d)
        total = 0.0
        for b in (bv, bw):
            p = np.abs(b @ amps) ** 2
            q = p[p > 1e-15]
            total -= float((q * np.log(q)).sum())
        return total / log_base

    rng = np.random.default_rng(seed)
    x0s = [
        np.concatenate(
            (rng.uniform(0.0, np.pi / 2, d - 1), rng.uniform(0.0, 2 * np.pi, d - 1))
        )
        for _ in range(restarts)
    ]
    best_x, _, _ = _multistart_nelder_mead(objective, x0s, budget)
    tester = Tester.projective(PureState(_hypersphere_state(best_x, d)), m)
    trivial = is_trivial_measurement(m, v, w)
    return _report(tester, v, w, overlaps, trivial, "numerical-search", base)


def _hermitian_generators(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann basis of traceless Hermitian d x d matrices."""
    gens = []
    for i in range(d):
        for j in range(i + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            gens.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = -1j
            a[j, i] = 1j
            gens.append(a)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        gens.append(math.sqrt(2.0 / (l * (l + 1))) * np.diag(diag).astype(complex))
    return gens


def _rotation(coeffs: np.ndarray, generators: list[np.ndarray]) -> np.ndarray:
    """The unitary exp(i sum_k c_k G_k) of the flat-basis searches."""
    import scipy.linalg  # loaded on first use: only the searches need it

    return scipy.linalg.expm(1j * sum(c * g for c, g in zip(coeffs, generators)))


def _dft_matrix(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def _find_flat_projective_basis(
    a: np.ndarray, tol: float, budget: int, restarts: int, seed: int
) -> tuple[np.ndarray, str] | None:
    """Basis X with all |<x_i| a |x_j>|^2 = 1/d within tol, or None.

    Analytic candidates first: the discrete Fourier transform of an
    eigenbasis of ``a`` is flat whenever the DFT of the eigenvalue
    sequence has constant modulus, which covers every mutually unbiased
    instance in low dimension.  Falls back to a budgeted derivative-free
    search over basis changes exp(i sum_k c_k G_k).
    """
    d = a.shape[0]
    target = 1.0 / d

    def deviation(x: np.ndarray) -> float:
        return float(np.abs(overlap_table(x, a) - target).max())

    eigvecs = np.column_stack([vec for _, vec in eig_unitary(a)])
    dft = _dft_matrix(d)
    orders = permutations(range(d)) if d <= 4 else [tuple(range(d))]
    for order in orders:
        candidate = eigvecs[:, list(order)] @ dft
        if deviation(candidate) <= tol:
            return candidate, "row-construction"

    generators = _hermitian_generators(d)
    x0_base = eigvecs @ dft

    def objective(coeffs: np.ndarray) -> float:
        x = x0_base @ _rotation(coeffs, generators)
        return float(((overlap_table(x, a) - target) ** 2).sum())

    rng = np.random.default_rng(seed)
    x0s = [rng.uniform(-np.pi, np.pi, len(generators)) for _ in range(restarts)]
    best_c, _, _ = _multistart_nelder_mead(objective, x0s, budget)
    if best_c is None:
        return None
    x = x0_base @ _rotation(best_c, generators)
    if deviation(x) <= tol:
        return x, "numerical-search"
    return None


def _find_flat_mes_operators(
    a: np.ndarray, tol: float, budget: int, restarts: int, seed: int
) -> tuple[np.ndarray, str] | None:
    """MES-measurement unitaries {M_i} with all |Tr(M_i† a M_j)/d|^2 = 1/d^2.

    Searches rotations M_i = X N_i of the Weyl operators; the identity
    rotation covers the Weyl-covariant instances.
    """
    d = a.shape[0]
    weyl = weyl_operators(d)
    states = weyl / math.sqrt(d)  # the Bell states, reshaped
    target = 1.0 / (d * d)

    def squared_overlaps(x: np.ndarray) -> np.ndarray:
        """|<nu_i| (b (x) I) |nu_j>|^2 over the Bell states for b = x† a x."""
        return mes_overlap_table(states, x.conj().T @ a @ x)

    if np.abs(squared_overlaps(np.eye(d, dtype=complex)) - target).max() <= tol:
        return weyl, "row-construction"

    generators = _hermitian_generators(d)

    def objective(coeffs: np.ndarray) -> float:
        x = _rotation(coeffs, generators)
        return float(((squared_overlaps(x) - target) ** 2).sum())

    rng = np.random.default_rng(seed)
    x0s = [rng.uniform(-np.pi, np.pi, len(generators)) for _ in range(restarts)]
    best_c, _, _ = _multistart_nelder_mead(objective, x0s, budget)
    if best_c is None:
        return None
    x = _rotation(best_c, generators)
    if np.abs(squared_overlaps(x) - target).max() <= tol:
        return x @ weyl, "numerical-search"
    return None


@dataclass(frozen=True, eq=False)
class MuubCertification:
    """Per-pair saturation witnesses for two unitary bases."""

    certified: bool
    reports: tuple[tuple[SaturationReport | None, ...], ...]  # indexed [m][n]
    trace_moduli: np.ndarray  # |Tr(W_m V_n†)|, indexed [m][n]
    expected_trace: float


def muub_certify_by_saturation(
    b1: UnitaryBasis,
    b2: UnitaryBasis,
    tol: float = DEFAULT_TOL,
    budget: int = 5000,
    restarts: int = 20,
    seed: int = 0,
    base: float = 2.0,
) -> MuubCertification:
    """Certify mutual unbiasedness of two unitary bases through saturation.

    For every cross pair (W_m from ``b2``, V_n from ``b1``) a measurement
    is sought in which all overlaps of W_m V_n† are flat (1/d for
    d-element bases in a projective basis; 1/d^2 for d^2-element bases in
    an MES basis).  Each success yields a saturating tester reaching the
    maximal bound; certification requires all pairs to succeed and the
    cross-check |Tr(W_m V_n†)| = sqrt(d) (1 for the full space) to
    hold within ``tol``.  Search failures are reported as not-found
    within budget, never as nonexistence.
    """
    if b1.dim != b2.dim or b1.subspace_dim != b2.subspace_dim:
        raise ValueError("bases must share dimension and subspace dimension")
    d = b1.dim
    full_space = b1.subspace_dim == d * d
    expected_trace = 1.0 if full_space else math.sqrt(d)

    find_flat = _find_flat_mes_operators if full_space else _find_flat_projective_basis
    reports: list[tuple[SaturationReport | None, ...]] = []
    for m_idx, wm in enumerate(b2.elements):
        row: list[SaturationReport | None] = []
        for n_idx, vn in enumerate(b1.elements):
            a = wm.matrix @ vn.matrix.conj().T
            pair_seed = seed + 7919 * m_idx + n_idx
            # a phase of the identity has overlap 1 in every basis: it can never saturate log d
            found = None if _is_phase_of_identity(a) else find_flat(
                a, tol, budget, restarts, pair_seed
            )
            if found is None:
                row.append(None)
                continue
            flat, method = found
            if full_space:
                primed = [op @ flat[0].conj().T @ vn.matrix for op in flat]
                measurement = MesMeasurement.from_unitaries(primed)
                tester, trivial = Tester.mes(measurement), False
            else:
                measurement = ProjectiveMeasurement.from_matrix(flat)
                tester = Tester.projective(PureState(vn.matrix.conj().T @ flat[:, 0]), measurement)
                trivial = is_trivial_measurement(measurement, vn, wm)
            row.append(_report(tester, vn, wm, measurement.overlaps(a), trivial, method, base))
        reports.append(tuple(row))

    trace_moduli = hs_table(b2, b1)
    all_found = all(r is not None for row in reports for r in row)
    certified = all_found and bool(np.abs(trace_moduli - expected_trace).max() <= tol)
    return MuubCertification(
        certified=certified,
        reports=tuple(reports),
        trace_moduli=trace_moduli,
        expected_trace=expected_trace,
    )


def _convex_weights_for_zero(eigenvalues: np.ndarray, tol: float):
    """Convex weights over two or three eigenvalues whose mixture is ~0.

    Chords between eigenvalue pairs are tried first; when no chord passes
    near the origin (e.g. three equally spaced phases) a triangle of
    eigenvalues containing the origin is found instead.
    """
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    for i, j in combinations(range(eigenvalues.size), 2):
        la, lb = eigenvalues[i], eigenvalues[j]
        denom = abs(la - lb) ** 2
        if denom < 1e-28:
            continue
        t = float(np.clip((-lb * (la - lb).conjugate()).real / denom, 0.0, 1.0))
        residual = abs(t * la + (1 - t) * lb)
        if best is None or residual < best[0]:
            best = (residual, (i, j), np.array([t, 1 - t]))
    if best is not None and best[0] <= tol:
        return best[1], best[2]
    for i, j, k in combinations(range(eigenvalues.size), 3):
        trio = eigenvalues[[i, j, k]]
        system = np.vstack([trio.real, trio.imag, np.ones(3)])
        try:
            weights = np.linalg.solve(system, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if weights.min() < -1e-9:
            continue
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum()
        residual = abs((weights * trio).sum())
        if best is None or residual < best[0]:
            best = (residual, (i, j, k), weights)
    if best is not None and best[0] <= tol:
        return best[1], best[2]
    return None


def zero_bound_witness(
    v: UnitaryOperator, w: UnitaryOperator, tol: float = DEFAULT_TOL
) -> tuple[bool, Tester | None, bool]:
    """Construct a tester with zero pair uncertainty for a distinguishable pair.

    When 0 lies in the eigenvalue hull of v†w, a state chi with
    <chi| v† w |chi> = 0 is mixed from at most three eigenvectors; the
    measurement basis is completed around the orthogonal pair (v chi, w chi)
    so that both operators map the input chi onto single outcomes.
    Returns (found, tester, trivial-flag); found is False exactly when the
    pair is not perfectly distinguishable within ``tol``.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    d = v.dim
    pairs = eig_unitary(v.matrix.conj().T @ w.matrix)
    eigenvalues = np.array([lam for lam, _ in pairs])
    if _hull_distance_to_origin(eigenvalues) > tol:
        return False, None, False
    combo = _convex_weights_for_zero(eigenvalues, max(tol, 1e-12))
    if combo is None:  # hull says distinguishable; mixture search must agree
        return False, None, False
    indices, weights = combo
    chi = np.zeros(d, dtype=complex)
    for idx, weight in zip(indices, weights):
        chi += math.sqrt(weight) * pairs[idx][1]
    chi /= np.linalg.norm(chi)
    e1 = v.matrix @ chi
    e2 = w.matrix @ chi
    e2 = e2 - np.vdot(e1, e2) * e1
    e2 /= np.linalg.norm(e2)
    q, _ = np.linalg.qr(np.column_stack([e1, e2, np.eye(d)]))
    measurement = ProjectiveMeasurement.from_matrix(q)
    tester = Tester.projective(PureState(chi), measurement)
    return True, tester, is_trivial_measurement(measurement, v, w)
