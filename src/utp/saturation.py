"""Reaching the entropic bounds: saturating testers, witnesses, surfaces.

This module answers four questions about a unitary pair (v, w):

* does a given measurement admit a *saturating* tester, one whose pair
  uncertainty equals the measurement-only bound (row construction)?
* what is the minimum pair uncertainty over all pure inputs for a fixed
  measurement (a batch of starts descending the unit sphere together)?
* can every cross pair drawn from two unitary bases saturate the maximal
  bound, certifying the bases as mutually unbiased (a Fourier order of the
  pair's eigenbasis; a Zadoff-Chu sequence or another pair's flat basis
  whose spectrum matches the pair's, carried over; else a descent on U(d)
  to a basis in which all overlaps are flat)?
* for a perfectly distinguishable pair, which concrete non-trivial
  tester achieves zero uncertainty?

It also evaluates the closed-form overlap surfaces for the two qubit
operator pairs used as worked examples, cross-checked at every grid
point against dense matrix products.

Every search is one numpy routine, ``_descend``: Riemannian Polak-Ribiere+
conjugate gradients with closed-form gradients and Armijo backtracking, which
the input search does by quadratic interpolation (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008; Nocedal & Wright,
*Numerical Optimization*, §3.5; on U(d) after Abrudan, Eriksson & Koivunen,
IEEE TSP 56(3), 2008).  A search's budget counts objective values, and its
report says how many it used and whether the budget, rather than its stopping
rule, ended it.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .csvformat import format_rows
from .linalg import (DEFAULT_TOL, InvariantError, computed, eig_unitary, owned, validate_base,
                     validate_counts, validate_tol)
from .operators import (
    UnitaryBasis,
    UnitaryOperator,
    _adjoint_product_hull,
    dft_matrix,
    haar_matrix,
    hs_table,
    identity,
    muub_verdict,
    omega,
    pair_operator,
    pauli,
    product_unitarity_tol,
)
from .testers import (
    MesMeasurement,
    ProjectiveMeasurement,
    PureState,
    Tester,
    checked_probabilities,
    eigen_residuals,
    in_basis,
    is_trivial_measurement,
    mes_columns,
    mes_overlaps,
    mes_probabilities,
    mes_state,
    projective_overlaps,
    projective_probabilities,
    row_inputs,
    row_tester,
    weyl_operators,
)
from .uncertainty import (
    EntropicBound,
    EntropyValue,
    entropies,
    projective_bound,
    snap_to_one,
    weyl_bases,
    weyl_table,
)

log = logging.getLogger(__name__)

GAP_FLOOR = -1e-9  # the bound is a true lower bound; gaps below this are a bug
SATURATION_GAP_BITS = 1e-6  # "achieves the bound" threshold after a search
REPORT_METHODS = ("row-construction", "zadoff-chu-order", "spectral-transport", "numerical-search")


@dataclass(frozen=True, eq=False)
class SaturationReport:
    """Outcome of a saturation attempt for one measurement and operator pair.

    ``method`` says how the tester was obtained:

    * ``row-construction``: a closed form, an input v†|chi_i> or a Fourier
      transform of an eigenbasis of w v†;
    * ``zadoff-chu-order``: the Fourier transform of an eigenbasis ordered so
      that the eigenvalues follow a Zadoff-Chu sequence up to one phase;
    * ``spectral-transport``: another pair's searched (or full-space identity)
      flat unitary, carried over when the two spectra agree up to one phase;
    * ``numerical-search``: a gradient search.

    ``evaluations`` counts the objective values a search used (0 for the
    three constructions); ``converged`` is false when the evaluation budget,
    not the search's stopping rule, ended it.
    """

    achieved: EntropyValue
    bound: EntropicBound
    tester: Tester
    trivial: bool
    method: str
    evaluations: int
    converged: bool

    def __post_init__(self) -> None:
        if self.method not in REPORT_METHODS:
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
SWEEP_BLOCK_POINTS = 1 << 16  # grid points per kernel block, in whole theta rows
RENDER_BLOCK_ROWS = 4096  # rows per rendered text block


def _check_sweep(max_overlap, diag_overlap, bound_bits) -> None:
    """The sweep invariants, on whole columns or one block of them.

    bound_bits is -log2 of the maximum after the near-1 rule of ``snap_to_one``,
    and the maximum overlap is at least the diagonal one; a NaN fails both.
    """
    if not np.all(np.abs(bound_bits + np.log2(snap_to_one(max_overlap))) <= 1e-12):
        raise ValueError("bound_bits is not -log2(max_overlap)")
    if not np.all(max_overlap >= diag_overlap - 1e-12):
        raise ValueError("max_overlap below diagonal overlap")


@dataclass(frozen=True, eq=False)
class SweepSurface:
    """An overlap surface over a g x g angle grid, theta-outer row-major.

    ``angles`` holds the g grid angles; row k of the surface is
    (theta, phi) = (angles[k // g], angles[k % g]).  ``max_overlap``,
    ``diag_overlap`` and ``bound_bits`` hold one value per row, g^2 each.
    ``max_deviation`` is the largest closed-form-versus-matrix deviation over
    the grid.

    Every array is a read-only float64 array, owned as ``owned`` takes it.
    """

    angles: np.ndarray
    max_overlap: np.ndarray
    diag_overlap: np.ndarray
    bound_bits: np.ndarray
    max_deviation: float

    def __post_init__(self) -> None:
        g = np.size(self.angles)
        for name in ("angles", *SWEEP_COLUMNS[2:]):
            c = owned(getattr(self, name), float)
            shape = (g,) if name == "angles" else (g * g,)
            if c.shape != shape:
                raise ValueError(f"sweep {name} has shape {c.shape}, want {shape}")
            object.__setattr__(self, name, c)
        for start in range(0, g * g, SWEEP_BLOCK_POINTS):  # in blocks: no full-length temporaries
            block = slice(start, start + SWEEP_BLOCK_POINTS)
            _check_sweep(self.max_overlap[block], self.diag_overlap[block], self.bound_bits[block])

    def columns(self, rows: slice = slice(None)) -> tuple[np.ndarray, ...]:
        """The five columns over ``rows``, in the order of ``SWEEP_COLUMNS``.

        theta and phi are gathered from ``angles`` for those rows only; the
        other three are views of the surface's read-only columns.
        """
        r = range(len(self))[rows]
        k = np.arange(r.start, r.stop, r.step)
        g = self.angles.size
        return (self.angles[k // g], self.angles[k % g],
                self.max_overlap[rows], self.diag_overlap[rows], self.bound_bits[rows])

    def __len__(self) -> int:
        return self.max_overlap.size


REPORT_BLOCK_PAIRS = 32  # pairs per stacked report pass, so its temporaries stay small


def _reports(testers: list[Tester], v: list[UnitaryOperator], w: list[UnitaryOperator],
             a: np.ndarray, runs: list[tuple[str, int, bool]],
             base: float) -> list[SaturationReport]:
    """The report of each tester, all of one kind, on its pair: testers[k] on (v[k], w[k]),
    a[k] = w_k v_k†, runs[k] its (method, evaluations, converged).

    One stacked pass over the pairs forms what ``pair_uncertainty``, ``projective_bound`` or
    ``mes_bound`` and ``is_trivial_measurement`` read, through their own stack-capable
    formulas and checks, so each field is theirs bit for bit: both outcome distributions and
    their entropies, the overlap tables (row 0 for the testers on the Weyl basis, each group
    as one stack), their bounds and, for projective testers, the triviality residuals (an MES
    tester is never trivial).  Only each pair's report is built one by one; an achieved
    value below the bound is an ``InvariantError``.
    """
    kind = testers[0].kind
    # np.array, not np.stack: the same copies of arrays of one shape, at a fraction of the call
    psi = np.array([t.input.amplitudes for t in testers])
    u = np.array([[s.matrix for s in side] for side in (v, w)])  # [side, pair]
    if kind == "projective":
        x = np.array([t.measurement.matrix for t in testers])
        p = projective_probabilities(x, u, psi)
        bounds = EntropicBound.stack(projective_overlaps(x, a), base)
        trivial = (eigen_residuals(x, a) < DEFAULT_TOL).all(axis=-1)
    else:
        r = np.array([t.measurement.elements for t in testers])
        p = mes_probabilities(mes_columns(r), u, psi)
        bounds = [None] * len(testers)
        weyl = weyl_bases(r)
        for ks, table in ((np.flatnonzero(weyl), weyl_table),
                          (np.flatnonzero(~weyl), mes_overlaps)):
            if ks.size:
                for k, bound in zip(ks.tolist(), EntropicBound.stack(table(r[ks], a[ks]), base)):
                    bounds[k] = bound
        trivial = np.zeros(len(testers), dtype=bool)
    # outcome_distribution's slack e w + |w - 1|, e = u.unitarity_error, w the input's weight
    weight = np.array([t.input.weight for t in testers])
    error = np.array([[s.unitarity_error for s in side] for side in (v, w)])
    slack = error * weight + np.abs(weight - 1.0)
    p = computed(checked_probabilities, (p, slack), "%s tester outcome", kind)
    h = entropies(p.reshape(-1, p.shape[-1]), base).reshape(2, -1)
    achieved = (h[0] + h[1]).tolist()
    reports = []
    for k, (t, (method, evaluations, converged)) in enumerate(zip(testers, runs)):
        fields = (EntropyValue(achieved[k], base), bounds[k], t, bool(trivial[k]), method,
                  evaluations, converged)
        reports.append(computed(SaturationReport, fields, "%s report:", method))
    return reports


def _report(tester: Tester, v: UnitaryOperator, w: UnitaryOperator, method: str, base: float,
            evaluations: int = 0, converged: bool = True) -> SaturationReport:
    """Report of ``tester`` on (v, w): the one-pair call of ``_reports``."""
    a = pair_operator(tester.dim, v, w)[None]
    return _reports([tester], [v], [w], a, [(method, evaluations, converged)], base)[0]


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
    return ProjectiveMeasurement.from_matrix(np.array(_su2_entries(theta, phi), dtype=complex))


def _su2_entries(theta: np.ndarray, phi: np.ndarray):
    """Entries x[k][i] of the basis matrices, columns chi_1, chi_2, each broadcast over the angles."""
    phase = np.exp(1j * phi)
    return (np.cos(theta), -np.sin(theta)), (phase * np.sin(theta), phase * np.cos(theta))


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
    return (1 + s2) / 2, (1 - s2) / 2  # i-omega: sweep_pair has refused any other name


def _surface_arrays(pair: str, theta: np.ndarray, phi: np.ndarray):
    """(max_overlap, diag_overlap, bound_bits, deviation), closed form vs matrices cross-checked.

    theta and phi broadcast against each other, and every result has their
    broadcast shape.  Each overlap <chi_i| a |chi_j> is summed entry by entry,
    sum_kl (conj(x_ki) a_kl) x_lj, so no stack of 2x2 matrices is built.
    deviation is the largest closed-form-versus-matrix difference, at most
    1e-12.  bound_bits follows the bounds' rule that a maximum within
    TIE_TOL of 1 is 1.
    """
    a = pair_operator(2, *sweep_pair(pair))
    x = _su2_entries(theta, phi)
    p = [[np.abs(sum(np.conj(x[k][i]) * a[k, l] * x[l][j] for k in (0, 1) for l in (0, 1))) ** 2
          for j in (0, 1)] for i in (0, 1)]
    diag_cf, off_cf = _closed_form_overlaps(pair, theta, phi)
    dev = float(max(
        np.abs(p[0][0] - diag_cf).max(),
        np.abs(p[1][1] - diag_cf).max(),
        np.abs(p[0][1] - off_cf).max(),
        np.abs(p[1][0] - off_cf).max(),
    ))
    if dev > 1e-12:
        raise InvariantError(f"closed-form/matrix overlap mismatch {dev:.3e} exceeds 1e-12")
    max_overlap = np.maximum(np.maximum(p[0][0], p[0][1]), np.maximum(p[1][0], p[1][1]))
    return max_overlap, p[0][0], -np.log2(snap_to_one(max_overlap)) + 0.0, dev


def su2_overlap_point(pair: str, theta: float, phi: float) -> dict[str, float]:
    """Overlap surface sample at one (theta, phi), cross-checked both ways.

    The five values are keyed by ``SWEEP_COLUMNS``.
    """
    theta, phi = float(theta), float(phi)
    arrays = _surface_arrays(pair, np.asarray(theta), np.asarray(phi))[:3]
    computed(_check_sweep, arrays, "overlap surface:")
    return dict(zip(SWEEP_COLUMNS, (theta, phi, *map(float, arrays))))


def su2_overlap_surface(pair: str, grid: int) -> SweepSurface:
    """Overlap surface over the [0, pi] x [0, pi] grid, theta-outer row-major.

    The kernel runs over blocks of whole theta rows, about SWEEP_BLOCK_POINTS
    points each, and fills preallocated columns, so its temporaries do not
    grow with the grid.  Every operation is elementwise: the columns are bit
    for bit those of one pass over the whole grid.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2 points per axis")
    angles = np.linspace(0.0, np.pi, grid)
    columns = [np.empty(grid * grid) for _ in range(3)]
    rows = max(1, SWEEP_BLOCK_POINTS // grid)
    deviation = 0.0
    for start in range(0, grid, rows):
        *block, dev = _surface_arrays(pair, angles[start:start + rows, None], angles[None, :])
        for column, values in zip(columns, block):
            column[start * grid:start * grid + values.size] = values.ravel()
        deviation = max(deviation, dev)
    for array in (angles, *columns):
        array.flags.writeable = False
    return computed(SweepSurface, (angles, *columns, deviation), "overlap surface:")


def _repr_column(c: np.ndarray) -> np.ndarray:
    """``repr`` of each value of ``c`` as an object array, each distinct value formatted once.

    Values are told apart by bit pattern, so -0.0 and 0.0 keep their own strings.
    """
    bits, inverse = np.unique(c.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse]


def sweep_csv_blocks(surface: SweepSurface):
    """The CSV rendering as text blocks: the header, then RENDER_BLOCK_ROWS rows at a time.

    Every field is ``"%.12g" % x``, from one ``format_rows`` call per block.  The blocks
    hold slices of the surface's columns and at most one block of text, so memory stays
    bounded whatever the grid.
    """
    yield ",".join(SWEEP_COLUMNS) + "\n"
    for start in range(0, len(surface), RENDER_BLOCK_ROWS):
        block = surface.columns(slice(start, start + RENDER_BLOCK_ROWS))
        yield format_rows(np.stack(block, axis=1))


def sweep_json_blocks(surface: SweepSurface):
    """``{"records": [...]}`` as text blocks, RENDER_BLOCK_ROWS records at a time.

    One object per row, as ``json.dumps`` writes it: ``repr`` is how it
    writes a finite float, and every sweep value is finite.  Memory stays
    bounded as for ``sweep_csv_blocks``.
    """
    row = "{" + ", ".join(f'"{name}": %s' for name in SWEEP_COLUMNS) + "}"
    separator = ""
    yield '{"records": ['
    for start in range(0, len(surface), RENDER_BLOCK_ROWS):
        block = surface.columns(slice(start, start + RENDER_BLOCK_ROWS))
        cells = np.stack([_repr_column(c) for c in block], axis=1)
        yield separator + ", ".join([row] * len(cells)) % tuple(cells.ravel().tolist())
        separator = ", "
    yield "]}\n"


def sweep_to_csv(surface: SweepSurface) -> str:
    """The whole CSV rendering as one string."""
    return "".join(sweep_csv_blocks(surface))


def sweep_to_json(surface: SweepSurface) -> str:
    """The whole JSON rendering as one string."""
    return "".join(sweep_json_blocks(surface))


def _is_phase_of_identity(a: np.ndarray) -> bool:
    """Whether the matrix a is z I for a z != 0, within DEFAULT_TOL."""
    z = np.trace(a) / len(a)
    return bool(abs(z) > 1e-12 and np.abs(a - z * np.eye(len(a))).max() <= DEFAULT_TOL)


def saturating_tester_by_construction(
    m: ProjectiveMeasurement, v: UnitaryOperator, w: UnitaryOperator
) -> SaturationReport | None:
    """Try to saturate the projective bound with an input of the form v†|chi_i>.

    Such an input makes the v-side outcome deterministic, so the pair
    uncertainty collapses to the w-side entropy, i.e. the entropy of one
    column of |<chi_j| w v† |chi_i>|^2.  That equals the bound exactly
    when the column is uniform on its support with its maximum equal to
    the global maximum overlap, within DEFAULT_TOL.  Returns the report, in
    bits, for the smallest qualifying column index, or None when no column
    qualifies.
    """
    overlaps = m.overlaps(pair_operator(m.dim, v, w))
    global_max = overlaps.max()
    for i in range(m.dim):
        column = overlaps[:, i]
        # never empty: the column sums to ||w v† chi_i||^2 = 1 over d entries, so its max is >= 1/d
        support = column[column > DEFAULT_TOL]
        if (support.max() - support.min() <= DEFAULT_TOL
                and abs(support.max() - global_max) <= DEFAULT_TOL):
            return _report(row_tester(m, v, i), v, w, "row-construction", 2.0)
    return None


ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the directional derivative
MAX_BACKTRACKS = 30  # trial points of one line search before a start counts as stationary
GRADIENT_TOL = 1e-10  # a start whose gradient norm falls below this has converged
STALL_DECREASE = 1e-14  # a start whose step lowers f by less than this fraction has stalled
BOUND_REACHED = 1e-14  # nats above the bound at which an input search stops


@dataclass(frozen=True, eq=False)
class _Descent:
    """A batch of starts after ``_descend``; one objective value per start."""

    x: np.ndarray
    f: np.ndarray
    evaluations: int
    converged: bool  # False when the budget, not the stopping rule, ended the run


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a_k, b_k> for each start k of two batches."""
    n = a.shape[0]
    return (a.conj() * b).real.reshape(n, -1).sum(axis=1)


def _descend(cost_grad, line, transport, x: np.ndarray, budget: int, target: float, *,
             interpolate: bool) -> _Descent:
    """Riemannian Polak-Ribiere+ conjugate gradients with Armijo backtracking.

    ``x`` holds one start per leading index, and every start moves at once;
    it is updated in place.  A trial step t that fails Armijo is halved or, with
    ``interpolate``, moved to the minimiser of the quadratic through f(0), the
    slope and f(t) within [t/10, t/2], the next first trial then being at most 4x
    the step just accepted.
    ``cost_grad(x)`` gives the objective of each start and its gradient, in a
    representation where Re<g, eta> is the derivative along the curve
    ``line(x, eta)(t, rows)``; ``transport(x, eta)`` carries a direction to
    the tangent space at x.  A start stops when its gradient norm falls below
    GRADIENT_TOL, or when backtracking finds no decrease or one below
    STALL_DECREASE of its value (rounding noise); every start stops once one
    reaches ``target``, a value none can improve on.  ``budget`` counts
    objective values, one per start per trial point; a run that would exceed
    it stops where it is, not converged.
    """
    n = x.shape[0]
    lowest, growth = (0.1, 4.0) if interpolate else (0.5, np.inf)  # halving: a clip to [t/2, t/2]
    f, g = cost_grad(x)
    used = n
    eta = -g
    gg = _inner(g, g)
    step = 1.0 / np.sqrt(np.maximum(gg, 1e-300))  # first trial: a unit-length move
    active = np.sqrt(gg) > GRADIENT_TOL
    while active.any() and f.min() > target:
        rows = np.flatnonzero(active)
        slope = _inner(g[rows], eta[rows])
        at = line(x[rows], eta[rows])
        t = step[rows]
        # Armijo backtracking, every start of ``rows`` at once; fancy indexing copies
        x_new, f_new, g_new = x[rows], f[rows], g[rows]
        accepted = np.zeros(rows.size, dtype=bool)
        pending = np.arange(rows.size)
        for _ in range(MAX_BACKTRACKS):
            if used + pending.size > budget:
                return _Descent(x, f, used, False)
            xt = at(t[pending], pending)
            ft, gt = cost_grad(xt)
            used += pending.size
            tp, sp, f0 = t[pending], slope[pending], f_new[pending]
            ok = ft <= f0 + ARMIJO_SLOPE * tp * sp
            done = pending[ok]
            accepted[done] = True
            x_new[done], f_new[done], g_new[done] = xt[ok], ft[ok], gt[ok]
            pending, tp, sp, excess = pending[~ok], tp[~ok], sp[~ok], (ft - f0 - tp * sp)[~ok]
            if pending.size == 0:
                break
            t[pending] = np.clip(-sp * tp * tp / (2.0 * excess), lowest * tp, 0.5 * tp)
        # a start that found no decrease is stationary to working precision
        active[rows[~accepted]] = False
        moved = rows[accepted]
        if moved.size == 0:
            break
        x_new, f_new, g_new = x_new[accepted], f_new[accepted], g_new[accepted]
        beta = np.maximum(0.0, _inner(g_new, g_new - transport(x_new, g[moved])) / gg[moved])
        eta_new = -g_new + beta.reshape((-1,) + (1,) * (x.ndim - 1)) * transport(x_new, eta[moved])
        uphill = _inner(g_new, eta_new) >= 0
        eta_new[uphill] = -g_new[uphill]
        decrease = f[moved] - f_new
        # next first trial: the step that repeats this decrease on the new slope, <= growth t
        repeat = 2.0 * decrease / np.maximum(-_inner(g_new, eta_new), 1e-300)
        step[moved] = np.minimum(repeat, growth * t[accepted])
        gg[moved] = _inner(g_new, g_new)
        active[moved] = (np.sqrt(gg[moved]) > GRADIENT_TOL) & (
            decrease > STALL_DECREASE * np.abs(f[moved])
        )
        x[moved], f[moved], g[moved], eta[moved] = x_new, f_new, g_new, eta_new
    return _Descent(x, f, used, True)


def _log_search(name: str, method: str, evaluations: int, starts: int, converged: bool) -> None:
    log.info(
        "%s: %s, %d evaluations from %d starts, converged %s",
        name, method, evaluations, starts, converged,
    )


def _sphere_line(psi: np.ndarray, eta: np.ndarray):
    """Normalised psi + t eta, for each selected start."""

    def at(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        y = psi[rows] + t[:, None] * eta[rows]
        return y / np.linalg.norm(y, axis=1, keepdims=True)

    return at


def _sphere_tangent(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return eta - _inner(psi, eta)[:, None] * psi


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

    Runs ``restarts`` complex-normal starts from ``default_rng(seed)`` at once
    through Riemannian conjugate gradients on the unit sphere, with the
    closed-form gradient of H(|X† v psi|^2) + H(|X† w psi|^2).  ``budget``
    counts objective values, one per start per trial point; the search stops
    early once a start reaches the bound.  The best input found is reported,
    with ``converged`` false when the budget ended the search (best-so-far,
    never a claim of optimality).  Deterministic for fixed
    (seed, budget, restarts).
    """
    validate_counts(("seed", seed, 0), ("budget", budget, 1), ("restarts", restarts, 1))
    validate_base(base)
    d = m.dim
    x = m.matrix
    if _is_phase_of_identity(pair_operator(d, v, w)):
        # w = phase * v: every basis is trivial and any chi_i input gives 0.
        _log_search("input search", "numerical-search", 0, 0, True)
        return _report(row_tester(m, v), v, w, "numerical-search", base)

    # rows of b are the amplitudes of both sides: H_v + H_w = -sum p ln p over all 2d
    b = np.vstack((x.conj().T @ v.matrix, x.conj().T @ w.matrix))

    def cost_grad(psi: np.ndarray):
        amps = psi @ b.T
        p = amps.real ** 2 + amps.imag ** 2
        ln_p = np.log(np.maximum(p, 1e-300))  # p ln p -> 0 as p -> 0
        g = -2.0 * ((ln_p + 1.0) * amps) @ b.conj()
        return -(p * ln_p).sum(axis=1), _sphere_tangent(psi, g)

    rng = np.random.default_rng(seed)
    n = min(restarts, budget)  # a start costs at least one evaluation: draw no more
    starts = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    floor = projective_bound(m, v, w, math.e).value + BOUND_REACHED
    run = _descend(cost_grad, _sphere_line, _sphere_tangent, starts, budget, floor,
                   interpolate=True)
    best = run.x[int(np.argmin(run.f))]
    _log_search("input search", "numerical-search", run.evaluations, len(starts), run.converged)
    tester = Tester.projective(PureState(best), m)
    return _report(tester, v, w, "numerical-search", base, run.evaluations, run.converged)


def _unitary_line(x: np.ndarray, eta: np.ndarray):
    """exp(t eta) x for skew-Hermitian eta, from one eigendecomposition of i eta."""
    lam, vecs = np.linalg.eigh(1j * eta)  # eta = -i V diag(lam) V†
    vx = vecs.conj().swapaxes(-1, -2) @ x

    def at(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * t[:, None] * lam[rows])
        return (vecs[rows] * phases[:, None, :]) @ vx[rows]

    return at


def _same(b: np.ndarray) -> np.ndarray:
    """The projective table, and its own adjoint: the identity map."""
    return b


def _same_direction(x: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Directions on U(d) are right-invariant skew-Hermitian generators: no transport."""
    return eta


class _Found(NamedTuple):
    """A flat X (a basis, or the rotation M_i = X N_i of the Weyl operators) and its method."""

    matrix: np.ndarray
    method: str
    evaluations: int


class _Reference(NamedTuple):
    """A flat b = Y† diag(eigenvalues) Y, and the method of a pair carried over from it.

    ``eigenvalues`` None stands for any spectrum, in its angle order: X = E Y for an
    eigenbasis E of a is a candidate that reads a's spectrum alone.
    """

    eigenvalues: np.ndarray | None
    y: np.ndarray
    method: str


class _Flatness(NamedTuple):
    """A flavour: X is flat when the d x d table T(X† a X), linear in X† a X, has |T|^2 = level.

    Each entry of T stands for ``repeats`` overlaps.  ``rotations`` are (X, method)
    candidates tried on every pair as they are; ``references`` are spectrum references,
    tried in order; ``testers(X, V)`` are the testers of a stack of flat X, each for its
    pair (V, W) of the matching stack of V, built and checked as one stack (the stack X is
    handed over: it is made read-only, and a projective tester owns its slice as is).
    """

    name: str
    table: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    level: float
    repeats: int
    rotations: tuple[tuple[np.ndarray, str], ...]
    references: tuple[_Reference, ...]
    testers: Callable[[np.ndarray, np.ndarray], list[Tester]]


def _zadoff_chu(d: int) -> np.ndarray:
    """Rows exp(i pi u j (j + d mod 2) / d) for u coprime to d, u < d (2d at even d)."""
    u = np.array([u for u in range(1, d if d % 2 else 2 * d) if math.gcd(u, d) == 1])
    j = np.arange(d)
    return np.exp(1j * np.pi * (u[:, None] * j * (j + d % 2) % (2 * d)) / d)


def _match_up_to_phase(lam: np.ndarray, target: np.ndarray,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orders sigma with lam[k, sigma[k, j]] = mu_k target[j], one phase mu_k per row k.

    ``lam`` holds n rows of d unit-modulus numbers, ``target`` d of them, and
    angles match within tol.  The circle is cut in the middle of the widest
    gap between target angles, at least 2 pi / d wide, so no angle within tol
    of a target angle wraps across the cut.  Each candidate mu takes one
    number of a row onto the first target angle past the cut; sorting the
    angles of the row / mu past the cut then matches them to the sorted
    target angles.  Returns the (n, d) orders and whether each row matched;
    the order of a row that did not is meaningless.
    """
    two_pi = 2 * np.pi
    phi = np.angle(target)
    points = np.sort(phi % two_pi)
    gaps = np.diff(points, append=points[0] + two_pi)
    k = int(np.argmax(gaps))
    cut = points[k] + gaps[k] / 2
    ref = (phi - cut) % two_pi
    targets = np.argsort(ref, kind="stable")
    theta = np.angle(lam)
    rel = (theta[:, None, :] - (theta - phi[targets[0]])[:, :, None] - cut) % two_pi  # [k, mu, j]
    picks = np.argsort(rel, axis=2, kind="stable")
    matched = np.abs(np.take_along_axis(rel, picks, axis=2) - ref[targets]).max(axis=2) <= tol
    sigma = np.empty(lam.shape, dtype=targets.dtype)
    sigma[:, targets] = picks[np.arange(len(lam)), np.argmax(matched, axis=1)]
    return sigma, matched.any(axis=1)


@functools.cache
def _projective_flatness(d: int) -> _Flatness:
    """Flat bases X: every |<x_i| a |x_j>|^2 = 1/d; built once per d, its arrays read-only.

    The references are first the Fourier orders E_σ F of an eigenbasis E of a and the
    DFT F, flat iff the ordered spectrum is bi-unimodular: Y = F with its rows permuted.
    Then the Zadoff-Chu sequences, whose DFTs have constant modulus (Chu, IEEE Trans.
    IT 18, 1972): each is flat in the DFT basis F.
    """
    dft = dft_matrix(d)
    # every order at d <= 4 also covers bi-unimodular families that are not Zadoff-Chu,
    # such as (1, a, 1, -a) at d = 4
    orders = np.array(list(permutations(range(d))) if d <= 4 else [range(d)])
    ys, zs = dft[np.argsort(orders, axis=1)], _zadoff_chu(d)
    for shared in (dft, ys, zs):
        shared.flags.writeable = False
    fourier = tuple(_Reference(None, y, "row-construction") for y in ys)
    zadoff_chu = tuple(_Reference(z, dft, "zadoff-chu-order") for z in zs)

    def testers(x: np.ndarray, v: np.ndarray) -> list[Tester]:
        """The inputs V†|x_0> of ``row_tester``, formed and checked for the whole stack."""
        x.flags.writeable = False  # each measurement owns its read-only slice as is
        return list(map(Tester, PureState.stack(row_inputs(x, v)), ProjectiveMeasurement.stack(x)))

    return _Flatness("flat-basis search", _same, _same, 1.0 / d, 1, (), fourier + zadoff_chu,
                     testers)


def _mes_flatness(weyl: np.ndarray) -> _Flatness:
    """Rotations X of the Weyl stack ``weyl``, M_i = X N_i: every |Tr(M_i† a M_j) / d|^2 = 1/d^2.

    With b = X† a X, Tr(M_i† a M_j) = Tr(N_j N_i† b) and N_j N_i† is a phase times N_(j-i):
    the table is the d^2 Weyl coefficients c_k = Tr(N_k† b) / d, each repeated d^2 times.
    The one rotation, the identity, covers the Weyl-covariant pairs.  The tester of a flat
    X for the pair (v, w) is the MES basis X N_i X† v / sqrt(d).
    """
    d = weyl.shape[-1]
    vec = weyl.reshape(d * d, d * d)
    vec_h = vec.conj().T

    def table(b: np.ndarray) -> np.ndarray:
        """c_k = Tr(N_k† b) / d, for each b of a stack."""
        return (b.reshape(*b.shape[:-2], d * d) @ vec_h).reshape(b.shape) / d

    def adjoint(g: np.ndarray) -> np.ndarray:
        """K = sum_k G_k N_k / d: Re Tr(K† db) = Re sum conj(G_k) dc_k."""
        return (g.reshape(*g.shape[:-2], d * d) @ vec).reshape(g.shape) / d

    def testers(x: np.ndarray, v: np.ndarray) -> list[Tester]:
        x = x[:, None]
        r = x @ weyl @ x.conj().swapaxes(-1, -2) @ v[:, None] / math.sqrt(d)
        r.flags.writeable = False  # each measurement owns its read-only slice as is
        return [Tester(mes_state(d), m) for m in MesMeasurement.stack(r)]

    rotations = ((np.eye(d, dtype=complex), "row-construction"),)
    return _Flatness("MES search", table, adjoint, 1.0 / (d * d), d * d, rotations, (), testers)


def _flat(kind: _Flatness, a: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    """Whether T(X† a X) is flat at ``kind.level`` within tol; a and X may be stacks."""
    t = kind.table(in_basis(x, a))
    return np.abs(np.abs(t) ** 2 - kind.level).max(axis=(-2, -1)) <= tol


def _search_flat(a: np.ndarray, kind: _Flatness, tol: float, budget: int, restarts: int,
                 seed: int) -> _Found | None:
    """A flat X for a, from f(X) = repeats * sum (|T(X† a X)|^2 - level)^2 on U(d), or None.

    ``_descend`` runs along exp(t eta) X from Haar starts drawn from ``default_rng(seed)``
    one after another until one is flat, ``restarts`` are spent or ``budget`` objective
    values are used.  One log line reports it.
    """

    def cost_grad(x: np.ndarray):
        xh = x.conj().swapaxes(-1, -2)
        ax = a @ x
        t = kind.table(xh @ ax)
        r = t.real ** 2 + t.imag ** 2 - kind.level
        k = kind.adjoint(4.0 * kind.repeats * r * t)
        gamma = ax @ k.conj().swapaxes(-1, -2) + a.conj().T @ x @ k
        w = gamma @ xh
        return kind.repeats * (r * r).sum(axis=(-2, -1)), 0.5 * (w - w.conj().swapaxes(-1, -2))

    rng = np.random.default_rng(seed)
    used, converged, starts, found = 0, True, 0, None
    while found is None and starts < restarts and used < budget:
        starts += 1
        x0 = haar_matrix(len(a), rng)[None]
        # halving: 1279 of 3240 d = 3 full-space starts ended flat, against 1215 interpolating
        run = _descend(cost_grad, _unitary_line, _same_direction, x0, budget - used, tol * tol,
                       interpolate=False)
        used += run.evaluations
        converged = run.converged
        if _flat(kind, a, run.x[0], tol):
            found = run.x[0]
    method = "numerical-search" if found is not None else "not-found"
    _log_search(kind.name, method, used, starts, found is not None or converged)
    return None if found is None else _Found(found, "numerical-search", used)


def _flatten_class(a: np.ndarray, lam: np.ndarray, bases: np.ndarray, kind: _Flatness, tol: float,
                   budget: int, restarts: int, seeds: list[int]) -> list[_Found | None]:
    """A flat X_k for each pair a_k of one spectrum class, or None; at d >= 2 none is z I.

    a_k = mu_k B_k diag(lam) B_k† for the bases B_k = ``bases[k]`` (B_0 an eigenbasis of
    a_0), so a flat b = Y† diag(lam) Y is carried to all pairs in one product: X_k = B_k Y
    gives X_k† a_k X_k = mu_k b, with 0 evaluations.  Stages over the pairs not yet flat,
    each pair reporting the first that flattened it:

    1. the rotations, each on every pair;
    2. each reference: one with no eigenvalues checked on the first pair and, if flat, kept
       there and carried to the pairs after it;
       one whose spectrum matches lam up to a phase, carried;
    3. the first flat pair's unitary, carried (``spectral-transport``);
    4. each pair's search in pair order, seeded ``seeds[k]``, each success carried.
    """
    found: list[_Found | None] = [None] * len(a)

    def pending() -> list[int]:
        return [k for k, f in enumerate(found) if f is None]

    def keep(k: int, x: np.ndarray, method: str) -> None:
        _log_search(kind.name, method, 0, 0, True)
        found[k] = _Found(x, method, 0)

    def settle(ks: list[int], x: np.ndarray, method: str) -> None:
        """Keep X for each pair of ks that it flattens: one X for all, or one X per pair."""
        xs = np.broadcast_to(x, (len(ks), *x.shape[-2:]))
        for k, x_k, flat in zip(ks, xs, _flat(kind, a[ks], xs, tol)):
            if flat:
                keep(k, x_k, method)

    def carry(ref: _Reference) -> None:
        """X_k = B_k Y for each pair not yet flat, from a flat b = Y† diag(lam) Y."""
        ks = pending()
        if ks:
            settle(ks, bases[ks] @ ref.y, ref.method)

    def carried(k: int, method: str) -> _Reference:
        """Flat pair k's X_k as a reference on lam: Y = B_k† X_k."""
        return _Reference(lam, bases[k].conj().T @ found[k].matrix, method)

    for x, method in kind.rotations:  # stage 1
        settle(pending(), x, method)
    for ref in kind.references:  # stage 2
        ks = pending()
        if not ks:
            break
        if ref.eigenvalues is None:  # reads lam alone: one check, then carried if flat
            x = bases[ks[0]] @ ref.y
            if _flat(kind, a[ks[0]], x, tol):
                keep(ks[0], x, ref.method)
                carry(ref)
            continue
        order, matched = _match_up_to_phase(lam[None], ref.eigenvalues, tol)
        if matched[0]:  # lam[order] = mu Λ: Y with Y[order] = ref.y has Y† diag(lam) Y = mu b
            carry(_Reference(lam, ref.y[np.argsort(order[0])], ref.method))
    if 0 < len(pending()) < len(a):  # stage 3: a pair is flat, and one is not
        carry(carried(next(k for k, f in enumerate(found) if f), "spectral-transport"))
    for k, seed in enumerate(seeds):  # stage 4
        if found[k] is None:
            found[k] = _search_flat(a[k], kind, tol, budget, restarts, seed)
            if found[k]:
                carry(carried(k, "spectral-transport"))
    return found


@dataclass(frozen=True, eq=False)
class MuubCertification:
    """Per-pair saturation witnesses for two unitary bases."""

    certified: bool
    reports: tuple[tuple[SaturationReport | None, ...], ...]  # indexed [m][n]
    trace_moduli: np.ndarray  # |Tr(W_m V_n†)|, indexed [m][n]
    kappa: float | None  # is_muub's kappa, None when is_muub says no


def muub_certify_by_saturation(
    b1: UnitaryBasis,
    b2: UnitaryBasis,
    tol: float = DEFAULT_TOL,
    budget: int = 5000,
    restarts: int = 20,
    seed: int = 0,
) -> MuubCertification:
    """Certify mutual unbiasedness of two unitary bases through saturation.

    For every cross pair (W_m from ``b2``, V_n from ``b1``) a measurement
    is sought in which all overlaps of a = W_m V_n† are flat (1/d for
    d-element bases in a projective basis; 1/d^2 for d^2-element bases in
    an MES basis, the Weyl operators rotated by one unitary).  Each success
    yields a saturating tester reaching the maximal bound, in bits.  Certification
    requires ``is_muub`` within ``tol`` and every pair to succeed.  Search
    failures are reported as not-found within budget, never as nonexistence.

    A tol of 1/n or more, for n-element bases, is refused: an overlap of 0 would pass as
    flat.  The verdict goes first, and it is the one refusal: when ``is_muub`` says no, the
    certification is refused before any eigendecomposition or search, every report is None,
    which here means "not sought", not "not found", and one INFO line gives the deciding
    numbers.  Once it says yes, no pair at d >= 2 is a phase of the identity (X† (z I) X =
    z I, never flat): |Tr(z I)|^2 = d^2 is at least 2 off the d^2/n that it requires.

    Otherwise every a is eigendecomposed in one stacked ``eig_unitary`` call, within
    the unitarity error of its two factors, and joins the first class whose first pair's
    spectrum matches its own up to a phase.  ``_flatten_class`` flattens each class; a
    pair's search has ``budget`` objective values and the seed ``seed + 7919 m + n``.
    One INFO line counts each method and the spectrum classes searched.
    """
    validate_tol(tol, 1 / b1.subspace_dim)
    validate_counts(("seed", seed, 0), ("budget", budget, 1), ("restarts", restarts, 1))
    d = b1.dim
    cols = len(b1.elements)
    reports: list[list[SaturationReport | None]] = [[None] * cols for _ in b2.elements]
    table = hs_table(b1, b2)  # is_muub's table, so its verdict bit for bit; refuses other shapes
    muub, kappa, spread, expected, off = muub_verdict(table, d, tol)
    trace_moduli = table.T
    if not muub:
        log.info("MUUB certification: refused before any search: is_muub: max ||Tr(W V†)|^2 - "
                 f"kappa| = {spread!r}, |kappa - {expected:g}| = {off!r}, tol {tol!r}")
        return MuubCertification(False, tuple(map(tuple, reports)), trace_moduli, None)
    v, w = (np.stack([e.matrix for e in b.elements]) for b in (b1, b2))
    a = (w[:, None] @ v.conj().swapaxes(1, 2)).reshape(-1, d, d)  # pair (m, n) at m * cols + n
    kind = _projective_flatness(d) if b1.subspace_dim == d else _mes_flatness(weyl_operators(d))
    tols = [product_unitarity_tol(wm, vn, tol) for wm in b2.elements for vn in b1.elements]
    lam, eigvecs = eig_unitary(a, tols)
    found: dict[int, _Found] = {}  # by pair index m * cols + n
    # the sorted gaps between a's eigenvalue angles: a phase keeps them, and a match within
    # tol moves each by at most 2 tol, so only the pairs whose gaps are that close are matched
    angles = np.sort(np.angle(lam) % (2 * np.pi), axis=1)
    gaps = np.sort(np.diff(angles, axis=1, append=angles[:, :1] + 2 * np.pi), axis=1)
    left = np.ones(len(a), dtype=bool)
    while left.any():  # one spectrum class a round: the pairs left that match the first left
        rest = np.flatnonzero(left)
        near = rest[np.abs(gaps[rest] - gaps[rest[0]]).max(axis=1) <= 2 * tol + 1e-12]
        orders, same = _match_up_to_phase(lam[near], lam[near[0]], tol)
        same[0], orders[0] = True, np.arange(d)
        members, orders = near[same], orders[same]
        left[members] = False
        # lam_k[orders[k]] = mu_k lam_0: a_k = mu_k B_k diag(lam_0) B_k†, B_k = E_k[:, orders[k]]
        bases = np.take_along_axis(eigvecs[members], orders[:, None, :], 2)
        flats = _flatten_class(a[members], lam[members[0]], bases, kind, tol, budget, restarts,
                               [seed + 7919 * (i // cols) + i % cols for i in members.tolist()])
        found.update((int(i), f) for i, f in zip(members, flats) if f)

    pairs = sorted(found)
    for start in range(0, len(pairs), REPORT_BLOCK_PAIRS):  # one stacked report pass a block
        block = pairs[start:start + REPORT_BLOCK_PAIRS]
        ms, ns = zip(*(divmod(i, cols) for i in block))
        testers = kind.testers(np.array([found[i].matrix for i in block]), v[list(ns)])
        runs = [(found[i].method, found[i].evaluations, True) for i in block]
        block_reports = _reports(testers, [b1.elements[n] for n in ns],
                                 [b2.elements[m] for m in ms], a[block], runs, 2.0)
        for m_idx, n_idx, report in zip(ms, ns, block_reports):
            reports[m_idx][n_idx] = report
    methods = Counter(r.method if r else "not-found" for row in reports for r in row)
    counts = ", ".join(f"{m} {methods[m]}" for m in (*REPORT_METHODS, "not-found"))
    # each pair found by its own search found one spectrum class; carried pairs are transports
    log.info("MUUB certification: %s; %d spectrum classes searched", counts,
             methods["numerical-search"])
    certified = len(found) == len(a)  # is_muub has passed
    return MuubCertification(certified, tuple(map(tuple, reports)), trace_moduli, kappa)


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
    distance, indices, weights, eigvecs = _adjoint_product_hull(v, w, tol)
    if distance > tol:
        return False, None, False
    chi = eigvecs[:, list(indices)] @ np.sqrt(weights)
    chi /= np.linalg.norm(chi)
    e1 = v.matrix @ chi
    e2 = w.matrix @ chi
    e2 = e2 - np.vdot(e1, e2) * e1
    e2 /= np.linalg.norm(e2)
    q, _ = np.linalg.qr(np.column_stack([e1, e2, np.eye(v.dim)]))
    measurement = ProjectiveMeasurement.from_matrix(q)
    tester = Tester.projective(PureState(chi), measurement)
    return True, tester, is_trivial_measurement(measurement, v, w)
