import dataclasses
import functools
import importlib
import json
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_matrix
from utp import saturation
from utp.linalg import eig_unitary
from utp.operators import (
    UnitaryBasis,
    UnitaryOperator,
    clock_shift_pair,
    dft_matrix,
    hs_table,
    identity,
    is_muub,
    is_perfectly_distinguishable,
    omega,
    pair_operator,
    pauli,
    weyl_operators,
)
from utp.saturation import (
    SWEEP_COLUMNS,
    SweepSurface,
    muub_certify_by_saturation,
    saturating_tester_by_construction,
    search_min_uncertainty,
    su2_basis,
    su2_overlap_point,
    su2_overlap_surface,
    sweep_pair,
    sweep_to_csv,
    sweep_to_json,
    zero_bound_witness,
)
from utp.testers import (
    MesMeasurement,
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_basis,
    computational_basis,
    is_trivial_measurement,
    mes_state,
    outcome_distribution,
    povm_from_projective,
    row_inputs,
    trivial_tester,
)
from utp.uncertainty import (
    EntropicBound,
    mes_bound,
    pair_uncertainty,
    povm_bound,
    projective_bound,
    snap_to_one,
    weyl_bases,
    weyl_table,
)


def flat_instance(d: int, seed: int):
    """(measurement, v, w) for which the construction saturates at log2(d)."""
    rng = np.random.default_rng(seed)
    x = haar_matrix(d, rng)
    dft = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    v = UnitaryOperator(haar_matrix(d, rng))
    w = UnitaryOperator(x @ dft @ x.conj().T @ v.matrix)
    from utp.testers import ProjectiveMeasurement

    return ProjectiveMeasurement.from_matrix(x), v, w


# --- su2 basis and surfaces --------------------------------------------------

def test_su2_basis_computational_at_zero():
    m = su2_basis(0.0, 1.234)
    assert np.allclose(np.abs(m.matrix), np.eye(2), atol=1e-12)


def test_su2_basis_quarter_angles():
    m = su2_basis(np.pi / 4, np.pi / 2)
    expected0 = np.array([1, 1j]) / np.sqrt(2)
    expected1 = np.array([-1, 1j]) / np.sqrt(2)
    assert np.abs(np.vdot(m.states[0].amplitudes, expected0)) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.vdot(m.states[1].amplitudes, expected1)) == pytest.approx(1.0, abs=1e-12)


def test_su2_basis_orthonormal_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = su2_basis(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        gram = m.matrix.conj().T @ m.matrix
        assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_su2_basis_rejects_out_of_range():
    with pytest.raises(ValueError, match="0, pi"):
        su2_basis(-0.1, 0.0)
    with pytest.raises(ValueError, match="0, pi"):
        su2_basis(0.0, 3.5)


def test_closed_form_identity_on_grid():
    # off-diagonal form equals (1 - sin^2(2t) sin^2(p)); this is the identity
    # that rules out a cos^2(2 phi) variant of the off-diagonal term
    t = np.linspace(0, np.pi, 101)
    p = np.linspace(0, np.pi, 101)
    th, ph = np.meshgrid(t, p, indexing="ij")
    lhs = (1 - np.sin(2 * th) ** 2 * np.sin(ph) ** 2) / 2
    rhs = (
        np.cos(th) ** 4
        + np.sin(th) ** 4
        + 2 * np.cos(th) ** 2 * np.sin(th) ** 2 * np.cos(2 * ph)
    ) / 2
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
def test_surface_matches_matrix_products(pair):
    # su2_overlap_surface cross-checks internally at 1e-12; re-derive the
    # maximum here from plain matrix products as an independent oracle
    theta, phi, max_overlap, _, _ = su2_overlap_surface(pair, 21).columns(slice(None, None, 17))
    v, w = identity(2), pauli("Y") if pair == "i-sigmay" else omega(-1)
    a = w.matrix @ v.matrix.conj().T
    for t, f, peak in zip(theta, phi, max_overlap):
        m = su2_basis(t, f).matrix
        overlaps = np.abs(m.conj().T @ a @ m) ** 2
        assert overlaps.max() == pytest.approx(peak, abs=1e-12)


def _stacked_einsum_surface(pair: str, grid: int):
    """The five columns by the kernel the sweep once used: one stacked 2x2 matrix per point."""
    v, w = sweep_pair(pair)
    a = w.matrix @ v.matrix.conj().T
    angles = np.linspace(0.0, np.pi, grid)
    th, ph = np.meshgrid(angles, angles, indexing="ij")
    x = np.empty(th.shape + (2, 2), dtype=complex)
    x[..., 0, 0] = np.cos(th)
    x[..., 1, 0] = np.exp(1j * ph) * np.sin(th)
    x[..., 0, 1] = -np.sin(th)
    x[..., 1, 1] = np.exp(1j * ph) * np.cos(th)
    p = np.abs(np.einsum("...ki,kl,...lj->...ij", x.conj(), a, x)) ** 2
    max_overlap = p.max(axis=(-2, -1))
    bound_bits = -np.log2(snap_to_one(max_overlap)) + 0.0
    return [c.ravel() for c in (th, ph, max_overlap, p[..., 0, 0], bound_bits)]


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
def test_sweep_kernel_matches_stacked_einsum(pair):
    # the entry-by-entry sums add the terms in another order than einsum: overlaps (at most 1)
    # may move by a few ulps, and -log2 turns one ulp of an overlap m into <= 2^-52 / (m ln 2)
    surface = su2_overlap_surface(pair, 101)
    reference = _stacked_einsum_surface(pair, 101)
    for name, new, old in zip(SWEEP_COLUMNS, surface.columns(), reference):
        if pair == "i-sigmay" or name in ("theta", "phi"):
            assert np.array_equal(new.view(np.int64), old.view(np.int64)), name
        tol = 2e-15 if name == "bound_bits" else 1e-15
        assert np.abs(new - old).max() <= tol, name


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
@pytest.mark.parametrize("block_points", [None, 1000])
def test_sweep_blocks_match_one_pass_over_the_grid(monkeypatch, pair, block_points):
    # grid 300 spans two kernel blocks of about 2^16 points, or 100 blocks of 3 theta rows
    grid = 300
    if block_points is not None:
        monkeypatch.setattr(saturation, "SWEEP_BLOCK_POINTS", block_points)
    one_pass = saturation._surface_arrays
    calls = []
    monkeypatch.setattr(saturation, "_surface_arrays", lambda *a: calls.append(1) or one_pass(*a))
    surface = su2_overlap_surface(pair, grid)
    rows = saturation.SWEEP_BLOCK_POINTS // grid
    assert len(calls) == -(-grid // rows) > 1
    angles = np.linspace(0.0, np.pi, grid)
    *values, deviation = one_pass(pair, angles[:, None], angles[None, :])
    reference = [*np.meshgrid(angles, angles, indexing="ij"), *values]
    for name, new, old in zip(SWEEP_COLUMNS, surface.columns(), reference):
        assert np.array_equal(new.view(np.int64), old.ravel().view(np.int64)), name
    assert surface.max_deviation == deviation


def test_sweep_surface_owns_read_only_columns_without_copying():
    frozen = _columns()
    for c in frozen.values():
        c.flags.writeable = False
    surface = SweepSurface(**frozen, max_deviation=0.0)
    assert all(getattr(surface, k) is c for k, c in frozen.items())
    writable = _columns()
    surface = SweepSurface(**writable, max_deviation=0.0)
    for k, c in writable.items():  # a writable column is copied, and the caller's stays writable
        assert getattr(surface, k) is not c and not np.shares_memory(getattr(surface, k), c)
        assert c.flags.writeable and not getattr(surface, k).flags.writeable


def test_surface_spot_values():
    assert su2_overlap_point("i-sigmay", np.pi / 4, np.pi / 2)["max_overlap"] == pytest.approx(1.0)
    assert su2_overlap_point("i-sigmay", 0.0, 0.77)["max_overlap"] == pytest.approx(1.0)
    assert su2_overlap_point("i-omega", np.pi / 4, 0.0)["max_overlap"] == pytest.approx(0.5)
    assert su2_overlap_point("i-sigmay", np.pi / 4, np.pi / 4)["max_overlap"] == pytest.approx(0.5)


def test_sweep_record_invariants():
    # one row: a 1 x 1 surface
    with pytest.raises(ValueError, match="bound_bits"):
        SweepSurface([0.0], [0.5], [0.5], [3.0], max_deviation=0.0)
    with pytest.raises(ValueError, match="diagonal"):
        SweepSurface([0.0], [0.25], [0.5], [2.0], max_deviation=0.0)


@pytest.mark.parametrize(
    "pair, theta, phi", [("i-sigmay", np.pi / 4, 9e-7), ("i-omega", np.pi / 4, np.pi / 2 - 1.3e-6)]
)
def test_sweep_point_near_one_follows_snap_rule(pair, theta, phi):
    # the maximum lies within (6.9e-13, 1e-12) of 1: snapped to 1, so the bound is 0,
    # which differs from the unsnapped -log2(max) by more than 1e-12
    point = su2_overlap_point(pair, theta, phi)
    assert 1.0 - 1e-12 < point["max_overlap"] < 1.0 - 6.9e-13
    assert point["bound_bits"] == 0.0


def _columns(**changes):
    """A hand-built 2 x 2 surface: two angles, four rows."""
    cols = {
        "angles": [0.0, 0.5],
        "max_overlap": [0.5, 1.0, 0.25, 1.0],
        "diag_overlap": [0.5, 0.25, 0.125, 0.5],
        "bound_bits": [1.0, 0.0, 2.0, 0.0],
    }
    cols.update(changes)
    return {k: np.array(v) for k, v in cols.items()}


def test_sweep_surface_invariants_match_record():
    SweepSurface(**_columns(), max_deviation=0.0)
    for changes, message in [
        ({"bound_bits": [1.0, 3.0, 2.0, 0.0]}, "bound_bits is not -log2(max_overlap)"),
        ({"diag_overlap": [0.5, 0.25, 0.5, 0.5]}, "max_overlap below diagonal overlap"),
    ]:
        with pytest.raises(ValueError) as from_surface:
            SweepSurface(**_columns(**changes), max_deviation=0.0)
        assert str(from_surface.value) == message
    with pytest.raises(ValueError, match="shape"):
        SweepSurface(**_columns(bound_bits=[1.0, 0.0, 2.0]), max_deviation=0.0)
    with pytest.raises(ValueError, match="shape"):  # three angles want nine rows
        SweepSurface(**_columns(angles=[0.0, 0.5, 1.0]), max_deviation=0.0)


def test_sweep_invariants_refuse_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="bound_bits"):
        SweepSurface(**_columns(max_overlap=[nan, 1.0, 0.25, 1.0]), max_deviation=0.0)
    with pytest.raises(ValueError, match="diagonal"):
        SweepSurface(**_columns(diag_overlap=[0.5, nan, 0.125, 0.5]), max_deviation=0.0)


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
def test_sweep_surface_indexing(pair):
    grid = 9
    surface = su2_overlap_surface(pair, grid)
    assert len(surface) == grid * grid
    assert 0.0 <= surface.max_deviation <= 1e-12
    angles = np.linspace(0.0, np.pi, grid)
    assert np.array_equal(surface.angles, angles)
    columns = surface.columns()
    for k, l in [(0, 0), (2, 5), (4, 4), (8, 8), (8, 1)]:
        row = dict(zip(SWEEP_COLUMNS, (float(c[k * grid + l]) for c in columns)))
        assert row == su2_overlap_point(pair, angles[k], angles[l])
    for rows in [slice(3, 7), slice(None, None, 40), slice(-5, None), slice(70, 20, -9)]:
        for part, whole in zip(surface.columns(rows), columns):
            assert np.array_equal(part, whole[rows])
    for c, name in zip(columns[2:], SWEEP_COLUMNS[2:]):  # views of the surface's own columns
        assert np.shares_memory(c, getattr(surface, name)) and not c.flags.writeable
    for array in (surface.angles, *columns[2:]):
        with pytest.raises(ValueError):
            array[0] = 0.0  # the surface's arrays are read-only


def test_sweep_ordering_and_csv():
    surface = su2_overlap_surface("i-omega", 3)
    assert len(surface) == 9
    # theta-outer, row-major: first three rows share theta = 0
    theta, phi = surface.columns()[:2]
    assert theta[:3].tolist() == [0.0, 0.0, 0.0]
    assert theta[3] == pytest.approx(np.pi / 2)
    assert phi[:4].tolist() == [0.0, np.pi / 2, np.pi, 0.0]
    text = sweep_to_csv(surface)
    lines = text.strip().split("\n")
    assert lines[0] == "theta,phi,max_overlap,diag_overlap,bound_bits"
    assert len(lines) == 10
    # numeric-only fields, no quoting
    assert '"' not in text


def test_sweep_csv_formats_every_row_as_the_per_row_format():
    # -0.0 and 0.0 print differently, and 1e-300 lies outside the kernel's scaled range
    cols = _columns(angles=[-0.0, 1e-300])
    text = sweep_to_csv(SweepSurface(**cols, max_deviation=0.0))
    rows = zip([-0.0, -0.0, 1e-300, 1e-300], [-0.0, 1e-300, -0.0, 1e-300],
               *(cols[name].tolist() for name in SWEEP_COLUMNS[2:]))
    expected = [",".join(f"{x:.12g}" for x in row) for row in rows]
    assert text == "\n".join([",".join(SWEEP_COLUMNS), *expected]) + "\n"
    assert text.split("\n")[2].startswith("-0,1e-300,")


def test_sweep_json_is_json_dumps_of_the_rows():
    cols = _columns(angles=[-0.0, 1e-300])
    text = sweep_to_json(SweepSurface(**cols, max_deviation=0.0))
    rows = zip([-0.0, -0.0, 1e-300, 1e-300], [-0.0, 1e-300, -0.0, 1e-300],
               *(cols[name].tolist() for name in SWEEP_COLUMNS[2:]))
    assert text == json.dumps({"records": [dict(zip(SWEEP_COLUMNS, r)) for r in rows]}) + "\n"
    assert text.startswith('{"records": [{"theta": -0.0, "phi": -0.0, ')
    assert '{"theta": -0.0, "phi": 1e-300, ' in text


@pytest.mark.parametrize("pair", ["i-sigmay", "i-omega"])
def test_sweep_bound_bits_never_negative(pair):
    # a maximum overlap that rounds to 1 + 2e-16 must not print a negative bound
    assert su2_overlap_surface(pair, 201).bound_bits.min() >= 0.0


def test_sweep_surface_holds_the_angles_and_three_columns():
    # the g angles and three g^2 columns, plus one kernel block while it is built: full-length
    # theta and phi columns would add 16 MB at grid 1001
    grid = 1001
    tracemalloc.start()
    try:
        surface = su2_overlap_surface("i-omega", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20
    arrays = (surface.angles, surface.max_overlap, surface.diag_overlap, surface.bound_bits)
    assert sum(a.nbytes for a in arrays) == 8 * (3 * grid * grid + grid)


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError, match="grid"):
        su2_overlap_surface("i-omega", 1)
    with pytest.raises(ValueError, match="unknown sweep pair"):
        su2_overlap_surface("nope", 5)


# --- construction ------------------------------------------------------------

def test_construction_equator_omega():
    m = su2_basis(np.pi / 4, 0.0)
    report = saturating_tester_by_construction(m, identity(2), omega(-1))
    assert report is not None
    assert report.achieved.value == pytest.approx(1.0, abs=1e-9)
    assert report.bound.value == pytest.approx(1.0, abs=1e-9)
    assert report.method == "row-construction"
    assert not report.trivial
    # uncertainty splits as 0 on the v side, log d on the w side
    pv = outcome_distribution(report.tester, identity(2)).probs
    pw = outcome_distribution(report.tester, omega(-1)).probs
    assert pv.max() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pw, [0.5, 0.5], atol=1e-12)


def test_construction_distinguishable_pair():
    report = saturating_tester_by_construction(computational_basis(2), identity(2), pauli("X"))
    assert report is not None
    assert report.achieved.value == pytest.approx(0.0, abs=1e-12)
    assert report.bound.value == pytest.approx(0.0, abs=1e-12)


def test_construction_not_found_for_skewed_rows():
    # w v+ with column distributions (0.9, 0.1): no column is uniform on support
    angle = np.arcsin(np.sqrt(0.1))
    rot = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex
    )
    report = saturating_tester_by_construction(
        computational_basis(2), identity(2), UnitaryOperator(rot)
    )
    assert report is None


def test_construction_flat_instances():
    for d, seed in [(2, 0), (3, 1), (4, 2)]:
        m, v, w = flat_instance(d, seed)
        report = saturating_tester_by_construction(m, v, w)
        assert report is not None
        assert report.achieved.value == pytest.approx(np.log2(d), abs=1e-9)
        assert report.gap == pytest.approx(0.0, abs=1e-9)


# --- search ------------------------------------------------------------------

def test_search_distinguishable_pair():
    report = search_min_uncertainty(
        computational_basis(2), identity(2), pauli("X"), budget=500, seed=0
    )
    assert report.achieved.value == pytest.approx(0.0, abs=1e-6)
    assert report.method == "numerical-search"


def test_search_equator_omega():
    report = search_min_uncertainty(
        su2_basis(np.pi / 4, 0.0), identity(2), omega(-1), budget=2000, seed=0
    )
    assert report.achieved.value == pytest.approx(1.0, abs=1e-4)


def test_search_matches_construction_d3():
    m, v, w = flat_instance(3, 7)
    constructed = saturating_tester_by_construction(m, v, w)
    searched = search_min_uncertainty(m, v, w, budget=5000, seed=1)
    assert searched.achieved.value == pytest.approx(constructed.achieved.value, abs=1e-4)


def test_search_degenerate_pair_is_trivial():
    phase_only = UnitaryOperator(np.exp(0.4j) * np.eye(2))
    report = search_min_uncertainty(computational_basis(2), identity(2), phase_only, budget=50)
    assert report.trivial
    assert report.achieved.value == pytest.approx(0.0, abs=1e-12)
    assert report.bound.value == pytest.approx(0.0, abs=1e-12)
    # w v† = exp(i eps J), J all ones, is within 1e-9 of the identity entry by entry, so the
    # search takes the same branch; but each basis vector's eigen-residual is eps sqrt(d - 1),
    # and the flag is is_trivial_measurement's there as on every other path
    d, eps = 8, 0.9e-9
    near = UnitaryOperator(np.eye(d) + (np.exp(1j * eps * d) - 1) / d * np.ones((d, d)))
    report = search_min_uncertainty(computational_basis(d), identity(d), near, budget=50)
    assert (report.evaluations, report.trivial) == (0, False)


def test_search_never_beats_bound():
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        from utp.testers import ProjectiveMeasurement

        m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        report = search_min_uncertainty(m, v, w, budget=600, seed=4)
        assert report.gap >= -1e-9


def test_search_deterministic():
    m, v, w = flat_instance(2, 5)
    r1 = search_min_uncertainty(m, v, w, budget=1000, seed=9)
    r2 = search_min_uncertainty(m, v, w, budget=1000, seed=9)
    assert r1.achieved.value == r2.achieved.value
    assert np.array_equal(r1.tester.input.amplitudes, r2.tester.input.amplitudes)
    assert r1.saturates


@pytest.mark.parametrize("d", [8, 16])
def test_criterion_10_search_reaches_log_d_at_larger_d(d):
    # the criterion-10 family beyond d = 3: the search must close the gap to log2 d
    rng = np.random.default_rng(2718 + d)
    for k in range(2):
        m, v, w = flat_instance(d, int(rng.integers(2**31)))
        report = search_min_uncertainty(m, v, w, seed=k)
        assert abs(report.achieved.value - np.log2(d)) <= 1e-6
        assert report.saturates and report.converged


def test_search_between_bound_and_construction_up_to_d32():
    # sampled dimensions keep this loop near a second: at every d the search may not
    # undercut the bound, and may not stop above what the row construction reaches
    rng = np.random.default_rng(1618)
    for d in [2, 3, 5, 7, 12, 20, 32]:
        m, v, w = flat_instance(d, int(rng.integers(2**31)))
        constructed = saturating_tester_by_construction(m, v, w)
        searched = search_min_uncertainty(m, v, w, seed=d)
        assert searched.achieved.value >= searched.bound.value - 1e-9
        assert searched.achieved.value <= constructed.achieved.value + 1e-6
        from utp.testers import ProjectiveMeasurement

        generic = search_min_uncertainty(
            ProjectiveMeasurement.from_matrix(haar_matrix(d, rng)),
            UnitaryOperator(haar_matrix(d, rng)), UnitaryOperator(haar_matrix(d, rng)),
            budget=1000, seed=d,
        )
        assert generic.achieved.value >= generic.bound.value - 1e-9


def test_search_reports_its_budget():
    m, v, w = flat_instance(4, 3)
    report = search_min_uncertainty(m, v, w, budget=50, seed=0)
    assert not report.converged
    assert 0 < report.evaluations <= 50
    full = search_min_uncertainty(m, v, w, seed=0)
    assert full.converged and 50 < full.evaluations <= 5000
    assert saturating_tester_by_construction(m, v, w).evaluations == 0


@pytest.mark.parametrize("d", [2, 4, 8])
def test_search_backtracks_by_interpolation(d):
    # the quadratic-interpolation backtrack saturates in a median of ~300-510 objective
    # values here; halving the trial step took ~630-870
    evaluations = []
    for seed in range(10):
        m, v, w = flat_instance(d, seed)
        report = search_min_uncertainty(m, v, w, seed=seed)
        constructed = saturating_tester_by_construction(m, v, w)
        assert report.converged
        assert report.achieved.value == pytest.approx(constructed.achieved.value, abs=1e-6)
        evaluations.append(report.evaluations)
    assert np.median(evaluations) <= 600


def test_search_draws_no_more_starts_than_its_budget():
    # 10^6 complex starts at d = 2 would take 32 MB; the budget admits 50 of them
    m, v, w = flat_instance(2, 0)
    search_min_uncertainty(m, v, w, budget=50, restarts=1)  # lazy imports are not counted
    tracemalloc.start()
    try:
        report = search_min_uncertainty(m, v, w, budget=50, restarts=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert 0 < report.evaluations <= 50


@pytest.mark.parametrize("budget, restarts", [(0, 20), (-5, 20), (100, 0), (100, -2)])
def test_searches_refuse_empty_budget_or_restarts(budget, restarts):
    m, v, w = flat_instance(2, 0)
    with pytest.raises(ValueError, match="budget|restarts"):
        search_min_uncertainty(m, v, w, budget=budget, restarts=restarts)
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    with pytest.raises(ValueError, match="budget|restarts"):
        muub_certify_by_saturation(b1, b2, budget=budget, restarts=restarts)


@pytest.mark.parametrize("name, value", [("budget", 10.5), ("restarts", 2.5),
                                         ("budget", np.float64(100.0)), ("restarts", True)])
def test_searches_refuse_a_count_that_is_not_an_integer(name, value):
    # one integer rule for seed, budget and restarts: budget=10.5 was once taken by a
    # certification, and a search failed inside numpy, as it did on restarts=True
    m, v, w = flat_instance(2, 0)
    message = rf"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        search_min_uncertainty(m, v, w, **{name: value})
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    with pytest.raises(ValueError, match=message):
        muub_certify_by_saturation(b1, b2, **{name: value})
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        muub_certify_by_saturation(b1, b2, seed=-1, **{name: value})  # the seed is checked first
    assert search_min_uncertainty(m, v, w, **{name: np.int64(3)}).evaluations >= 1


@pytest.mark.parametrize("seed", [-1, 0.5])
def test_searches_refuse_a_seed_that_is_not_a_non_negative_integer(seed):
    # one rule before any work: the certification once took -1 where no pair searched, and
    # failed inside numpy, with a message that did not name the seed, where one did
    m, v, w = flat_instance(2, 0)
    message = rf"^seed must be an integer >= 0, got {seed}$"
    with pytest.raises(ValueError, match=message):
        search_min_uncertainty(m, v, w, seed=seed)
    constructible = UnitaryBasis((identity(2), pauli("Y"))), UnitaryBasis((omega(-1), omega(+1)))
    searched = _haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11)))
    for bases in (constructible, searched):
        with pytest.raises(ValueError, match=message):
            muub_certify_by_saturation(*bases, seed=seed)


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_deciders_refuse_bad_tol(tol):
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    for decide in (
        lambda: is_muub(b1, b2, tol),
        lambda: muub_certify_by_saturation(b1, b2, tol=tol),
        lambda: is_perfectly_distinguishable(identity(2), pauli("X"), tol),
        lambda: zero_bound_witness(identity(2), pauli("X"), tol),
    ):
        with pytest.raises(ValueError, match="tol"):
            decide()
    # a tol as large as the quantity it decides on answers every yes/no alike: is_muub once
    # passed bases whose cross traces are all 0 at tol 2 = d^2/n, and the certification at
    # 1/n (an overlap of 0 against the flat 1/2); a pair was distinguishable from itself at 1,
    # where the witness built a NaN basis
    far = UnitaryBasis((identity(2), pauli("Z"))), UnitaryBasis((pauli("X"), pauli("Y")))
    i = identity(2)
    for decide, scale in (
        (lambda t: is_muub(*far, t), 2.0),
        (lambda t: is_muub(UnitaryBasis(tuple(pauli(c) for c in "IXYZ")),
                           UnitaryBasis(tuple(pauli(c) for c in "IXYZ")), t), 1.0),
        (lambda t: muub_certify_by_saturation(*far, tol=t), 0.5),
        (lambda t: is_perfectly_distinguishable(i, i, t), 1.0),
        (lambda t: zero_bound_witness(i, i, t), 1.0),
    ):
        for t in (scale, 2 * scale):
            with pytest.raises(ValueError, match=rf"^tol must be a number in \[0, {scale:g}\), "
                                                 rf"got {t}$"):
                decide(t)
        decide(np.nextafter(scale, 0))  # the largest tol below the scale is a tol


def _find_flat(a, kind, tol, budget, restarts, seed):
    """The flat unitary that certification finds for pair a, as a spectrum class of its own."""
    lam, eigvecs = eig_unitary(a)
    (found,) = saturation._flatten_class(a[None], lam, eigvecs[None], kind, tol, budget,
                                         restarts, [seed])
    return found


def test_search_gradients_match_central_differences(monkeypatch):
    # every search hands its objective to _descend: check each gradient there against
    # a central difference along a random direction, at d = 3 where Weyl operators are complex
    from utp import saturation

    captured = []

    def capture(cost_grad, line, transport, x, budget, target, interpolate):
        captured.append((cost_grad, line, x.copy(), interpolate))
        return saturation._Descent(x, np.zeros(x.shape[0]), 0, True)

    monkeypatch.setattr(saturation, "_descend", capture)
    rng = np.random.default_rng(99)
    for d in (2, 3):
        m, v, w = flat_instance(d, d)
        search_min_uncertainty(m, v, w, restarts=3)
        a = haar_matrix(d, rng)
        kinds = saturation._projective_flatness(d), saturation._mes_flatness(weyl_operators(d))
        for kind in kinds:
            _find_flat(a, kind, 1e-9, 10, 1, d)
    # the input search backtracks by interpolation; the flat-unitary searches halve
    assert [c[3] for c in captured] == [True, False, False] * 2
    h = 1e-6
    for cost_grad, line, x, _ in captured:
        _, g = cost_grad(x)
        eta = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        if x.ndim == 3:  # directions on U(d) are skew-Hermitian generators
            eta = eta - eta.conj().swapaxes(-1, -2)
        at, rows = line(x, eta), np.arange(x.shape[0])
        step = np.full(rows.size, h)
        central = (cost_grad(at(step, rows))[0] - cost_grad(at(-step, rows))[0]) / (2 * h)
        assert np.allclose(central, saturation._inner(g, eta), rtol=1e-6, atol=1e-8)
    # the MES gradient's adjoint, to rounding: Re Tr(K(G)† b) = Re sum conj(G_ij) T(b)_ij
    for d in (2, 3, 5):
        kind = saturation._mes_flatness(weyl_operators(d))
        g = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        b = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        left = (kind.adjoint(g).conj() * b).real.sum(axis=(-2, -1))
        right = (g.conj() * kind.table(b)).real.sum(axis=(-2, -1))
        assert np.abs(left - right).max() <= 1e-12 * np.abs(right).max()


def test_search_beats_dense_grid_oracle():
    # brute-force oracle: scan the full qubit input manifold on a fine grid;
    # the continuous search must do at least as well as the best grid node
    rng = np.random.default_rng(2)
    from utp.testers import ProjectiveMeasurement

    m = ProjectiveMeasurement.from_matrix(haar_matrix(2, rng))
    v = UnitaryOperator(haar_matrix(2, rng))
    w = UnitaryOperator(haar_matrix(2, rng))
    gamma = np.linspace(0, np.pi / 2, 181)
    beta = np.linspace(0, 2 * np.pi, 361)
    gg, bb = np.meshgrid(gamma, beta, indexing="ij")
    states = np.stack(
        [np.cos(gg), np.sin(gg) * np.exp(1j * bb)], axis=-1
    ).reshape(-1, 2)
    grid_best = np.inf
    for b in (m.matrix.conj().T @ v.matrix, m.matrix.conj().T @ w.matrix):
        p = np.abs(states @ b.T) ** 2
        q = np.where(p > 1e-15, p, 1.0)
        h = -(q * np.log2(q)).sum(axis=1)
        grid_best = h if grid_best is np.inf else grid_best + h
    oracle_min = grid_best.min()
    report = search_min_uncertainty(m, v, w, budget=5000, seed=0)
    assert report.achieved.value <= oracle_min + 1e-6
    assert report.gap >= -1e-9


# --- MUUB certification ------------------------------------------------------

def test_certify_qubit_muub():
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    cert = muub_certify_by_saturation(b1, b2)
    assert cert.certified
    assert np.abs(cert.trace_moduli - np.sqrt(2)).max() < 1e-9
    for row in cert.reports:
        for report in row:
            assert report is not None
            assert report.achieved.value == pytest.approx(1.0, abs=1e-6)
            assert not report.trivial


def test_certify_full_space_muub():
    sx, sy, sz = (pauli(c).matrix for c in "XYZ")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    rb = tuple(
        UnitaryOperator((np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2) for a, b, c in signs
    )
    bp = UnitaryBasis(tuple(pauli(c) for c in "IXYZ"))
    br = UnitaryBasis(rb)
    cert = muub_certify_by_saturation(bp, br)
    assert cert.certified
    assert np.abs(cert.trace_moduli - 1.0).max() < 1e-9
    for row in cert.reports:
        for report in row:
            assert report.achieved.value == pytest.approx(2.0, abs=1e-6)
            assert report.tester.kind == "mes"


def _chirp_bases(d: int, u: np.ndarray | None = None):
    """Clock powers against chirp times clock powers, conjugated by ``u`` if given.

    Every W V† is diagonal in the clock basis with entries exp(i pi j^2 (d + 1) / d)
    times a linear phase, whose Gauss sums all have modulus sqrt(d).
    """
    clock = clock_shift_pair(d)[0].matrix
    j = np.arange(d)
    chirp = np.diag(np.exp(1j * np.pi * j * j * (d + 1) / d))
    powers = [np.linalg.matrix_power(clock, k) for k in range(d)]
    sides = powers, [chirp @ p for p in powers]
    if u is not None:
        sides = tuple([u @ m @ u.conj().T for m in side] for side in sides)
    return tuple(UnitaryBasis(tuple(UnitaryOperator(m) for m in side)) for side in sides)


def test_certify_chirp_d5_by_search(monkeypatch):
    # each W V+ here is diagonal with degenerate eigenvalues: no Fourier order is flat, and
    # certification orders them as a Zadoff-Chu sequence instead.  The gradient search on
    # U(5) keeps its coverage on the same 25 pairs, with certification's seeds and budget
    b1, b2 = _chirp_bases(5)
    logged = []
    monkeypatch.setattr(saturation, "_log_search", lambda *line: logged.append(line))
    search_only = saturation._projective_flatness(5)._replace(references=())
    for m_idx, wm in enumerate(b2.elements):
        for n_idx, vn in enumerate(b1.elements):
            a = wm.matrix @ vn.matrix.conj().T
            logged.clear()
            found = _find_flat(a, search_only, 1e-9, 500, 20, 7919 * m_idx + n_idx)
            assert found is not None and found.method == "numerical-search"
            assert 0 < found.evaluations <= 500
            ((_, method, evaluations, _, converged),) = logged
            assert (method, evaluations, converged) == ("numerical-search", found.evaluations, True)
            x = found.matrix
            assert np.abs(np.abs(x.conj().T @ a @ x) ** 2 - 0.2).max() <= 1e-9
            tester = Tester.projective(
                PureState(vn.matrix.conj().T @ x[:, 0]), ProjectiveMeasurement.from_matrix(x)
            )
            assert pair_uncertainty(tester, vn, wm).value == pytest.approx(np.log2(5), abs=1e-6)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 8, 11, 16])
@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "haar"])
def test_certify_chirp_by_construction(d, conjugated):
    u = haar_matrix(d, np.random.default_rng(d)) if conjugated else None
    b1, b2 = _chirp_bases(d, u)
    cert = muub_certify_by_saturation(b1, b2, budget=500, seed=0)
    assert cert.certified
    reports = [r for row in cert.reports for r in row]
    assert len(reports) == d * d and all(r is not None for r in reports)
    # a Fourier order of the eigenbasis is flat at d <= 3; from d = 5 on the degenerate
    # spectrum is ordered as a Zadoff-Chu sequence
    method = "row-construction" if d <= 3 else "zadoff-chu-order"
    for r in reports:
        assert (r.method, r.evaluations) == (method, 0)
        assert r.achieved.value == pytest.approx(np.log2(d), abs=1e-6)


def test_certification_contract_at_every_d_from_1_to_16():
    # the chirp bases certify by construction at every d from 2 to 16, with no search, and so
    # do samples beyond (every d to 32 takes ~4 s) and Haar-conjugated ones.  At d = 1 every
    # basis is flat (the level 1/d is 1): ({I_1}, {I_1}) certifies with bound 0, where it was
    # once refused as a phase of the identity
    plain = [_chirp_bases(d) for d in [*range(2, 17), 17, 23, 31]]
    conjugated = [_chirp_bases(d, haar_matrix(d, np.random.default_rng(d))) for d in (3, 7, 12, 20)]
    for bases in plain + conjugated:
        d = bases[0].dim
        cert = muub_certify_by_saturation(*bases)
        reports = [r for row in cert.reports for r in row]
        assert cert.certified and len(reports) == d * d
        assert {r.method for r in reports} <= {"row-construction", "zadoff-chu-order"}
        assert all(r.evaluations == 0 and r.saturates for r in reports)
        assert all(r.bound.value == pytest.approx(np.log2(d), abs=1e-9) for r in reports)
    one = UnitaryBasis((identity(1),))
    assert is_muub(one, one) == (True, 1.0)
    cert = muub_certify_by_saturation(one, one)
    ((report,),) = cert.reports
    assert cert.certified and cert.kappa == 1.0
    assert (report.method, report.evaluations) == ("row-construction", 0)
    assert report.bound.value == report.achieved.value == 0.0


def test_fourier_orders_are_spectrum_references_checked_on_one_pair(monkeypatch):
    # the identity Fourier order is not flat for the chirp class at d = 5: it costs one 5 x 5
    # check, not one per pair, and the Zadoff-Chu order is then carried to the 25 pairs
    shapes = []
    flat = saturation._flat
    monkeypatch.setattr(saturation, "_flat",
                        lambda kind, a, *rest: shapes.append(a.shape) or flat(kind, a, *rest))
    assert muub_certify_by_saturation(*_chirp_bases(5), budget=500, seed=0).certified
    assert shapes == [(5, 5), (25, 5, 5)]
    # at d = 3 the identity Fourier order is flat on the first pair, which keeps it there:
    # the carry checks the 8 pairs after it, not all 9 again
    shapes.clear()
    assert muub_certify_by_saturation(*_chirp_bases(3), budget=500, seed=0).certified
    assert shapes == [(3, 3), (8, 3, 3)]
    # every Fourier order at d <= 4, the identity order beyond, then the Zadoff-Chu references
    for d in (1, 2, 3, 4, 5, 8):
        dft = dft_matrix(d)
        references = saturation._projective_flatness(d).references
        orders = math.factorial(d) if d <= 4 else 1
        rows = set()
        for ref in references[:orders]:
            assert ref.eigenvalues is None and ref.method == "row-construction"
            rows.add(tuple(next(i for i in range(d) if np.array_equal(r, dft[i])) for r in ref.y))
        assert len(rows) == orders and all(sorted(p) == list(range(d)) for p in rows)
        assert rows >= {tuple(range(d))}
        zadoff_chu = saturation._zadoff_chu(d)
        assert len(references) == orders + len(zadoff_chu)
        for ref, z in zip(references[orders:], zadoff_chu):
            assert np.array_equal(ref.eigenvalues, z) and np.array_equal(ref.y, dft)
            assert ref.method == "zadoff-chu-order"


def _report_fields(cert):
    return [(r.achieved.value.hex(), _bound_fields(r.bound), r.trivial, r.method, r.evaluations,
             r.converged, _array_fields(r.tester.input.amplitudes),
             _array_fields(r.tester.measurement.matrix)) for row in cert.reports for r in row]


def test_projective_flavour_is_built_once_per_d_with_read_only_references(monkeypatch):
    # certifications that alternate d, as the benchmark's d = 2, 3 and 5 do, each share the one
    # flavour of their d, and report bit for bit what a freshly built flavour gives
    built, cached = [], saturation._projective_flatness
    monkeypatch.setattr(saturation, "_projective_flatness",
                        lambda d: built.append(cached(d)) or built[-1])
    certs = [muub_certify_by_saturation(*_chirp_bases(d), budget=500, seed=0) for d in (3, 5, 3, 5)]
    assert built[0] is built[2] and built[1] is built[3] and built[0] is not built[1]
    for kind in built[:2]:
        arrays = [a for ref in kind.references for a in ref if isinstance(a, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
    monkeypatch.setattr(saturation, "_projective_flatness", cached.__wrapped__)
    for cert, d in zip(certs[2:], (3, 5)):
        fresh = muub_certify_by_saturation(*_chirp_bases(d), budget=500, seed=0)
        assert _report_fields(cert) == _report_fields(fresh)


def test_zadoff_chu_order_at_d32():
    # the advertised size: 8 seeded chirp pairs, each conjugated by its own Haar unitary.
    # A search of budget 1 cannot flatten a d = 32 pair, so each must be constructed
    rng = np.random.default_rng(32)
    d = 32
    projective = saturation._projective_flatness(d)
    clock = clock_shift_pair(d)[0].matrix
    j = np.arange(d)
    for _ in range(8):
        k, phase = int(rng.integers(d)), np.exp(2j * np.pi * rng.random())
        u = haar_matrix(d, rng)
        diagonal = phase * np.exp(1j * np.pi * j * j * (d + 1) / d) * np.diag(
            np.linalg.matrix_power(clock, k)
        )
        a = (u * diagonal) @ u.conj().T
        found = _find_flat(a, projective, 1e-9, 1, 1, 0)
        assert found is not None and found.method == "zadoff-chu-order" and found.evaluations == 0
        x = found.matrix
        assert np.abs(x.conj().T @ x - np.eye(d)).max() <= 1e-9
        assert np.abs(np.abs(x.conj().T @ a @ x) ** 2 - 1 / d).max() <= 1e-9


def test_match_up_to_phase_finds_the_order_or_none():
    # a stack of rows, each the target permuted and turned by its own phase; every other
    # row has one number moved off by 1e-6, and matches nothing
    rng = np.random.default_rng(4)
    for d in (1, 2, 5, 8, 32):
        target = np.exp(2j * np.pi * rng.random(d))
        target[: d // 2] = target[0]  # a degenerate value, as in a chirp spectrum
        lam = np.empty((6, d), dtype=complex)
        for row in lam:
            row[rng.permutation(d)] = np.exp(1j * rng.uniform(-np.pi, np.pi)) * target
        moved = (np.arange(6) % 2 == 1) & (d > 1)
        lam[moved, rng.integers(d)] *= np.exp(1e-6j)
        sigma, matched = saturation._match_up_to_phase(lam, target, 1e-9)
        assert sigma.shape == lam.shape and list(matched) == list(~moved)
        for row, order in zip(lam[~moved], sigma[~moved]):
            assert sorted(order) == list(range(d))
            mu = row[order] / target
            assert np.abs(mu - mu[0]).max() <= 1e-12
            # one row alone gives the order it gives in the stack
            alone, ok = saturation._match_up_to_phase(row[None], target, 1e-9)
            assert ok[0] and list(alone[0]) == list(order)


def _clock_vs_shift_d3():
    clock, shift = clock_shift_pair(3)
    return tuple(
        UnitaryBasis(tuple(UnitaryOperator(np.linalg.matrix_power(g.matrix, k)) for k in range(3)))
        for g in (clock, shift)
    )


def _haar_pauli_evensign(u: np.ndarray):
    """The Pauli and even-sign qubit bases, both conjugated by ``u``: still MUUB."""
    sx, sy, sz = (pauli(c).matrix for c in "XYZ")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    even = [(np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2 for a, b, c in signs]
    paulis = [pauli(c).matrix for c in "IXYZ"]
    return tuple(
        UnitaryBasis(tuple(UnitaryOperator(u @ m @ u.conj().T) for m in ms))
        for ms in (paulis, even)
    )


def _search_only(monkeypatch):
    """Certify with no projective reference, Fourier order or Zadoff-Chu: each class searches."""
    projective = saturation._projective_flatness
    monkeypatch.setattr(saturation, "_projective_flatness",
                        lambda d: projective(d)._replace(references=()))


def test_certify_searches_each_spectrum_class_once(monkeypatch):
    # with no construction or reference, the 25 chirp pairs at d = 5, which share one spectrum
    # up to phase: one search, and 24 transports of its basis
    _search_only(monkeypatch)
    cert = muub_certify_by_saturation(*_chirp_bases(5), budget=500, seed=0)
    assert cert.certified
    reports = [r for row in cert.reports for r in row]
    assert sum(r.evaluations > 0 for r in reports) == 1
    methods = [r.method for r in reports]
    assert {m: methods.count(m) for m in set(methods)} == {
        "numerical-search": 1, "spectral-transport": 24
    }
    for r in reports:
        assert r.achieved.value == pytest.approx(np.log2(5), abs=1e-6)


def test_certification_logs_its_methods_once(caplog, monkeypatch):
    # one INFO line per certification, after the per-pair lines: the count of each method and
    # the spectrum classes its searches found.  A refused certification logs only the check
    # that refused it
    monkeypatch.setattr(logging.getLogger("utp"), "propagate", True)  # the CLI turns it off
    caplog.set_level(logging.INFO, logger="utp.saturation")
    with monkeypatch.context() as patch:
        _search_only(patch)
        muub_certify_by_saturation(*_chirp_bases(5), budget=500, seed=0)
    lines = [r.getMessage() for r in caplog.records]
    assert len(lines) == 26 and all(r.levelno == logging.INFO for r in caplog.records)
    assert lines[-1] == ("MUUB certification: row-construction 0, zadoff-chu-order 0, "
                         "spectral-transport 24, numerical-search 1, not-found 0; "
                         "1 spectrum classes searched")
    caplog.clear()
    muub_certify_by_saturation(*_clock_vs_shift_d3())
    assert [r.getMessage() for r in caplog.records] == [
        "MUUB certification: refused before any search: "
        "is_muub: max ||Tr(W V†)|^2 - kappa| = 8.0, |kappa - 3| = 2.0, tol 1e-09"
    ]


def test_corrupt_spectrum_class_falls_back_to_search(monkeypatch):
    # a stored basis or rotation that no longer flattens its class: every candidate it yields
    # fails the flatness check, so each pair searches, and no report rests on an unflat one
    spins = {d: haar_matrix(d, np.random.default_rng(1)) for d in (2, 5)}
    reference = saturation._Reference

    def corrupt(lam, y, method):  # searched classes only
        return reference(lam, y @ spins[lam.size] if method == "spectral-transport" else y, method)

    monkeypatch.setattr(saturation, "_Reference", corrupt)
    b1, b2 = _chirp_bases(5)
    with monkeypatch.context() as patch:
        _search_only(patch)
        cert = muub_certify_by_saturation(b1, b2, budget=500, seed=0)
    assert cert.certified
    # full space: a rotation of the Weyl operators carried over by a corrupt class fails too
    full = _haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11)))
    full_cert = muub_certify_by_saturation(*full, seed=3)
    assert full_cert.certified
    for (p, q), c, level in (((b1, b2), cert, 1 / 5), (full, full_cert, 1 / 4)):
        for m_idx, row in enumerate(c.reports):
            for n_idx, r in enumerate(row):
                assert r.method == "numerical-search" and r.evaluations > 0
                a = q.elements[m_idx].matrix @ p.elements[n_idx].matrix.conj().T
                assert np.abs(r.tester.measurement.overlaps(a) - level).max() <= 1e-9


def test_certify_full_space_muub_by_search(monkeypatch):
    # conjugating both bases by one Haar unitary keeps them MUUB, but the Weyl operators are
    # no longer flat for any pair.  All 16 pairs share one spectrum class, so certification
    # searches once and transports the rotation it finds to the other 15 pairs
    b1, b2 = _haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11)))
    cert = muub_certify_by_saturation(b1, b2, seed=3)
    assert cert.certified
    reports = [r for row in cert.reports for r in row]
    assert [r.method for r in reports].count("numerical-search") == 1
    assert [r.method for r in reports].count("spectral-transport") == 15
    for report in reports:
        assert (report.evaluations > 0) == (report.method == "numerical-search")
        assert report.tester.kind == "mes"
        assert report.achieved.value == pytest.approx(2.0, abs=1e-6)
    # the MES search keeps its coverage on the same 16 pairs, with certification's seeds
    logged = []
    monkeypatch.setattr(saturation, "_log_search", lambda *line: logged.append(line))
    weyl = weyl_operators(2)
    search_only = saturation._mes_flatness(weyl)._replace(rotations=())
    for m_idx, wm in enumerate(b2.elements):
        for n_idx, vn in enumerate(b1.elements):
            a = wm.matrix @ vn.matrix.conj().T
            logged.clear()
            found = _find_flat(a, search_only, 1e-9, 5000, 20, 3 + 7919 * m_idx + n_idx)
            assert found is not None and found.method == "numerical-search"
            assert found.evaluations > 0
            ((_, method, evaluations, _, converged),) = logged
            assert (method, evaluations, converged) == ("numerical-search", found.evaluations, True)
            x = found.matrix
            measurement = MesMeasurement(x @ weyl @ x.conj().T @ vn.matrix / np.sqrt(2))
            assert np.abs(measurement.overlaps(a) - 1 / 4).max() <= 1e-9
            assert pair_uncertainty(Tester.mes(measurement), vn, wm).value == pytest.approx(
                2.0, abs=1e-6
            )


def test_mes_reference_carries_every_pair_without_a_search():
    # a reference from one plain Pauli / even-sign pair, whose identity rotation is flat: every
    # Haar-conjugated pair shares its spectrum class, so each is carried over with no search
    weyl = weyl_operators(2)
    paulis, even = _haar_pauli_evensign(np.eye(2))
    a0 = even.elements[0].matrix @ paulis.elements[0].matrix.conj().T
    kind = saturation._mes_flatness(weyl)
    assert np.abs(np.abs(kind.table(a0)) ** 2 - 1 / 4).max() <= 1e-9
    lam, eigvecs = eig_unitary(a0)
    reference = saturation._Reference(lam, eigvecs.conj().T, "spectral-transport")
    kind = kind._replace(rotations=(), references=(reference,))
    b1, b2 = _haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11)))
    for wm in b2.elements:
        for vn in b1.elements:
            a = wm.matrix @ vn.matrix.conj().T
            found = _find_flat(a, kind, 1e-9, 1, 1, 0)
            assert found is not None
            assert (found.method, found.evaluations) == ("spectral-transport", 0)


def _check_covariant_class(reverse: bool):
    """Certify the class below, its elements reversed if asked; the first pair's covariance."""
    # every cross pair of a qubit MUUB has eigenvalue gap 2 pi / 3: one spectrum class.  A
    # rotation about (1, 1, 1) fixes the Pauli/even-sign pairs whose axis is +-(1, 1, 1), so
    # they stay Weyl-covariant, and moves the others off it.  The covariant pairs keep the
    # identity rotation, and one of their rotations is carried to the others as a spectral
    # transport, with no search
    angle = 1.0
    u = np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * sum(
        pauli(c).matrix for c in "XYZ") / np.sqrt(3)
    b1, b2 = (UnitaryBasis(b.elements[::-1] if reverse else b.elements)
              for b in _haar_pauli_evensign(u))
    kind = saturation._mes_flatness(weyl_operators(2))
    cert = muub_certify_by_saturation(b1, b2, seed=3)
    assert cert.certified
    covariant = []
    for m_idx, row in enumerate(cert.reports):
        for n_idx, r in enumerate(row):
            a = b2.elements[m_idx].matrix @ b1.elements[n_idx].matrix.conj().T
            weyl_flat = np.abs(np.abs(kind.table(a)) ** 2 - 1 / 4).max() <= 1e-9
            covariant.append(weyl_flat)
            assert r.evaluations == 0
            assert r.method == ("row-construction" if weyl_flat else "spectral-transport")
            assert np.abs(r.tester.measurement.overlaps(a) - 1 / 4).max() <= 1e-9
            if weyl_flat:  # the identity rotation itself
                rotation = r.tester.measurement.elements @ b1.elements[n_idx].matrix.conj().T
                assert np.abs(rotation * np.sqrt(2) - weyl_operators(2)).max() <= 1e-12
    assert 1 < sum(covariant) < len(covariant)
    return covariant[0]


def test_full_space_class_mixing_weyl_covariant_pairs_keeps_their_construction():
    assert _check_covariant_class(reverse=False)  # the first pair is covariant


def test_full_space_class_whose_first_pair_is_not_covariant_needs_no_search():
    # the same pairs in reverse order: the first pair is not covariant, and a covariant
    # pair's rotation is carried to it before any pair searches
    assert not _check_covariant_class(reverse=True)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_mes_table_is_the_weyl_coefficients(d):
    # the reference is the d^4 table T_ij = Tr(N_i† b N_j) / d; N_j N_i† is a phase times
    # N_(j-i), so its moduli are those of the d^2 coefficients, each taken d^2 times
    weyl = weyl_operators(d)
    kind = saturation._mes_flatness(weyl)
    b = haar_matrix(d, np.random.default_rng(d))
    full = np.einsum("ikl,jkl->ij", weyl.conj(), b @ weyl) / d
    c = kind.table(b)
    assert c.shape == (d, d) and kind.repeats == d * d
    coefficients = np.trace(weyl.conj().swapaxes(1, 2) @ b, axis1=1, axis2=2) / d
    assert np.abs(c.ravel() - coefficients).max() <= 1e-12
    moduli = np.sort(np.abs(full).ravel())
    assert np.abs(np.sort(np.repeat(np.abs(c).ravel(), d * d)) - moduli).max() <= 1e-12
    objective = ((np.abs(full) ** 2 - kind.level) ** 2).sum()
    assert kind.repeats * ((np.abs(c) ** 2 - kind.level) ** 2).sum() == pytest.approx(
        objective, rel=1e-12
    )


def test_certify_bases_at_the_validation_edge():
    # each element is unitary within its validated error, 1.39e-9, and a = W V† is off by up
    # to the sum of both; the finder once eigendecomposed a at 1e-9 and raised
    edge = np.diag([1 + 4.9e-10, 1 - 4.9e-10])
    b1, b2 = (
        UnitaryBasis(tuple(UnitaryOperator(op.matrix @ edge) for op in ops))
        for ops in ((identity(2), pauli("Y")), (omega(-1), omega(+1)))
    )
    assert is_muub(b1, b2)[0]
    assert muub_certify_by_saturation(b1, b2).certified


def _haar_weyl_against_dft_weyl(d: int, seed: int = 5):
    """The Weyl operators against F N_k (F the DFT), both conjugated by one seeded Haar unitary."""
    u = haar_matrix(d, np.random.default_rng(seed))
    weyl = weyl_operators(d)
    sides = weyl, dft_matrix(d) @ weyl
    return tuple(
        UnitaryBasis(tuple(UnitaryOperator(u @ m @ u.conj().T) for m in side)) for side in sides
    )


@pytest.mark.parametrize(
    "budget, conjugation", [(500, 5), (5000, 5), (500, 1_000_003)],
    ids=["500", "5000", "500-conjugation-1000003"],
)
def test_certify_haar_full_space_d3_by_one_search(monkeypatch, budget, conjugation):
    # all 81 pairs share one spectrum class: one search, and 80 transports of its rotation.
    # Searched pair by pair, about 40 % of them were found, and the bases were not certified.
    # No pair seed, 7919 m + n, draws the conjugation 1 000 003
    logged = []
    monkeypatch.setattr(saturation, "_log_search", lambda *line: logged.append(line))
    b1, b2 = _haar_weyl_against_dft_weyl(3, conjugation)
    assert is_muub(b1, b2)[0]
    cert = muub_certify_by_saturation(b1, b2, budget=budget, seed=0)
    assert cert.certified
    reports = [r for row in cert.reports for r in row]
    methods = [r.method for r in reports]
    assert {m: methods.count(m) for m in set(methods)} == {
        "numerical-search": 1, "spectral-transport": 80
    }
    # the pairs searched before the one found missed; its rotation is carried back to them,
    # with no evaluations.  The searches, missed ones included, used as many evaluations
    # as when each pair was searched in pair order and a second pass carried the class back
    assert methods.index("numerical-search") > 0
    total = {(500, 5): 1841, (5000, 5): 7622, (500, 1_000_003): 2620}[budget, conjugation]
    assert sum(evaluations for _, _, evaluations, _, _ in logged) == total
    for r in reports:
        assert (r.evaluations > 0) == (r.method == "numerical-search")
        assert r.tester.kind == "mes"
        assert r.achieved.value == pytest.approx(2 * np.log2(3), abs=1e-6)


# instance: (certified, the method of each pair, or None for no report, except {(m, n):
# None, or (method, evaluations at certification seeds 0, 1, 2, 3)})
_GOLDEN_CERTIFICATIONS = {
    "qubit": (True, "row-construction", {}),
    "pauli_evensign": (True, "row-construction", {}),
    "chirp_d3": (True, "row-construction", {}),
    "chirp_d5": (True, "zadoff-chu-order", {}),
    "clock_vs_shift_d3": (False, None, {}),  # refused by is_muub, before any search
}


@pytest.fixture(scope="module")
def benchmark_instances():
    """The five certification instances the benchmark times, from its own input module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        return importlib.import_module("inputs").certification_instances()


@pytest.mark.parametrize("name", sorted(_GOLDEN_CERTIFICATIONS))
def test_benchmark_certifications_keep_each_pair_method_and_evaluations(benchmark_instances,
                                                                        name):
    certified, method, exceptions = _GOLDEN_CERTIFICATIONS[name]
    b1, b2 = (UnitaryBasis(tuple(map(UnitaryOperator, side))) for side in benchmark_instances[name])
    for seed in range(4):
        cert = muub_certify_by_saturation(b1, b2, budget=500, seed=seed)
        assert cert.certified == certified
        for m_idx, row in enumerate(cert.reports):
            for n_idx, r in enumerate(row):
                want = exceptions.get((m_idx, n_idx), method and (method, (0,) * 4))
                expected = None if want is None else (want[0], want[1][seed])
                got = None if r is None else (r.method, r.evaluations)
                assert got == expected, (name, seed, m_idx, n_idx)


def test_certification_eigendecomposes_once_and_finds_each_class_once(monkeypatch):
    # one stacked call gives every pair its spectrum, and each of these single-class
    # instances flattens its one class in one run.  Clock against shift fails is_muub, so
    # it is refused with no eigendecomposition and no class run
    calls, finds = [], []
    monkeypatch.setattr(saturation, "eig_unitary",
                        lambda a, *tol: calls.append(np.shape(a)) or eig_unitary(a, *tol))
    find = saturation._flatten_class
    monkeypatch.setattr(saturation, "_flatten_class",
                        lambda *args: finds.append(args) or find(*args))
    for bases, stacked, runs in ((_chirp_bases(5), [25], 1), (_clock_vs_shift_d3(), [], 0),
                                 (_haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11))),
                                  [16], 1)):
        calls.clear()
        finds.clear()
        muub_certify_by_saturation(*bases, seed=3)
        assert [shape[0] for shape in calls] == stacked
        assert len(finds) == runs


def _clock_against_conjugated_clock(d: int, u: np.ndarray, r: np.ndarray):
    """Clock powers C^n against u C^m u† r: a unitary basis pair for any unitaries u and r."""
    clock = clock_shift_pair(d)[0].matrix
    powers = [np.linalg.matrix_power(clock, k) for k in range(d)]
    return tuple(UnitaryBasis(tuple(UnitaryOperator(m) for m in side))
                 for side in (powers, [u @ m @ u.conj().T @ r for m in powers]))


def test_certification_matches_only_pairs_whose_eigenvalue_gaps_agree(monkeypatch):
    # for Haar u and r the 9 pairs have 9 spectra, apart already in their sorted eigenvalue
    # gaps, so no pair is matched against another's class, and grouping stays linear in the
    # pairs.  The bases are not MUUB: a trace table of sqrt(3), which is_muub's rule passes,
    # takes them past the verdict.
    # 27 single-row matches: 9 classes, and each pair against the 2 Zadoff-Chu references
    u, r = (haar_matrix(3, np.random.default_rng(seed)) for seed in (7, 8))
    b1, b2 = _clock_against_conjugated_clock(3, u, r)
    monkeypatch.setattr(saturation, "hs_table", lambda *_: np.full((3, 3), np.sqrt(3)))
    rows = []
    match = saturation._match_up_to_phase
    monkeypatch.setattr(saturation, "_match_up_to_phase",
                        lambda lam, *rest: rows.append(len(lam)) or match(lam, *rest))
    cert = muub_certify_by_saturation(b1, b2, budget=1, restarts=1)
    assert not cert.certified and rows == [1] * 27


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_certification_refuses_a_failed_trace_check_before_any_search(monkeypatch, d):
    # not MUUB up to the advertised size: no eigendecomposition and no class run, so the
    # default budget costs nothing, and every report is None (not sought)
    rng = np.random.default_rng(d)
    b1, b2 = _clock_against_conjugated_clock(d, haar_matrix(d, rng), haar_matrix(d, rng))

    def refuse(*_, name):
        raise AssertionError(f"{name} called on a refused certification")

    for name in ("eig_unitary", "_flatten_class"):
        monkeypatch.setattr(saturation, name, functools.partial(refuse, name=name))
    cert = muub_certify_by_saturation(b1, b2)
    assert not cert.certified and not is_muub(b1, b2)[0]  # so certified => is_muub holds
    assert all(r is None for row in cert.reports for r in row)
    assert np.array_equal(cert.trace_moduli, hs_table(b1, b2).T)  # is_muub's table
    assert cert.kappa is None


def _chirp_bases_off_by(d: int, eps: float):
    """``_chirp_bases(d)``, b1's elements times exp(i eps H) for H = (G + G†) / 2, G seeded."""
    b1, b2 = _chirp_bases(d)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lam, vecs = np.linalg.eigh((g + g.conj().T) / 2)
    turn = (vecs * np.exp(1j * eps * lam)) @ vecs.conj().T
    return UnitaryBasis(tuple(UnitaryOperator(e.matrix @ turn) for e in b1.elements)), b2


@pytest.mark.parametrize("d, eps", [(3, 4e-10), (3, 8e-10), (8, 2e-10), (8, 4e-10),
                                    (16, 1e-10)])
def test_certification_at_the_tolerance_edge_follows_is_muub(caplog, monkeypatch, d, eps):
    # every |Tr(W V†)| is within tol of sqrt(d), but |Tr(W V†)|^2 is not within tol of its
    # mean, about 2 sqrt(d) times stricter: is_muub says no, and so does the certification,
    # with a refusal line whose numbers show which one exceeds tol
    monkeypatch.setattr(logging.getLogger("utp"), "propagate", True)
    caplog.set_level(logging.INFO, logger="utp.saturation")
    b1, b2 = _chirp_bases_off_by(d, eps)
    cert = muub_certify_by_saturation(b1, b2, budget=500)
    flag, _ = is_muub(b1, b2)
    assert np.abs(cert.trace_moduli - np.sqrt(d)).max() <= 1e-9
    assert not flag and not cert.certified
    assert all(r is None for row in cert.reports for r in row)
    (line,) = [r.getMessage() for r in caplog.records]
    spread, off, tol = map(float, re.fullmatch(
        rf"MUUB certification: refused before any search: is_muub: max \|\|Tr\(W V†\)\|\^2 - "
        rf"kappa\| = (\S+), \|kappa - {d}\| = (\S+), tol (\S+)", line).groups())
    assert tol == 1e-9 and spread > tol >= off


def test_certify_rejects_identical_bases():
    b = UnitaryBasis((identity(2), pauli("Y")))
    cert = muub_certify_by_saturation(b, b)
    assert not cert.certified
    # the diagonal pairs have w v+ = I, which cannot saturate
    assert cert.reports[0][0] is None


def test_certified_implies_is_muub():
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    cert = muub_certify_by_saturation(b1, b2)
    flag, kappa = is_muub(b1, b2)
    assert cert.certified and flag and cert.kappa == kappa
    assert kappa == pytest.approx(2.0, abs=1e-9)


def test_flat_basis_search_fallback():
    # eigenvalue gap 2*pi/3: no permuted-DFT candidate is flat, yet a flat
    # basis exists (any gap in [pi/2, 3pi/2] admits one), so this exercises
    # the budgeted numerical search
    a = np.diag([1.0, np.exp(2j * np.pi / 3)]).astype(complex)
    found = _find_flat(a, saturation._projective_flatness(2), tol=1e-9, budget=5000,
                       restarts=20, seed=0)
    assert found is not None
    x = found.matrix
    assert found.method == "numerical-search"
    assert np.abs(np.abs(x.conj().T @ a @ x) ** 2 - 0.5).max() <= 1e-9


def test_flat_basis_impossible_for_small_gap():
    # eigenvalue gap pi/3 < pi/2: no basis can flatten the overlaps, and the
    # search must honestly report not-found within its budget
    a = np.diag([1.0, np.exp(1j * np.pi / 3)]).astype(complex)
    found = _find_flat(a, saturation._projective_flatness(2), tol=1e-9, budget=2000,
                       restarts=8, seed=0)
    assert found is None


# --- zero-bound witnesses ----------------------------------------------------

def test_witness_pauli_pair():
    found, tester, trivial = zero_bound_witness(pauli("X"), pauli("Z"))
    assert found and not trivial
    assert pair_uncertainty(tester, pauli("X"), pauli("Z")).value <= 1e-9


def test_witness_clock_shift_d3():
    p, q = clock_shift_pair(3)
    found, tester, trivial = zero_bound_witness(p, q)
    assert found and not trivial
    assert pair_uncertainty(tester, p, q).value <= 1e-9


def test_witness_not_found_quarter_turn():
    found, tester, trivial = zero_bound_witness(identity(2), omega(-1))
    assert not found and tester is None


def test_witness_agrees_with_distinguishability():
    rng = np.random.default_rng(123)
    checked_found = 0
    for k in range(500):
        if k % 5 == 0:  # orthogonal pairs: always distinguishable
            d = 2 + (k // 5) % 2
            g = haar_matrix(d, rng)
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(g @ clock_shift_pair(d)[0].matrix @ g.conj().T @ v.matrix)
        else:
            d = 2 + k % 2
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(haar_matrix(d, rng))
        found, tester, _ = zero_bound_witness(v, w)
        assert found == is_perfectly_distinguishable(v, w)
        if found:
            checked_found += 1
            assert pair_uncertainty(tester, v, w).value <= 1e-8
    assert checked_found >= 100  # the family must exercise the positive branch


@pytest.mark.parametrize("d", [5, 8, 16, 32])
def test_witness_agrees_with_distinguishability_at_sampled_d(d):
    rng = np.random.default_rng(900 + d)
    clock = clock_shift_pair(d)[0].matrix
    found_count = 0
    for kind in ("clock-offset", "clock-offset", "haar", "haar", "half-circle"):
        v = UnitaryOperator(haar_matrix(d, rng))
        g = haar_matrix(d, rng)
        if kind == "clock-offset":  # v† w = g Z^j g† is traceless: always distinguishable
            j = int(rng.integers(1, d))
            w = UnitaryOperator(g @ np.linalg.matrix_power(clock, j) @ g.conj().T @ v.matrix)
        elif kind == "haar":
            w = UnitaryOperator(haar_matrix(d, rng))
        else:  # every eigenphase of v† w within 1.2 of 0: the hull misses the origin
            phases = rng.uniform(-1.2, 1.2, d)
            w = UnitaryOperator(v.matrix @ (g * np.exp(1j * phases)) @ g.conj().T)
        found, tester, _ = zero_bound_witness(v, w)
        assert found == is_perfectly_distinguishable(v, w), kind
        assert found or kind != "clock-offset"
        if found:
            found_count += 1
            assert pair_uncertainty(tester, v, w).value <= 1e-8, kind
        else:
            assert tester is None
    assert found_count >= 2
    # v† w with eigenphases 0 and pi - eps, the rest between them: the hull passes
    # sin(eps / 2) from the origin, on either side of each tol
    for tol in (0.0, 1e-12, 1e-9, 1e-6):
        for eps in sorted({0.0, 2 * np.arcsin(tol / 2), 2 * np.arcsin(2 * tol), 1e-9}):
            phases = np.concatenate([[0.0, np.pi - eps], rng.uniform(0.1, 3.0, d - 2)])
            g = haar_matrix(d, rng)
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(v.matrix @ (g * np.exp(1j * phases)) @ g.conj().T)
            found, tester, _ = zero_bound_witness(v, w, tol)
            assert found == is_perfectly_distinguishable(v, w, tol), (tol, eps)
            if eps > 0:
                assert found == (np.sin(eps / 2) <= tol), (tol, eps)
            if found:
                assert pair_uncertainty(tester, v, w).value <= 1e-8, (tol, eps)


def test_deciders_accept_pairs_at_the_validation_edge():
    # each factor passes UnitaryOperator's 1e-9 check, while v† w is off by ~2e-9
    x = UnitaryOperator((1 + 4.9e-10) * pauli("X").matrix)
    z = UnitaryOperator((1 + 4.9e-10) * pauli("Z").matrix)
    assert np.abs(x.matrix.conj().T @ z.matrix @ (x.matrix.conj().T @ z.matrix).conj().T
                  - np.eye(2)).max() > 1.9e-9
    for tol in (0.0, 1e-9, 1e-6):
        assert is_perfectly_distinguishable(x, z, tol)
        found, tester, _ = zero_bound_witness(x, z, tol)
        chi = tester.input.amplitudes
        assert found and abs(np.vdot(x.matrix @ chi, z.matrix @ chi)) <= 1e-8
        # an outcome probability is 1 + 9.8e-10 here, within the operators' unitarity error
        assert pair_uncertainty(tester, x, z).value <= 1e-8
    # seeded Haar pairs moved off the unitary group by up to the validation tolerance
    rng = np.random.default_rng(77)
    for d in (2, 8, 32):
        near = []
        while len(near) < 6:
            e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = haar_matrix(d, rng) + 0.45e-9 * e / np.abs(e).max()
            if np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-9:
                near.append(UnitaryOperator(m))
        for v, w in zip(near[::2], near[1::2]):
            for tol in (0.0, 1e-9, 1e-6):
                found = zero_bound_witness(v, w, tol)[0]
                assert found == is_perfectly_distinguishable(v, w, tol), (d, tol)


def test_orthogonal_pairs_admit_zero_uncertainty_tester():
    # traceless-unitary offsets make v and w = v u HS-orthogonal, hence
    # distinguishable: a non-trivial zero-uncertainty tester must exist
    rng = np.random.default_rng(42)
    for k in range(50):
        d = 2 + k % 2
        g = haar_matrix(d, rng)
        u_perp = g @ clock_shift_pair(d)[0].matrix @ g.conj().T
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(v.matrix @ u_perp)
        assert abs(np.trace(v.matrix.conj().T @ w.matrix)) < 1e-9
        found, tester, trivial = zero_bound_witness(v, w)
        assert found and not trivial
        assert pair_uncertainty(tester, v, w).value <= 1e-8


def test_trivial_tester_reports_zero():
    rng = np.random.default_rng(31)
    for k in range(20):
        d = int(rng.integers(2, 5))
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        t = trivial_tester(v, w)
        assert pair_uncertainty(t, v, w).value <= 1e-9
        from utp.testers import is_trivial_measurement

        assert is_trivial_measurement(t.measurement, v, w)


# --- one pair contract: every entry point reads w v† through pair_operator ----------------

def test_every_pair_entry_point_refuses_a_dimension_mismatch_with_one_message():
    # v's dimension first, then w's: povm_bound, which forms v w†, once named them the other way
    m, q, h = computational_basis(2), identity(2), identity(3)
    for v, w in ((h, h), (q, h), (h, q)):
        message = re.escape(f"dimension mismatch: operators {v.dim} and {w.dim}, measurement 2")
        for call in (lambda: projective_bound(m, v, w), lambda: mes_bound(bell_basis(2), v, w),
                     lambda: povm_bound(povm_from_projective(m), v, w),
                     lambda: search_min_uncertainty(m, v, w),
                     lambda: saturating_tester_by_construction(m, v, w),
                     lambda: is_trivial_measurement(m, v, w)):
            with pytest.raises(ValueError, match=message):
                call()
    for v, w in ((q, h), (h, q)):
        with pytest.raises(ValueError, match=re.escape(
                f"operators {v.dim} and {w.dim}, measurement {v.dim}")):
            trivial_tester(v, w)


def _bound_fields(b):
    return b.value.hex(), b.base, b.argmax, b.max_overlap.hex()


def _assert_public_bound(report, v, w):
    m = report.tester.measurement
    public = (mes_bound if isinstance(m, MesMeasurement) else projective_bound)(m, v, w)
    assert _bound_fields(report.bound) == _bound_fields(public)  # bit for bit


def _array_fields(a):
    return a.dtype, a.shape, a.flags.writeable, a.tobytes()


def _assert_one_by_one_tester_and_bound(report, v, w):
    """The report's tester is, byte for byte, the one its pair's own constructors build, and its
    bound is ``EntropicBound.from_overlaps`` of the table that its measurement's bound reads."""
    t, a = report.tester, pair_operator(v.dim, v, w)
    if isinstance(t.measurement, ProjectiveMeasurement):
        x = t.measurement.matrix
        one = Tester.projective(PureState(row_inputs(x, v.matrix)), ProjectiveMeasurement(x))
        table = one.measurement.overlaps(a)
        pairs = ((t.measurement.matrix, one.measurement.matrix),)
    else:
        one = Tester.mes(MesMeasurement(t.measurement.elements))
        r = one.measurement.elements
        table = weyl_table(r, a) if weyl_bases(r) else one.measurement.overlaps(a)
        assert t.input is mes_state(t.dim)  # every MES tester shares the cached input
        pairs = ((t.measurement.elements, r),)
    for stacked, single in ((t.input.amplitudes, one.input.amplitudes), *pairs):
        assert _array_fields(stacked) == _array_fields(single)
    assert _bound_fields(report.bound) == _bound_fields(EntropicBound.from_overlaps(table))


def test_reports_carry_the_public_bound():
    # on the Weyl basis mes_bound reads row 0 of the table; a report once built the whole
    # table and differed from it by 2.2e-16 bits on this pair
    rng = np.random.default_rng(0)
    v, w = (UnitaryOperator(haar_matrix(2, rng)) for _ in range(2))
    _assert_public_bound(saturation._report(Tester.mes(bell_basis(2)), v, w, "numerical-search",
                                            2.0), v, w)
    for d, seed in ((2, 1), (3, 2), (4, 3)):
        m, v, w = flat_instance(d, seed)
        _assert_public_bound(saturating_tester_by_construction(m, v, w), v, w)
        _assert_public_bound(search_min_uncertainty(m, v, w, budget=200, seed=seed), v, w)
    u = haar_matrix(2, np.random.default_rng(11))
    cases = ((_chirp_bases(3), "projective"), (_chirp_bases(5), "projective"),
             (_haar_pauli_evensign(u), "mes"), (_haar_weyl_against_dft_weyl(3), "mes"))
    for (b1, b2), kind in cases:
        cert = muub_certify_by_saturation(b1, b2, budget=500)
        assert cert.certified
        for wm, row in zip(b2.elements, cert.reports):
            for vn, report in zip(b1.elements, row):
                assert report.tester.kind == kind
                _assert_public_bound(report, vn, wm)


@pytest.fixture(scope="module")
def contract_instances(benchmark_instances):
    """Certified bases of both flavours, the d = 32 chirp bases among them, and the benchmark's."""
    named = {name: tuple(UnitaryBasis(tuple(map(UnitaryOperator, side))) for side in sides)
             for name, sides in benchmark_instances.items()}
    return {**named, "chirp_bases_d5": _chirp_bases(5),
            "haar_pauli_evensign": _haar_pauli_evensign(haar_matrix(2, np.random.default_rng(11))),
            "haar_weyl_d3": _haar_weyl_against_dft_weyl(3),
            "haar_chirp_d32": _chirp_bases(32, haar_matrix(32, np.random.default_rng(32)))}


@pytest.mark.parametrize("block", [1, 7, saturation.REPORT_BLOCK_PAIRS])
def test_certification_reports_equal_the_one_pair_public_computation(monkeypatch,
                                                                     contract_instances, block):
    # reports are built in stacked blocks of pairs, their testers and bounds too; each must be,
    # bit for bit, what the public single-pair functions give for its tester, and its tester
    # what the single constructors build, wherever the block edges fall
    monkeypatch.setattr(saturation, "REPORT_BLOCK_PAIRS", block)
    found = 0
    for name, (b1, b2) in contract_instances.items():
        cert = muub_certify_by_saturation(b1, b2, budget=500)
        for wm, row in zip(b2.elements, cert.reports):
            for vn, r in zip(b1.elements, row):
                if r is None:  # clock_vs_shift_d3 is refused before any report
                    continue
                found += 1
                public = pair_uncertainty(r.tester, vn, wm)
                assert (r.achieved.value.hex(), r.achieved.base) == (public.value.hex(), 2.0), name
                _assert_public_bound(r, vn, wm)
                _assert_one_by_one_tester_and_bound(r, vn, wm)
                m = r.tester.measurement
                assert r.trivial == (isinstance(m, ProjectiveMeasurement)
                                     and is_trivial_measurement(m, vn, wm)), name
    assert found == 4 + 16 + 9 + 25 + 25 + 16 + 81 + 1024


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_input_search_refuses_a_log_base_not_finite_above_1_before_any_search(monkeypatch, base):
    def refuse(*_, **__):
        raise AssertionError("searched")

    monkeypatch.setattr(saturation, "_descend", refuse)
    message = re.escape(f"log base must be a finite number > 1, got {base}")
    with pytest.raises(ValueError, match=message):
        search_min_uncertainty(computational_basis(2), identity(2), omega(-1), base=base)


@pytest.mark.parametrize("method", ["bogus", "Row-Construction", ""])
def test_report_refuses_an_unknown_method(method):
    m, v, w = flat_instance(2, 0)
    report = saturating_tester_by_construction(m, v, w)
    with pytest.raises(ValueError, match=f"^unknown method {re.escape(repr(method))}$"):
        dataclasses.replace(report, method=method)
