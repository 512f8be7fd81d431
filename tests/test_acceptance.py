"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import time

import numpy as np
import pytest

from conftest import haar_matrix, random_state
from utp.gamesim import GameConfig, run_game, transcript_to_json
from utp.operators import (
    UnitaryBasis,
    UnitaryOperator,
    clock_shift_pair,
    hs_inner,
    identity,
    is_muub,
    omega,
    pauli,
)
from utp.saturation import (
    muub_certify_by_saturation,
    saturating_tester_by_construction,
    search_min_uncertainty,
    su2_basis,
    su2_overlap_point,
    zero_bound_witness,
)
from utp.testers import (
    ProjectiveMeasurement,
    PureState,
    Tester,
    bell_basis,
    povm_from_projective,
)
from utp.uncertainty import pair_uncertainty, povm_bound, projective_bound


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{label}]: PASS")

        return inner

    return wrap


def _sweep_table(run_cli, pair):
    start = time.perf_counter()
    code, out, _ = run_cli(["sweep", "--pair", pair, "--grid", "101"])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,phi,max_overlap,diag_overlap,bound_bits"
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert table.shape == (101 * 101, 5)
    return table, elapsed


def _row(table, i, j):
    return table[i * 101 + j]


@criterion(1, "fig-2 surface: i-omega sweep")
def test_criterion_01_omega_surface(run_cli):
    table, elapsed = _sweep_table(run_cli, "i-omega")
    assert elapsed < 2.0, f"sweep took {elapsed:.2f}s"
    theta, phi, max_overlap = table[:, 0], table[:, 1], table[:, 2]
    assert abs(max_overlap.min() - 0.5) <= 1e-9
    # the minimum is attained exactly on the set sin(2 theta) sin(phi) = 0
    at_min = np.abs(max_overlap - 0.5) <= 1e-9
    on_zero_set = np.abs(np.sin(2 * theta) * np.sin(phi)) < 1e-8
    assert np.array_equal(at_min, on_zero_set)
    # trivial-tester peak at (pi/4, pi/2)
    assert _row(table, 25, 50)[2] == pytest.approx(1.0, abs=1e-12)


@criterion(2, "fig-1 surface: i-sigmay sweep")
def test_criterion_02_sigmay_surface(run_cli):
    table, _ = _sweep_table(run_cli, "i-sigmay")
    # independent oracle: dense matrix products at every grid point (the CSV
    # rounds to 12 significant digits, so rebuild the exact grid angles)
    a = pauli("Y").matrix  # w v+ = sigma_y
    axis = np.linspace(0.0, np.pi, 101)
    th, ph = np.meshgrid(axis, axis, indexing="ij")
    theta, phi = th.ravel(), ph.ravel()
    assert np.abs(theta - table[:, 0]).max() < 1e-11
    assert np.abs(phi - table[:, 1]).max() < 1e-11
    basis = np.empty((theta.size, 2, 2), dtype=complex)
    basis[:, 0, 0] = np.cos(theta)
    basis[:, 1, 0] = np.exp(1j * phi) * np.sin(theta)
    basis[:, 0, 1] = -np.sin(theta)
    basis[:, 1, 1] = np.exp(1j * phi) * np.cos(theta)
    overlaps = np.abs(np.einsum("nki,kl,nlj->nij", basis.conj(), a, basis)) ** 2
    assert np.abs(overlaps.max(axis=(1, 2)) - table[:, 2]).max() <= 1e-12
    # maximal overlap 1 at the theta edges and midline, for every phi
    for i in (0, 50, 100):
        rows = table[i * 101 : (i + 1) * 101]
        assert np.abs(rows[:, 2] - 1.0).max() <= 1e-9
    assert _row(table, 25, 50)[2] == pytest.approx(1.0, abs=1e-9)
    assert _row(table, 25, 25)[2] == pytest.approx(0.5, abs=1e-9)
    # pi/8 is not a node of the 101-point grid; evaluate the surface there
    point = su2_overlap_point("i-sigmay", np.pi / 8, np.pi / 2)
    assert point["max_overlap"] == pytest.approx(0.5, abs=1e-9)


@criterion(3, "zero-bound witness for clock/shift pairs")
def test_criterion_03_clock_shift_witness():
    for d in range(2, 6):
        start = time.perf_counter()
        p, q = clock_shift_pair(d)
        found, tester, trivial = zero_bound_witness(p, q)
        elapsed = time.perf_counter() - start
        assert found, f"no witness found for d={d}"
        assert not trivial
        assert pair_uncertainty(tester, p, q).value <= 1e-9
        assert elapsed < 1.0, f"witness for d={d} took {elapsed:.2f}s"


@criterion(4, "MUUB certification of the qubit pair bases")
def test_criterion_04_muub_certification():
    b1 = UnitaryBasis((identity(2), pauli("Y")))
    b2 = UnitaryBasis((omega(-1), omega(+1)))
    cert = muub_certify_by_saturation(b1, b2)
    assert cert.certified
    assert cert.trace_moduli.shape == (2, 2)
    assert np.abs(cert.trace_moduli - np.sqrt(2)).max() <= 1e-9
    for row in cert.reports:
        for report in row:
            assert abs(report.achieved.value - 1.0) <= 1e-6


@criterion(5, "full-space MUUB instance: Pauli vs even-sign basis")
def test_criterion_05_full_space_muub():
    sx, sy, sz = (pauli(c).matrix for c in "XYZ")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    rb = tuple(
        UnitaryOperator((np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2) for a, b, c in signs
    )
    bp = UnitaryBasis(tuple(pauli(c) for c in "IXYZ"))
    br = UnitaryBasis(rb)
    for p in bp.elements:
        for r in br.elements:
            assert abs(abs(hs_inner(p, r)) - 1.0) <= 1e-12
    flag, kappa = is_muub(bp, br)
    assert flag
    assert abs(kappa - 1.0) <= 1e-12


@criterion(6, "MES diagonal law and no trivial testers")
def test_criterion_06_mes_no_trivial():
    rng = np.random.default_rng(2718)
    for k in range(100):
        d = 2 + k % 2
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(haar_matrix(d, rng))
        a = w.matrix @ v.matrix.conj().T
        x = bell_basis(d).matrix
        big = np.kron(a, np.eye(d))
        diag = np.abs(np.diag(x.conj().T @ big @ x))
        assert np.abs(diag.max() - abs(np.trace(a)) / d) <= 1e-9
        # margin of a from the phase line {exp(i alpha) I}, in operator norm
        eigs = np.linalg.eigvals(a)
        alphas = np.linspace(-np.pi, np.pi, 3600, endpoint=False)
        margin = np.abs(eigs[None, :] - np.exp(1j * alphas)[:, None]).max(axis=1).min()
        if margin > 1e-3:
            assert diag.max() < 1 - 1e-6


@criterion(7, "bound inequality over random testers")
def test_criterion_07_bound_inequality():
    rng = np.random.default_rng(1618)
    for d in (2, 3, 4):
        cap = np.log2(d)
        for _ in range(1000):
            m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
            t = Tester.projective(PureState(random_state(d, rng)), m)
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(haar_matrix(d, rng))
            bound = projective_bound(m, v, w)
            assert pair_uncertainty(t, v, w).value - bound.value >= -1e-9
            assert 0.0 <= bound.value <= cap + 1e-12


@criterion(8, "rank-1 POVM bound reduces to the projective bound")
def test_criterion_08_povm_reduction():
    rng = np.random.default_rng(577)
    for d in (2, 3):
        for _ in range(100):
            m = ProjectiveMeasurement.from_matrix(haar_matrix(d, rng))
            v = UnitaryOperator(haar_matrix(d, rng))
            w = UnitaryOperator(haar_matrix(d, rng))
            delta = povm_bound(povm_from_projective(m), v, w).value - projective_bound(m, v, w).value
            assert abs(delta) <= 1e-9


@criterion(9, "guessing-game convergence and reproducibility")
def test_criterion_09_game_convergence():
    m = su2_basis(np.pi / 4, 0.0)
    cfg = GameConfig(
        tester=Tester.projective(m.states[0], m),
        v=identity(2),
        w=omega(-1),
        trials=100000,
        seed=20260808,
    )
    t1 = run_game(cfg)
    t2 = run_game(cfg)
    assert abs(t1.empirical_entropy_sum.value - 1.0) <= 0.02
    assert transcript_to_json(t1) == transcript_to_json(t2)
    assert np.array_equal(t1.counts_v, t2.counts_v)
    assert np.array_equal(t1.counts_w, t2.counts_w)


@criterion(10, "search reaches the construction value")
def test_criterion_10_search_consistency():
    rng = np.random.default_rng(31415)
    for k in range(50):
        d = 2 + k % 2
        x = haar_matrix(d, rng)
        dft = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        v = UnitaryOperator(haar_matrix(d, rng))
        w = UnitaryOperator(x @ dft @ x.conj().T @ v.matrix)
        m = ProjectiveMeasurement.from_matrix(x)
        constructed = saturating_tester_by_construction(m, v, w)
        assert constructed is not None, f"construction failed on instance {k}"
        searched = search_min_uncertainty(m, v, w, budget=5000, seed=k, restarts=20)
        assert abs(searched.achieved.value - constructed.achieved.value) <= 1e-6, (
            f"instance {k}: search {searched.achieved.value} vs "
            f"construction {constructed.achieved.value}"
        )
