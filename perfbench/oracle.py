"""Reference values for every checked output, in plain numpy.

Nothing here imports ``utp``: each quantity is recomputed from its
defining formula, so a wrong answer from the library shows up as a
mismatch instead of agreeing with itself.

* projective bound   -log2 max_ij |<chi_i| W V^dag |chi_j>|^2
* MES bound          -log2 max_ij |Tr(N_i^dag A N_j) / d|^2 over the
                     Weyl-Heisenberg operators N = S^a Z^b, A = W V^dag,
                     evaluated as one FFT per (a, a') pair
* POVM bound         rank-1 elements M_k = |m_k><m_k| reduce
                     ||sqrt(V^dag M_i V) sqrt(W^dag M_j W)|| to
                     |<m_i| V W^dag |m_j>|, so the bound is
                     -2 log2 max_ij |<m_i| V W^dag |m_j>|
* sweep surfaces     the closed forms s = sin^2(2 theta) sin^2(phi):
                     i-sigmay (diag s, off 1 - s), i-omega ((1 + s)/2, (1 - s)/2)
* guessing game      counts replayed from the same Philox-4x64 key
* MUUB soundness     |Tr(W V^dag)|^2 constant and equal to d^2 / n
"""

from __future__ import annotations

import math

import numpy as np

BOUND_TOL = 1e-9  # bounds, entropies and claims
SWEEP_TOL = 1e-12  # sweep rows against the closed forms
ANGLE_TOL = 1e-11  # CSV angles are printed with 12 significant digits
SATURATED_GAP = 1e-6  # a search "reaches" the construction below this gap


class Mismatch(AssertionError):
    """An output disagrees with its reference value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def close(name: str, got: float, want: float, tol: float = BOUND_TOL) -> None:
    expect(abs(got - want) <= tol, f"{name}: got {got!r}, reference {want!r}")


# --- named operators, written from their definitions ------------------------

_PAULI = {
    "identity": np.eye(2, dtype=complex),
    "pauli-x": np.array([[0, 1], [1, 0]], dtype=complex),
    "pauli-y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "pauli-z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def clock_shift(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Clock P and shift Q on the centred index set -floor(d/2) .. floor((d-1)/2)."""
    js = np.arange(-(d // 2), (d - 1) // 2 + 1)
    clock = np.diag(np.exp(2j * np.pi * js / d))
    fourier = np.exp(2j * np.pi * np.outer(js, js) / d) / math.sqrt(d)
    shift = fourier @ np.diag(np.exp(-2j * np.pi * js / d)) @ fourier.conj().T
    return clock, shift


def named_operator(name: str, d: int) -> np.ndarray:
    if name in ("identity", "i"):
        return np.eye(d, dtype=complex)
    if name in _PAULI:
        return _PAULI[name]
    if name in ("omega-minus", "omega-plus"):
        sign = -1 if name.endswith("minus") else 1
        return (_PAULI["identity"] + sign * 1j * _PAULI["pauli-y"]) / math.sqrt(2)
    if name in ("clock", "shift"):
        return clock_shift(d)[0 if name == "clock" else 1]
    raise KeyError(name)


def su2_matrix(theta: float, phi: float) -> np.ndarray:
    """Columns chi_1 = (cos t, e^{ip} sin t), chi_2 = (-sin t, e^{ip} cos t)."""
    e = np.exp(1j * phi)
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [e * math.sin(theta), e * math.cos(theta)]]
    )


# --- entropies and bounds ---------------------------------------------------

def entropy_bits(p: np.ndarray) -> float:
    q = p[p > 0]
    return float(-(q * np.log2(q)).sum()) + 0.0


def outcome_probs(x: np.ndarray, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.abs(x.conj().T @ (u @ psi)) ** 2


def pair_entropy_bits(x, v, w, psi) -> tuple[float, float]:
    return entropy_bits(outcome_probs(x, v, psi)), entropy_bits(outcome_probs(x, w, psi))


def _bound(max_overlap: float, power: float = 1.0) -> float:
    return float(-power * math.log2(min(max_overlap, 1.0))) + 0.0


def projective_overlaps(x, v, w) -> np.ndarray:
    return np.abs(x.conj().T @ (w @ v.conj().T) @ x) ** 2


def projective_bound(x, v, w) -> float:
    return _bound(projective_overlaps(x, v, w).max())


def mes_overlaps(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|<nu_i|(A (x) I)|nu_j>|^2 as a (d, d, d) table over (a, a', b' - b mod d)."""
    d = v.shape[0]
    a = w @ v.conj().T
    r = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d  # r[a, k] = (k + a) mod d
    g = a[r[:, None, :], r[None, :, :]]  # g[a, a', k] = A[k + a, k + a']
    return np.abs(np.fft.ifft(g, axis=-1)) ** 2  # (1/d) sum_k g w^{k delta}, squared


def mes_bound(v, w) -> tuple[float, np.ndarray]:
    table = mes_overlaps(v, w)
    return _bound(table.max()), table


def mes_overlap_at(table: np.ndarray, i: int, j: int) -> float:
    """Table entry of the Bell-basis element pair (i, j), i = a d + b."""
    d = table.shape[0]
    return float(table[i // d, j // d, (j % d - i % d) % d])


def povm_rank1_overlaps(vectors: np.ndarray, v, w) -> np.ndarray:
    """|<m_i| V W^dag |m_j>| for POVM elements |m_k><m_k|, vectors m_k as columns."""
    return np.abs(vectors.conj().T @ v @ w.conj().T @ vectors)


def povm_rank1_bound(vectors: np.ndarray, v, w) -> float:
    return _bound(povm_rank1_overlaps(vectors, v, w).max(), power=2.0)


def hull_distance(v: np.ndarray, w: np.ndarray) -> float:
    """Distance from 0 to the numerical range of V^dag W (hull of its eigenvalues)."""
    angles = np.sort(np.angle(np.linalg.eigvals(v.conj().T @ w)))
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    widest = float(gaps.max())
    return 0.0 if widest <= np.pi else math.cos((2 * np.pi - widest) / 2)


# --- sweep surfaces ---------------------------------------------------------

def sweep_reference(pair: str, grid: int) -> dict[str, np.ndarray]:
    axis = np.linspace(0.0, np.pi, grid)
    theta, phi = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    s = np.sin(2 * theta) ** 2 * np.sin(phi) ** 2
    if pair == "i-sigmay":
        diag, off = s, 1.0 - s
    else:
        diag, off = (1.0 + s) / 2, (1.0 - s) / 2
    top = np.maximum(diag, off)
    return {"theta": theta, "phi": phi, "max": top, "diag": diag, "bits": -np.log2(top)}


def check_sweep_csv(text: str, pair: str, grid: int) -> None:
    header, _, body = text.partition("\n")
    expect(header == "theta,phi,max_overlap,diag_overlap,bound_bits", f"sweep header {header!r}")
    rows = np.fromstring(body.replace("\n", ","), dtype=float, sep=",")
    expect(rows.size == 5 * grid * grid, f"sweep has {rows.size / 5:g} rows, want {grid * grid}")
    rows = rows.reshape(-1, 5)
    ref = sweep_reference(pair, grid)
    for col, key, tol in ((0, "theta", ANGLE_TOL), (1, "phi", ANGLE_TOL), (2, "max", SWEEP_TOL),
                          (3, "diag", SWEEP_TOL), (4, "bits", SWEEP_TOL)):
        dev = float(np.abs(rows[:, col] - ref[key]).max())
        expect(dev <= tol, f"sweep {pair} column {key} deviates by {dev:.3e} > {tol:.0e}")


# --- guessing game ----------------------------------------------------------

def replay_game(pv, pw, trials: int, seed: int, bias: float, chunk: int = 1 << 20):
    """Counts per outcome, reading two uniforms per trial from Philox(key=seed)."""
    cum = []
    for p in (pv, pw):
        c = np.clip(np.cumsum(p), 0.0, 1.0)
        c[-1] = 1.0
        cum.append(c)
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts_v = np.zeros(len(pv), dtype=np.int64)
    counts_w = np.zeros(len(pw), dtype=np.int64)
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        u = rng.random((n, 2))
        on_v = u[:, 0] < bias
        for counts, c, picked in ((counts_v, cum[0], on_v), (counts_w, cum[1], ~on_v)):
            counts += np.bincount(np.searchsorted(c, u[picked, 1], side="right"),
                                  minlength=counts.size)
        done += n
    return counts_v, counts_w


def frequency_entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    return entropy_bits(counts / total) if total > 0 else 0.0


# --- mutual unbiasedness ----------------------------------------------------

def muub_reference(b1: list[np.ndarray], b2: list[np.ndarray]) -> tuple[bool, np.ndarray]:
    """(is MUUB, |Tr(W_m V_n^dag)| table) for two unitary bases of n elements each."""
    d, n = b1[0].shape[0], len(b1)
    table = np.array([[abs(np.trace(wm @ vn.conj().T)) for vn in b1] for wm in b2])
    return bool(np.abs(table ** 2 - d * d / n).max() <= BOUND_TOL), table
