"""Seeded inputs: operators, measurements and instance families.

Every random choice is drawn from one ``numpy.random.Generator`` made
from the workload seed, so a seed fixes the whole input sequence.  The
program only sees the results: operator names on its command line, or
JSON files written here in the CLI's own literal format

    operator / POVM element   {"dim": d, "re": [[..]], "im": [[..]]}
    projective measurement    {"states": [{"dim": d, "re": [..], "im": [..]}, ...]}
    POVM                      {"elements": [matrix literal, ...]}
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

QUBIT_NAMES = ("identity", "pauli-x", "pauli-y", "pauli-z", "omega-minus", "omega-plus")
ANY_DIM_NAMES = ("identity", "clock", "shift")


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R removed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()[None, :]


def dft(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)


def saturable_instance(rng: np.random.Generator, d: int):
    """(X, V, W) with W = X F X^dag V: row construction reaches log2 d in basis X."""
    x = haar(rng, d)
    v = haar(rng, d)
    return x, v, x @ dft(d) @ x.conj().T @ v


def random_rank1_povm(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Columns m_k with sum_k |m_k><m_k| = I: G rescaled by (G G^dag)^(-1/2)."""
    g = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    evals, evecs = np.linalg.eigh(g @ g.conj().T)
    return (evecs / np.sqrt(evals)[None, :]) @ evecs.conj().T @ g


def certification_instances() -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """The five fixed unitary-basis pairs of the certification part."""
    named = oracle.named_operator
    sx, sy, sz = (named(f"pauli-{c}", 2) for c in "xyz")
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]

    def powers(u: np.ndarray, d: int) -> list[np.ndarray]:
        return [np.linalg.matrix_power(u, k) for k in range(d)]

    def chirp(d: int) -> np.ndarray:
        # quadratic phase whose Gauss sums all have modulus sqrt(d)
        j = np.arange(d)
        return np.diag(np.exp(1j * np.pi * j * j * (d + 1) / d))

    clock3, shift3 = oracle.clock_shift(3)
    clock5 = oracle.clock_shift(5)[0]
    return {
        "qubit": ([named("identity", 2), sy], [named("omega-minus", 2), named("omega-plus", 2)]),
        "pauli_evensign": (
            [named("identity", 2), sx, sy, sz],
            [(np.eye(2) + 1j * (a * sx + b * sy + c * sz)) / 2 for a, b, c in signs],
        ),
        "chirp_d3": (powers(clock3, 3), [chirp(3) @ p for p in powers(clock3, 3)]),
        "chirp_d5": (powers(clock5, 5), [chirp(5) @ p for p in powers(clock5, 5)]),
        "clock_vs_shift_d3": (powers(clock3, 3), powers(shift3, 3)),
    }


def _vector_literal(v: np.ndarray) -> dict:
    return {"dim": int(v.size), "re": v.real.tolist(), "im": v.imag.tolist()}


def _matrix_literal(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


class InputFiles:
    """Writes JSON inputs under one directory; paths are returned relative to ``root``."""

    def __init__(self, directory: Path, root: Path) -> None:
        self.directory = directory
        self.root = root
        self.count = 0
        directory.mkdir(parents=True, exist_ok=True)

    def _write(self, stem: str, payload: dict) -> str:
        self.count += 1
        path = self.directory / f"{self.count:05d}-{stem}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path.relative_to(self.root))

    def operator(self, m: np.ndarray) -> str:
        return self._write("operator", _matrix_literal(m))

    def projective(self, x: np.ndarray) -> str:
        return self._write("measurement", {"states": [_vector_literal(c) for c in x.T]})

    def povm(self, vectors: np.ndarray) -> str:
        elements = [_matrix_literal(np.outer(m, m.conj())) for m in vectors.T]
        return self._write("povm", {"elements": elements})


def choose_operator(rng: np.random.Generator, files: InputFiles, d: int):
    """(CLI spec, matrix): a registry name valid at d, or a Haar JSON file."""
    names = (QUBIT_NAMES + ANY_DIM_NAMES[1:]) if d == 2 else ANY_DIM_NAMES
    pick = int(rng.integers(len(names) + 1))
    if pick == len(names):
        u = haar(rng, d)
        return files.operator(u), u
    return names[pick], oracle.named_operator(names[pick], d)


def choose_measurement(rng: np.random.Generator, files: InputFiles, d: int):
    """(CLI spec, basis matrix): computational, su2:theta,phi (qubits) or a Haar JSON basis."""
    pick = int(rng.integers(3))
    if pick == 0:
        return "computational", np.eye(d, dtype=complex)
    if pick == 1 and d == 2:
        theta, phi = (float(a) for a in rng.uniform(0.0, np.pi, 2))
        return f"su2:{theta!r},{phi!r}", oracle.su2_matrix(theta, phi)
    x = haar(rng, d)
    return files.projective(x), x


def choose_input(rng: np.random.Generator, x: np.ndarray):
    """(CLI spec, state): the K-th measurement vector or the K-th unit vector."""
    d = x.shape[0]
    k = int(rng.integers(d))
    if rng.integers(2):
        return f"chi:{k}", x[:, k].copy()
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    return f"e:{k}", e
