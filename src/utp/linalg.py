"""Dense complex linear algebra for small operator dimensions.

Everything here works on plain ``numpy`` arrays of ``complex128``.  The
functions are thin, validated wrappers chosen so that the rest of the
package never touches LAPACK directly and every tolerance is explicit.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9

# Eigenvalues closer than this (in phase angle) are treated as one
# degenerate cluster when ordering an eigenbasis.
CLUSTER_GAP = 1e-7

# eig_unitary's first stage leaves cosines closer than this in one run for its
# second stage.  Each run's subspace is then accurate to ~eps / SPLIT_GAP; the
# gap must stay below 2 sin(pi / 4d), the cosine margin of ``_clear_axis``.
SPLIT_GAP = 1e-3


class ConvergenceError(RuntimeError):
    """An eigensolver failed to converge, or its eigenpairs miss the residual check."""


class InvariantError(ArithmeticError):
    """A computed quantity broke an invariant that holds in exact arithmetic."""


def validate_tol(tol: float) -> None:
    """Refuse a tolerance that is negative, NaN or infinite: each decides yes/no wrongly."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def as_complex_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D complex array, optionally checking its shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} cols, got {m.shape[1]}")
    return m


def as_complex_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D complex array, optionally checking its length."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(w.real)) or not np.all(np.isfinite(w.imag)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if dim is not None and w.size != dim:
        raise ValueError(f"expected dimension {dim}, got {w.size}")
    return w


def operator_norm(a) -> float:
    """Largest singular value."""
    try:
        return float(np.linalg.norm(as_complex_matrix(a), ord=2))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_complex_matrix(a)
    return a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= tol


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    d = a.shape[0]
    return np.abs(a.conj().T @ a - np.eye(d)).max() <= tol


def _clear_axis(u: np.ndarray) -> float:
    """A phase phi with every eigenvalue of u at least pi/(4d) in angle from +-i e^{i phi}.

    Each eigenvalue angle is +-arccos of an eigenvalue of (u + u†)/2, so the
    angles are known up to sign without eigenvectors.  phi + pi/2 is put in the
    middle of the widest gap between all 2d candidates taken modulo pi, a gap
    of at least pi/(2d).
    """
    a = np.arccos(np.clip(np.linalg.eigvalsh((u + u.conj().T) / 2), -1.0, 1.0))
    points = np.sort(np.concatenate([a, -a]) % np.pi)
    gaps = np.diff(points, append=points[0] + np.pi)
    k = int(np.argmax(gaps))
    return float(points[k] + gaps[k] / 2 - np.pi / 2)


def eig_unitary(u, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix with an orthonormal eigenbasis.

    A unitary is normal, so for any phase phi the Hermitian matrices
    F = (r + r†)/2 and G = (r - r†)/2i of r = e^{-i phi} u commute and share
    u's eigenvectors, with eigenvalues cos(theta - phi) and sin(theta - phi).
    One ``eigh`` of F splits the spectrum by cosine; in each run of cosines
    closer than ``SPLIT_GAP``, an ``eigh`` of G compressed to the run's
    subspace splits it by sine (simultaneous diagonalisation of commuting
    Hermitian matrices, Horn & Johnson, *Matrix Analysis*, ch. 2).  phi is
    chosen with no eigenvalue near e^{i(phi +- pi/2)}, so no run crosses
    cos(theta - phi) = 0 and the sine is monotone along each run.  Every
    step is unitary, so the basis is orthonormal even when eigenvalues are
    degenerate.

    Returns (eigenvalues, eigenvectors) as ``np.linalg.eigh`` does: column j
    of the second is the eigenvector of the j-th eigenvalue.  Eigenvalues are
    the Rayleigh quotients <z|u|z>, sorted by phase angle in [-pi, pi); eigenvalues
    closer than ``CLUSTER_GAP`` in angle form a cluster whose vectors span
    the corresponding invariant subspace (clusters straddling the branch
    cut are kept together on the -pi side).

    Raises if ``u`` is not unitary within ``tol`` or if the residual
    ``|u v - lambda v|`` exceeds ``10 * tol`` anywhere.
    """
    u = as_complex_matrix(u)
    d = u.shape[0]
    if not is_unitary(u, tol):
        raise ValueError(f"matrix is not unitary within tol={tol}")
    try:
        r = np.exp(-1j * _clear_axis(u)) * u
        cosines, z = np.linalg.eigh((r + r.conj().T) / 2)
        sines = (r - r.conj().T) / 2j
        breaks = np.flatnonzero(np.diff(cosines) >= SPLIT_GAP) + 1
        for lo, hi in zip([0, *breaks], [*breaks, d]):
            if hi - lo > 1:
                run = z[:, lo:hi]
                z[:, lo:hi] = run @ np.linalg.eigh(run.conj().T @ sines @ run)[1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    lam = np.einsum("ij,ij->j", z.conj(), u @ z)
    angles = np.angle(lam)
    # Map angles within a cluster gap of pi onto the -pi side so the sort
    # does not split a degenerate cluster across the branch cut.
    angles = np.where(angles > np.pi - CLUSTER_GAP, angles - 2 * np.pi, angles)
    order = np.argsort(angles, kind="stable")
    lam = lam[order]
    z = z[:, order]
    residual = np.abs(u @ z - z * lam[None, :]).max()
    if residual > 10 * tol:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds {10 * tol:.3e}")
    return lam, z


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix, or of each in a (..., d, d) stack.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` is an error.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim <= 2:
        m = as_complex_matrix(m)
    elif not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    mh = m.conj().swapaxes(-1, -2)
    if m.shape[-1] != m.shape[-2] or np.abs(m - mh).max() > tol:
        raise ValueError(f"matrix is not Hermitian within tol={tol}")
    w, v = np.linalg.eigh(m)
    if w.min() < -tol:
        raise ValueError(f"matrix has eigenvalue {w.min():.3e} < -tol")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (root + root.conj().swapaxes(-1, -2)) / 2
