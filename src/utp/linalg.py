"""Dense complex linear algebra for small operator dimensions.

Everything here works on plain ``numpy`` arrays of ``complex128``.  The
functions are thin, validated wrappers chosen so that the rest of the
package never touches LAPACK directly and every tolerance is explicit.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

# Eigenvalues closer than this (in phase angle) are treated as one
# degenerate cluster when ordering an eigenbasis.
CLUSTER_GAP = 1e-7


class ConvergenceError(RuntimeError):
    """An iterative decomposition failed to converge."""


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


def eig_unitary(u, tol: float = DEFAULT_TOL) -> list[tuple[complex, np.ndarray]]:
    """Eigendecomposition of a unitary matrix with an orthonormal eigenbasis.

    Uses the complex Schur form, which for a normal matrix is diagonal up
    to roundoff, so the Schur vectors form an orthonormal eigenbasis even
    when eigenvalues are degenerate.  Pairs are returned sorted by the
    phase angle of the eigenvalue in [-pi, pi); eigenvalues closer than
    ``CLUSTER_GAP`` in angle form a cluster whose vectors span the
    corresponding invariant subspace (clusters straddling the branch cut
    are kept together on the -pi side).

    Raises if ``u`` is not unitary within ``tol`` or if the residual
    ``|u v - lambda v|`` exceeds ``10 * tol`` anywhere.
    """
    u = as_complex_matrix(u)
    d = u.shape[0]
    if not is_unitary(u, tol):
        raise ValueError(f"matrix is not unitary within tol={tol}")
    import scipy.linalg  # loaded on first use: numpy alone serves the closed-form bounds

    try:
        t, z = scipy.linalg.schur(u, output="complex")
    except Exception as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur iteration did not converge: {exc}") from exc
    lam = np.diag(t)
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
    return [(complex(lam[i]), z[:, i].copy()) for i in range(d)]


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` is an error.
    """
    m = as_complex_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError(f"matrix is not Hermitian within tol={tol}")
    w, v = np.linalg.eigh(m)
    if w.min() < -tol:
        raise ValueError(f"matrix has eigenvalue {w.min():.3e} < -tol")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[None, :]) @ v.conj().T
    return (root + root.conj().T) / 2
