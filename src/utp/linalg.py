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


class ConvergenceError(RuntimeError):
    """An eigensolver failed to converge, or its eigenpairs miss the residual check."""


class InvariantError(ArithmeticError):
    """A computed quantity broke an invariant that holds in exact arithmetic."""


def computed(build, values: tuple, what: str, *args):
    """``build(*values)`` for values the package computed rather than was given.

    A ``ValueError`` there is a broken invariant, not bad input: it is raised again
    as ``InvariantError``, its message led by ``what % args``, formatted only then.
    """
    try:
        return build(*values)
    except ValueError as exc:
        raise InvariantError(f"{what % args} {exc}") from exc


def validate_tol(tol: float, scale: float) -> None:
    """Refuse a tol outside [0, scale): one the size of what it decides answers all alike."""
    if not 0 <= tol < scale:
        raise ValueError(f"tol must be a number in [0, {scale:g}), got {tol}")


def validate_base(base: float) -> None:
    """Refuse a logarithm base that is not finite and > 1: each gives no entropy in that unit."""
    if not (math.isfinite(base) and base > 1):
        raise ValueError(f"log base must be a finite number > 1, got {base}")


def validate_counts(*counts: tuple[str, object, int]) -> None:
    """Refuse each (name, value, least) whose value is not a Python or numpy integer >= least.

    A bool is refused too: numpy takes no bool as an array size.
    """
    for name, value, least in counts:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def as_complex(a, ndim: int, stacked: bool = False) -> np.ndarray:
    """Coerce to a finite complex vector (``ndim`` 1) or matrix (``ndim`` 2), or with ``stacked``
    a stack of them, never flattened."""
    what = "vector" if ndim == 1 else "matrix"
    m = np.asarray(a, dtype=complex)
    if m.ndim != ndim + stacked:
        raise ValueError(f"expected a {what}{' stack' * stacked}, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    return m


def owned(a, dtype=complex) -> np.ndarray:
    """``a`` as is if it is a read-only, C-contiguous array of ``dtype``: whoever made it
    read-only hands it over and must not write it through another view.  Any other array is
    copied in C order, read-only, so no value computed from it depends on the caller's layout."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable
            and a.flags.c_contiguous):
        a = np.array(a, dtype=dtype, order="C")
        a.flags.writeable = False
    return a


def operator_norm(a) -> float:
    """Largest singular value."""
    try:
        return float(np.linalg.norm(as_complex(a, 2), ord=2))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Whether a square matrix, or each of a stack, is its adjoint within tol (never with NaN)."""
    return a.shape[-1] == a.shape[-2] and bool(np.abs(a - a.conj().swapaxes(-1, -2)).max() <= tol)


def check_hermitian_psd(a: np.ndarray, what: str) -> None:
    """Refuse a square matrix, or each of a stack, unless Hermitian and PSD within DEFAULT_TOL."""
    if not is_hermitian(a):
        raise ValueError(f"{what} is not Hermitian")
    lo = np.linalg.eigvalsh(a).min()
    if not lo >= -DEFAULT_TOL:
        raise ValueError(f"{what} has eigenvalue {lo:.3e} < 0")


def unitarity_residual(u: np.ndarray, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """scale·U†U − I, formed in place, of a square matrix or each of a stack, and max |entry|.

    The max is one per matrix; NaN or Inf entries make it NaN or Inf: decide ``not dev <= tol``.
    """
    g = u.conj().swapaxes(-1, -2) @ u
    g *= scale
    g -= np.eye(u.shape[-1])
    return g, np.abs(g).max(axis=(-2, -1))


def eig_unitary(u, tol: float | np.ndarray = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix, or of each of a stack, with orthonormal eigenbases.

    For a phase phi with -1 not an eigenvalue of r = e^{-i phi} u, the Cayley
    transform H = i (I - r)(I + r)^{-1} is Hermitian, shares u's eigenvectors
    and has eigenvalues tan((theta - phi) / 2), strictly increasing in theta
    on (phi - pi, phi + pi); one ``eigh`` of H is an eigenbasis of u.  Each
    eigenvalue angle is +-arccos of an eigenvalue of (u + u†)/2, so the angles
    are known up to sign without eigenvectors: phi + pi is put in the middle
    of the widest gap between all 2d candidates, a gap of at least pi/d, which
    keeps |tan| below 1/sin(pi/4d).  ``eigh`` returns a unitary basis, so it
    is orthonormal even when eigenvalues are degenerate.

    Returns (eigenvalues, eigenvectors) as ``np.linalg.eigh`` does: column j
    of the second is the eigenvector of the j-th eigenvalue.  Eigenvalues are
    the Rayleigh quotients <z|u|z>, sorted by phase angle in [-pi, pi); eigenvalues
    closer than ``CLUSTER_GAP`` in angle form a cluster whose vectors span
    the corresponding invariant subspace (clusters straddling the branch
    cut are kept together on the -pi side).

    ``u`` may be an (n, d, d) stack, with ``tol`` one tolerance or one per
    matrix; each step then runs on the whole stack, matrix by matrix, and the
    results are (n, d) eigenvalues and (n, d, d) eigenvectors.  Raises if a
    matrix is not unitary within its ``tol`` or if its residual
    ``|u v - lambda v|`` exceeds ``10 * tol`` anywhere.
    """
    stack = np.asarray(u, dtype=complex)
    single = stack.ndim == 2
    stack = stack[None] if single else stack
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not np.isfinite(stack).all():
        raise ValueError(f"expected finite square matrices, got shape {stack.shape}")
    n, d = stack.shape[:2]
    tol = np.full(n, tol, dtype=float)
    bad = np.flatnonzero(~(unitarity_residual(stack)[1] <= tol))
    if bad.size:
        where = "" if single else f" (matrix {bad[0]} of the stack)"
        raise ValueError(f"matrix is not unitary within tol={tol[bad[0]]}{where}")
    eye = np.eye(d)
    a = np.arccos(np.clip(np.linalg.eigvalsh((stack + stack.conj().swapaxes(1, 2)) / 2), -1, 1))
    points = np.sort(np.concatenate([a, 2 * np.pi - a], axis=1), axis=1)
    gaps = np.diff(points, axis=1, append=points[:, :1] + 2 * np.pi)
    rows = np.arange(n)[:, None]
    k = np.argmax(gaps, axis=1)[:, None]
    middle = points[rows, k] + gaps[rows, k] / 2
    r = np.exp(-1j * (middle - np.pi))[:, :, None] * stack
    try:
        h = 1j * np.linalg.solve(eye + r, eye - r)
        z = np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2)[1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    uz = stack @ z
    lam = np.einsum("nij,nij->nj", z.conj(), uz)
    angles = np.angle(lam)
    # Map angles within a cluster gap of pi onto the -pi side so the sort
    # does not split a degenerate cluster across the branch cut.
    angles = np.where(angles > np.pi - CLUSTER_GAP, angles - 2 * np.pi, angles)
    order = np.argsort(angles, axis=1, kind="stable")
    lam = lam[rows, order]
    columns = (rows[:, :, None], np.arange(d)[:, None], order[:, None, :])
    z, uz = z[columns], uz[columns]
    residual = np.abs(uz - z * lam[:, None, :]).max(axis=(1, 2))
    bad = np.flatnonzero(residual > 10 * tol)
    if bad.size:
        first = bad[0]
        where = "" if single else f" (matrix {first} of the stack)"
        raise ConvergenceError(
            f"eigenpair residual {residual[first]:.3e} exceeds {10 * tol[first]:.3e}{where}"
        )
    return (lam[0], z[0]) if single else (lam, z)


def psd_sqrt(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` is an error.
    """
    m = as_complex(m, 2)
    if not is_hermitian(m, tol):
        raise ValueError(f"matrix is not Hermitian within tol={tol}")
    w, v = np.linalg.eigh(m)
    if w.min() < -tol:
        raise ValueError(f"matrix has eigenvalue {w.min():.3e} < -tol")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2
