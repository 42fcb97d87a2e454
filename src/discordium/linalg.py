"""Dense complex Hermitian linear algebra.

Operators are plain ``numpy`` complex arrays. Bipartite indexing is A-major
throughout the package: the composite index of subsystem indices ``(i, k)``
is ``i * d_b + k``. All logarithms elsewhere are base 2; this module is
log-free.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadConfig,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    NotUnitary,
    ValidationError,
)

HERMITIAN_TOL = 1e-10

# Support cutoff: eigenvalues at or below CUTOFF_SCALE * max(1, largest
# eigenvalue) are treated as exact zeros.
CUTOFF_SCALE = 1e-10


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _require_int(value, name: str, low: int, high: int | None = None):
    """``value`` if an integer in [low, high] (numpy's count, ``bool`` not), else BadConfig."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadConfig(f"{name} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise BadConfig(f"{name} must be {bound}, got {value}")
    return value


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a``, or raise :class:`ValidationError` naming ``what`` on a non-finite entry."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise ValidationError(f"expected a numeric matrix, got {type(m).__name__}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return require_finite(a, "matrix")


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the symmetrized matrix, or raise if max |m - m†| exceeds ``tol``."""
    a = as_square_matrix(m)
    with np.errstate(over="ignore"):  # an overflowing defect is inf, so rejected
        defect = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    return 0.5 * a + 0.5 * a.conj().T  # unlike 0.5 * (a + a†), cannot overflow


def require_unitary(u, dim: int | None = None) -> np.ndarray:
    """Return ``u`` as a complex array if it is square and passes :func:`require_isometry`.

    With ``dim`` the shape must be (dim, dim) (:class:`DimensionMismatch`).
    """
    a = np.asarray(u, dtype=complex)
    if dim is not None and a.shape != (dim, dim):
        raise DimensionMismatch(f"basis shape {a.shape} != ({dim}, {dim})")
    return require_isometry(as_square_matrix(a), "unitarity")


def require_isometry(u: np.ndarray, what: str, error=NotUnitary) -> np.ndarray:
    """Return ``u``, or raise ``error`` naming ``what`` if ||u† u - I||_F exceeds 1e-10."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN
        defect = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))
    if not defect <= 1e-10:  # so that NaN fails
        raise error(f"{what} defect {defect:.3e} exceeds 1e-10")
    return u


def support_cutoff(eigenvalues: np.ndarray):
    """Default threshold below which eigenvalues count as zero.

    A stack of eigenvalue vectors gets one threshold per vector (last axis).
    """
    top = np.max(np.abs(eigenvalues), axis=-1, initial=0.0)
    return CUTOFF_SCALE * np.maximum(top, 1.0)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK, eigenvalues ascending."""
    vals, vecs = np.linalg.eigh(require_hermitian(m))
    return EigenDecomposition(vals, vecs)


def matrix_function_on_support(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a PSD matrix on its support.

    Eigenvalues at or below :func:`support_cutoff` are treated as exact
    zeros and excluded from ``f``, which makes functions like ``x**-0.5``
    and ``log2`` well defined on rank-deficient inputs.
    """
    vals, vecs = hermitian_eig(m)
    cutoff = support_cutoff(vals)
    if np.any(vals < -cutoff):
        worst = float(vals.min())
        raise NotPositive(f"eigenvalue {worst:.3e} below -{cutoff:.1e}")
    keep = vals > cutoff
    fvals = np.zeros_like(vals)
    if np.any(keep):
        fvals[keep] = f(vals[keep])
    out = (vecs * fvals) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def kron(a, b) -> np.ndarray:
    """Tensor product with A-major composite indexing."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def conjugate_a(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(X† (x) I_B) m (X (x) I_B) for an A-major operator ``m`` and a d_in x d_out ``x``.

    ``m`` has A dimension d_in, the result d_out. Each factor is one matmul
    on a reshaped view: O(d_A^3 d_B^2) in place of the O(d_A^3 d_B^3) of
    multiplying by the explicit Kronecker products.
    """
    d_in, d_out = x.shape
    d_b = m.shape[0] // d_in
    left = (x.conj().T @ m.reshape(d_in, -1)).reshape(d_out * d_b, d_in * d_b)
    # (left (X (x) I))^T = (X^T (x) I) left^T: the right factor as a left one.
    return (x.T @ left.T.reshape(d_in, -1)).reshape(d_out * d_b, d_out * d_b).T


def block_diag(blocks: np.ndarray) -> np.ndarray:
    """A-major operator with ``blocks[a]`` as diagonal block (a, a), zero elsewhere."""
    n, d_b = blocks.shape[:2]
    r = np.zeros((n, d_b, n, d_b), dtype=complex)
    idx = np.arange(n)
    r[idx, :, idx, :] = blocks
    return r.reshape(n * d_b, n * d_b)


def partial_trace(m, d_a: int, d_b: int, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``keep="A"`` returns the d_a x d_a reduction, ``keep="B"`` the
    d_b x d_b one. Composite indexing is A-major.
    """
    a = as_square_matrix(m)
    if a.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix dimension {a.shape[0]} is not d_a*d_b = {d_a * d_b}"
        )
    r = a.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ibjb->ij", r)
    if keep == "B":
        return np.einsum("ibic->bc", r)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def distance(a, b, norm: str = "frobenius") -> float:
    """Distance between two equally sized matrices.

    ``frobenius`` is the entrywise 2-norm of the difference; ``trace`` is the
    full trace norm (sum of singular values), so orthogonal pure states are
    at trace distance 2 under this convention.
    """
    x = as_square_matrix(a)
    y = as_square_matrix(b)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shape {x.shape} vs {y.shape}")
    d = x - y
    if norm == "frobenius":
        return float(np.linalg.norm(d))
    if norm == "trace":
        # Singular values of an exactly Hermitian d (any difference of two) are |eigenvalues|.
        if np.array_equal(d, d.conj().T):
            return float(np.sum(np.abs(np.linalg.eigvalsh(d))))
        return float(np.sum(np.linalg.svd(d, compute_uv=False)))
    raise ValidationError(f"norm must be 'frobenius' or 'trace', got {norm!r}")


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference, the state-discrimination metric."""
    return 0.5 * distance(a, b, norm="trace")
