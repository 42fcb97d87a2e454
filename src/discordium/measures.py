"""Von Neumann entropy, quantum relative entropy, and mutual information.

Everything is in bits: S(rho) = -tr[rho lg rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import hermitian_eig, support_cutoff
from .states import BipartiteState, DensityMatrix, reduced_state, validate_density


@dataclass(frozen=True)
class RelEntropyValue:
    """Relative entropy value with an explicit +infinity marker.

    Support violations must be unmistakable, so infinity is a flag rather
    than a float sentinel. ``value`` is meaningless when ``infinite``.
    """

    value: float
    infinite: bool = False

    @classmethod
    def finite(cls, v: float) -> "RelEntropyValue":
        return cls(value=float(v), infinite=False)

    @classmethod
    def infinity(cls) -> "RelEntropyValue":
        return cls(value=float("nan"), infinite=True)

    def __repr__(self) -> str:
        return "RelEntropyValue(+inf)" if self.infinite else f"RelEntropyValue({self.value})"


def spectrum_entropy(eigenvalues: np.ndarray, cutoff: float | None = None) -> float:
    """Shannon entropy (bits) of an eigenvalue vector, with 0 lg 0 := 0."""
    vals = np.asarray(eigenvalues, dtype=float)
    if cutoff is None:
        cutoff = support_cutoff(vals)
    vals = vals[vals > cutoff]
    if vals.size == 0:
        return 0.0
    return float(-np.sum(vals * np.log2(vals)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -tr[rho lg rho] in bits."""
    return spectrum_entropy(rho.spectrum)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> RelEntropyValue:
    """D(rho || sigma) = tr[rho (lg rho - lg sigma)] in bits.

    Both logarithms are taken on the respective supports. When the support
    of ``rho`` is not contained in that of ``sigma`` (detected as weight of
    ``rho`` on the orthocomplement of supp(sigma) above the cutoff) the
    result is the +infinity marker.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension {rho.dim} vs {sigma.dim}")
    svals, svecs = hermitian_eig(sigma.mat)
    cutoff = support_cutoff(svals)
    # Weight of rho on each sigma eigenvector.
    overlaps = np.einsum("ij,ik,kj->j", svecs.conj(), rho.mat, svecs).real
    outside = float(np.sum(overlaps[svals <= cutoff]))
    if outside > cutoff:
        return RelEntropyValue.infinity()
    keep = svals > cutoff
    cross = float(np.sum(overlaps[keep] * np.log2(svals[keep])))
    return RelEntropyValue.finite(-spectrum_entropy(rho.spectrum, cutoff) - cross)


def mutual_information(s: BipartiteState) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    rho_a = validate_density(reduced_state(s, "A"), tol=1e-8)
    rho_b = validate_density(reduced_state(s, "B"), tol=1e-8)
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(s.state)
    )
