"""Von Neumann entropy, quantum relative entropy, and mutual information.

Everything is in bits: S(rho) = -tr[rho lg rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import support_cutoff
from .states import BipartiteState, DensityMatrix, reduced_state


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


def spectrum_entropy(eigenvalues: np.ndarray) -> float:
    """Shannon entropy (bits) of the eigenvalues above :func:`support_cutoff`."""
    vals = np.asarray(eigenvalues, dtype=float)
    vals = vals[vals > support_cutoff(vals)]
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
    # Both states are validated, so sigma.mat is exactly Hermitian.
    svals, svecs = np.linalg.eigh(sigma.mat)
    cutoff = support_cutoff(svals)
    # Weight of rho on each sigma eigenvector.
    overlaps = np.einsum("ij,ik,kj->j", svecs.conj(), rho.mat, svecs).real
    outside = float(np.sum(overlaps[svals <= cutoff]))
    if outside > cutoff:
        return RelEntropyValue.infinity()
    keep = svals > cutoff
    cross = float(np.sum(overlaps[keep] * np.log2(svals[keep])))
    return RelEntropyValue.finite(-von_neumann_entropy(rho) - cross)


def mutual_information(s: BipartiteState) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits; the marginals need no validation."""
    s_a, s_b = (spectrum_entropy(np.linalg.eigvalsh(reduced_state(s, k))) for k in "AB")
    return s_a + s_b - von_neumann_entropy(s.state)
