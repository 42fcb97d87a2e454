"""Petz recovery maps and the closed-form block reconstruction.

For a channel E and reference state sigma, the recovery map is

    R(Y) = sigma^{1/2} E*( E(sigma)^{-1/2} Y E(sigma)^{-1/2} ) sigma^{1/2}

with all matrix functions taken on supports. R always restores sigma from
E(sigma); it restores a state rho exactly when E preserves the relative
entropy between rho and sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .channels import KrausMap, adjoint, apply_matrix
from .linalg import (
    as_complex_array,
    block_diag,
    conjugate_a,
    matrix_function_on_support,
    require_unitary,
    trace_distance,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    conditional_ensemble,
    in_basis,
    reduced_state,
)

@dataclass(frozen=True)
class PetzMap:
    """Recovery map for (forward, reference), with cached matrix roots."""

    forward: KrausMap
    reference: DensityMatrix
    sigma_sqrt: np.ndarray
    e_sigma_inv_sqrt: np.ndarray


def build_petz(e: KrausMap, sigma: DensityMatrix) -> PetzMap:
    """Construct the recovery map of channel ``e`` at reference ``sigma``."""
    if sigma.dim != e.in_dim:
        raise DimensionMismatch(f"sigma dimension {sigma.dim} vs in_dim {e.in_dim}")
    sigma_sqrt = matrix_function_on_support(sigma.mat, np.sqrt)
    e_sigma_inv_sqrt = matrix_function_on_support(apply_matrix(e, sigma.mat), lambda x: x ** -0.5)
    return PetzMap(
        forward=e,
        reference=sigma,
        sigma_sqrt=sigma_sqrt,
        e_sigma_inv_sqrt=e_sigma_inv_sqrt,
    )


def apply_petz(p: PetzMap, y: np.ndarray) -> np.ndarray:
    """Evaluate the recovery map on an operator of the output space.

    Linear in ``y`` and Hermitian-preserving; no symmetrization is applied
    so linearity holds exactly for non-Hermitian inputs too.
    """
    y = as_complex_array(y)
    out_dim = p.forward.out_dim
    if y.shape != (out_dim, out_dim):
        raise DimensionMismatch(f"operator shape {y.shape} vs out_dim {out_dim}")
    w = p.e_sigma_inv_sqrt
    inner = apply_matrix(adjoint(p.forward), w @ y @ w)
    return p.sigma_sqrt @ inner @ p.sigma_sqrt


def reconstruct_cq(s: BipartiteState, basis: np.ndarray) -> np.ndarray:
    """Closed form of the recovery output for the block-dephasing channel.

    Returns sum_a rho_A^{1/2} |a><a| rho_A^{1/2} (x) rho^B_a with |a> the
    basis columns and rho^B_a the conditional states in that basis (zero
    where :func:`conditional_ensemble` leaves them undefined). This is
    exactly the Petz map of the dephasing channel at reference
    rho_A (x) rho_B applied to the dephased state, and it reproduces the
    state itself precisely when dephasing in ``basis`` loses no mutual
    information.
    """
    u = require_unitary(basis, s.d_a)
    sqrt_a = matrix_function_on_support(reduced_state(s, "A"), np.sqrt)
    states = conditional_ensemble(in_basis(s, u)).states
    out = conjugate_a(block_diag(states), (sqrt_a @ u).conj().T)
    return 0.5 * (out + out.conj().T)


def recovery_residual(s: BipartiteState, basis: np.ndarray) -> float:
    """Trace distance between a state and its block reconstruction."""
    return trace_distance(s.mat, reconstruct_cq(s, basis))
