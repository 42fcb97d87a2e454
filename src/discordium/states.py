"""Validated density matrices, bipartite block structure, and random-state
generators.

Generators take explicit seeds (or ``numpy.random.Generator`` instances) and
never touch global PRNG state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotPositive,
    TraceNotOne,
)
from .linalg import (
    _require_int,
    as_complex_array,
    block_diag,
    conjugate_a,
    partial_trace,
    require_hermitian,
    support_cutoff,
)

VALIDATION_TOL = 1e-10

# Blocks with probability at or below this are treated as absent; the
# classicality machinery only constrains nonzero-probability indices.
ZERO_PROB_CUTOFF = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    ``spectrum`` caches the ascending eigenvalues computed during
    validation; ``support_rank`` counts eigenvalues above the support
    cutoff. Construct through :func:`validate_density`.
    """

    mat: np.ndarray
    spectrum: np.ndarray
    support_rank: int

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix tagged with factor dimensions (d_a, d_b)."""

    state: DensityMatrix
    d_a: int
    d_b: int

    def __post_init__(self):
        _require_int(self.d_a, "d_a", 1)
        _require_int(self.d_b, "d_b", 1)
        if self.d_a * self.d_b != self.state.dim:
            raise DimensionMismatch(
                f"d_a*d_b = {self.d_a * self.d_b} != state dimension {self.state.dim}"
            )

    @property
    def mat(self) -> np.ndarray:
        return self.state.mat


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Block traces p_a and the conditional states of a bipartite state.

    ``states`` is one (d_a, d_b, d_b) array: row a is block_a / p_a, or zero
    where ``probs[a]`` is at or below the zero-probability cutoff and the
    conditional state is undefined.
    """

    probs: np.ndarray
    states: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        """Mask of the defined states; a defined state has unit trace, so it is not zero."""
        return self.states.any(axis=(1, 2))


def validate_density(m, tol: float = VALIDATION_TOL) -> DensityMatrix:
    """Validate (and minimally repair) a candidate density matrix.

    Violations of hermiticity, positivity, or unit trace within ``tol`` are
    repaired (symmetrize, clip eigenvalues to zero, renormalize); anything
    larger raises the error naming the violated invariant and its magnitude.
    """
    h = require_hermitian(m, tol)
    vals = np.linalg.eigvalsh(h)
    # Written so that a NaN fails each check.
    if not vals[0] >= -tol:
        raise NotPositive(f"eigenvalue {vals[0]:.3e} below -{tol:.1e}")
    tr = float(np.sum(vals))
    if not abs(tr - 1.0) <= tol:
        raise TraceNotOne(f"trace deviates from 1 by {tr - 1.0:.3e}")
    if vals[0] < 0.0:
        # Only clipping needs the eigenvectors, to rebuild the matrix.
        vals, vecs = np.linalg.eigh(h)
        vals = np.clip(vals, 0.0, None)
        h = (vecs * vals) @ vecs.conj().T
        h = 0.5 * (h + h.conj().T)
    tr = float(np.trace(h).real)
    h, vals = h / tr, vals / tr
    rank = int(np.count_nonzero(vals > support_cutoff(vals)))
    return DensityMatrix(mat=h, spectrum=vals, support_rank=rank)


def bipartite(m, d_a: int, d_b: int, tol: float = VALIDATION_TOL) -> BipartiteState:
    """Validate a matrix as a bipartite state with the given factor dims."""
    return BipartiteState(state=validate_density(m, tol), d_a=d_a, d_b=d_b)


def block(s: BipartiteState, a: int, a2: int) -> np.ndarray:
    """The d_b x d_b block of ``s`` at block position (a, a2), A-major."""
    for index in (a, a2):
        _require_int(index, "block index", 0, s.d_a - 1, IndexOutOfRange)
    d_b = s.d_b
    return s.mat[a * d_b:(a + 1) * d_b, a2 * d_b:(a2 + 1) * d_b].copy()


def conditional_ensemble(s: BipartiteState,
                         zero_prob_cutoff: float = ZERO_PROB_CUTOFF) -> ConditionalEnsemble:
    """Probabilities p_a = tr(block(a, a)) and conditional states block/p_a.

    The states are not validated: the caller that hands one out validates it.
    """
    blocks = np.einsum("abac->abc", s.mat.reshape(s.d_a, s.d_b, s.d_a, s.d_b))
    probs = np.trace(blocks, axis1=1, axis2=2).real
    p = probs[:, np.newaxis, np.newaxis]
    states = np.divide(blocks, p, out=np.zeros_like(blocks), where=p > zero_prob_cutoff)
    return ConditionalEnsemble(probs=probs, states=states)


def in_basis(s: BipartiteState, u: np.ndarray) -> BipartiteState:
    """The state with its A factor written in the basis ``u``.

    Returns (U† (x) I) rho (U (x) I), symmetrized; the unitary conjugation
    keeps the cached spectrum valid.
    """
    mat = conjugate_a(s.mat, u)
    return replace(s, state=replace(s.state, mat=0.5 * (mat + mat.conj().T)))


def assemble_cq(basis: np.ndarray, probs, b_states) -> BipartiteState:
    """Build sum_i p_i |u_i><u_i| (x) rho_i with |u_i> the basis columns.

    Basis columns past the shorter of ``probs`` and ``b_states`` carry no weight.
    """
    basis = as_complex_array(basis)
    blocks = as_complex_array([p * as_complex_array(rho) for p, rho in zip(probs, b_states)])
    mat = conjugate_a(block_diag(blocks), basis[:, :len(blocks)].conj().T)
    return bipartite(mat, basis.shape[0], blocks.shape[1])


def haar_unitary(dim: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent. With ``count`` the result is
    a stack of shape (count, dim, dim), equal to ``count`` successive draws.
    """
    _require_int(dim, "dim", 1)
    z = rng.standard_normal((1 if count is None else _require_int(count, "count", 0), 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, np.newaxis, :]
    return q[0] if count is None else q


def _random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _rng(seed) -> np.random.Generator:
    """The generator itself, or a new one from a seed >= 0 (:class:`BadConfig` otherwise)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_require_int(seed, "seed", 0))


def random_state(d: int, rank: int | None = None, seed: int = 0) -> DensityMatrix:
    """Random state G G† / tr(G G†) with G a d x rank complex Gaussian matrix."""
    _require_int(d, "d", 1)
    rank = d if rank is None else _require_int(rank, "rank", 1, d)
    return validate_density(_random_density(d, rank, _rng(seed)))


def random_cq_state_with_parts(d_a: int, d_b: int, seed: int = 0):
    """Random classical-quantum state plus its generating pieces.

    Returns ``(state, basis, probs, b_states)``: a Haar-random basis of the
    A factor, Dirichlet-uniform probabilities, and full-rank random
    conditional B states, assembled as sum_i p_i |u_i><u_i| (x) rho_i.
    """
    _require_int(d_a, "d_a", 1)
    _require_int(d_b, "d_b", 1)
    rng = _rng(seed)
    basis = haar_unitary(d_a, rng)
    probs = rng.dirichlet(np.ones(d_a))
    b_states = [_random_density(d_b, d_b, rng) for _ in range(d_a)]
    return assemble_cq(basis, probs, b_states), basis, probs, b_states


def random_cq_state(d_a: int, d_b: int, seed: int = 0) -> BipartiteState:
    """Random classical-quantum state; deterministic given the seed."""
    return random_cq_state_with_parts(d_a, d_b, seed)[0]


def reduced_state(s: BipartiteState, keep: str) -> np.ndarray:
    """Reduced operator of a bipartite state on the kept factor."""
    return partial_trace(s.mat, s.d_a, s.d_b, keep=keep)
