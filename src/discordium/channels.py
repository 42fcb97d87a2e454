"""Kraus-form channels, the block-dephasing channel, and POVM machinery.

Channels are stored in Kraus form only; superoperator matrices are never
materialized. A :class:`KrausMap` is any completely positive map given by
Kraus operators (possibly rectangular, out_dim x in_dim); a
:class:`KrausChannel` additionally satisfies the trace-preservation
completeness relation sum_i K_i† K_i = I. Every operator family is one
stacked array: Kraus operators of shape (n, out_dim, in_dim), POVM effects
of shape (n, d, d), so each family operation is whole-array numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPovm,
    NotRankOne,
    NotUnitary,
)
from .linalg import (
    _dag,
    _require_int,
    as_complex_array,
    block_diag,
    conjugate_a,
    require_finite,
    require_isometry,
    require_unitary,
    support_cutoff,
)
from .states import BipartiteState, DensityMatrix, bipartite, validate_density

POVM_TOL = 1e-10

# Relative singular-value cutoff for the extremality rank test.
EXTREMALITY_CUTOFF = 1e-8


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map X -> sum_i K_i X K_i†.

    ``kraus_ops`` is stored as one complex array of shape
    (n, out_dim, in_dim); any sequence of n equal-shape matrices is accepted.
    """

    kraus_ops: np.ndarray
    in_dim: int
    out_dim: int

    def __post_init__(self):
        shape = (_require_int(self.out_dim, "out_dim", 1), _require_int(self.in_dim, "in_dim", 1))
        try:
            ops = np.asarray(self.kraus_ops, dtype=complex)
        except (TypeError, ValueError):  # ragged or non-numeric
            ops = None
        if ops is None or ops.shape[1:] != shape:
            raise DimensionMismatch(f"Kraus operators are not a stack of {shape} matrices")
        object.__setattr__(self, "kraus_ops", require_finite(ops, "a Kraus operator"))


@dataclass(frozen=True)
class KrausChannel(KrausMap):
    """Trace-preserving Kraus map: the stacked operators V have V† V = sum_i K_i† K_i = I."""

    def __post_init__(self):
        super().__post_init__()
        stacked = self.kraus_ops.reshape(len(self.kraus_ops) * self.out_dim, self.in_dim)
        require_isometry(stacked, "completeness", InvalidPovm)


def apply_matrix(ch: KrausMap, x: np.ndarray) -> np.ndarray:
    """Raw channel action on an arbitrary operator."""
    x = as_complex_array(x)
    if x.shape != (ch.in_dim, ch.in_dim):
        raise DimensionMismatch(f"operator shape {x.shape} vs in_dim {ch.in_dim}")
    return np.sum(ch.kraus_ops @ x @ _dag(ch.kraus_ops), axis=0)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action on a state, validated on the way out."""
    return validate_density(apply_matrix(ch, rho.mat), tol=1e-8)


def adjoint(ch: KrausMap) -> KrausMap:
    """The adjoint map Y -> sum_i K_i† Y K_i (unital, not trace preserving)."""
    return KrausMap(kraus_ops=_dag(ch.kraus_ops), in_dim=ch.out_dim, out_dim=ch.in_dim)


def dephasing_channel(basis: np.ndarray, d_a: int, d_b: int) -> KrausChannel:
    """Channel that zeroes all off-diagonal A-blocks in the given A basis.

    Kraus operators are (|u_a><u_a| (x) I_B) for the basis columns |u_a>.
    Applying it twice equals applying it once.
    """
    u = require_unitary(basis, _require_int(d_a, "d_a", 1))
    _require_int(d_b, "d_b", 1)
    proj = u.T[:, :, np.newaxis] * u.T.conj()[:, np.newaxis, :]
    dim = d_a * d_b
    ops = np.einsum("aij,bc->aibjc", proj, np.eye(d_b)).reshape(d_a, dim, dim)
    return KrausChannel(kraus_ops=ops, in_dim=dim, out_dim=dim)


def dephase(s: BipartiteState, basis: np.ndarray) -> np.ndarray:
    """Matrix of the dephased state, computed by zeroing off-diagonal blocks.

    ``basis`` must be a d_a x d_a unitary (see :func:`require_unitary`).
    """
    u = require_unitary(basis, s.d_a)
    r = conjugate_a(s.mat, u).reshape(s.d_a, s.d_b, s.d_a, s.d_b)
    idx = np.arange(s.d_a)
    return conjugate_a(block_diag(r[idx, :, idx, :]), u.conj().T)


# ---------------------------------------------------------------------------
# POVMs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Povm:
    """Finite family of PSD effects summing to identity, with output labels.

    ``effects`` is stored as one complex array of shape (n, d, d); any
    sequence of n equal-shape d x d matrices is accepted.
    """

    effects: np.ndarray
    labels: tuple

    def __post_init__(self):
        n = len(self.effects)
        if n == 0:
            raise InvalidPovm("POVM needs at least one effect")
        if len(self.labels) != n:
            raise InvalidPovm(f"{len(self.labels)} labels for {n} effects")
        d = len(self.effects[0]) if np.ndim(self.effects[0]) else 0
        try:
            effects = np.asarray(self.effects, dtype=complex)
        except (TypeError, ValueError):  # ragged or non-numeric, told apart below
            effects = None
        if effects is None or effects.shape != (n, d, d):
            for label, e in zip(self.labels, self.effects):
                if np.shape(e) != (d, d):
                    raise InvalidPovm(f"effect {label!r} has shape {np.shape(e)}")
            raise InvalidPovm("effects are not numeric matrices")
        object.__setattr__(self, "effects", require_finite(effects, "a POVM effect"))
        half = 0.5 * effects  # unlike e - e† and e + e†, h - h† and h + h† cannot overflow
        bad = ~(np.max(np.abs(half - _dag(half)), axis=(1, 2)) <= 0.5 * POVM_TOL)
        if bad.any():
            raise InvalidPovm(f"effect {self.labels[np.argmax(bad)]!r} is not Hermitian")
        vals = np.linalg.eigvalsh(half + _dag(half))
        bad = ~((vals[:, 0] >= -POVM_TOL) & (vals[:, -1] <= 1.0 + POVM_TOL))
        if bad.any():
            m = int(np.argmax(bad))
            raise InvalidPovm(
                f"effect {self.labels[m]!r} eigenvalues [{vals[m, 0]:.3e}, {vals[m, -1]:.3e}] "
                "outside [0, 1]"
            )
        defect = float(np.linalg.norm(effects.sum(axis=0) - np.eye(d)))
        if not defect <= POVM_TOL:
            raise InvalidPovm(f"effects sum defect {defect:.3e} exceeds {POVM_TOL:.1e}")

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def povm(effects, labels=None) -> Povm:
    """Build and validate a POVM; labels default to 0..n-1."""
    if labels is None:
        labels = range(len(effects))
    return Povm(effects=effects, labels=tuple(labels))


def projective_povm(basis: np.ndarray) -> Povm:
    """Complete projective POVM onto the columns of a unitary."""
    u = require_unitary(basis)
    return povm(u.T[:, :, np.newaxis] * u.T.conj()[:, np.newaxis, :])


@dataclass(frozen=True)
class Refinement:
    """A rank-one POVM refining a coarser one under a label surjection.

    ``coarse_map`` sends each fine label to its coarse parent; summing fine
    effects over each fiber reproduces the coarse effect.
    """

    fine: Povm
    coarse: Povm
    coarse_map: dict

    def __post_init__(self):
        coarse_labels = set(self.coarse.labels)
        if set(self.coarse_map.keys()) != set(self.fine.labels):
            raise InvalidPovm("coarse_map keys must be exactly the fine labels")
        if set(self.coarse_map.values()) - coarse_labels:
            raise InvalidPovm("coarse_map targets unknown coarse labels")
        acc = np.zeros_like(self.coarse.effects)
        np.add.at(acc, _parents(self), self.fine.effects)
        defects = np.linalg.norm(acc - self.coarse.effects, axis=(1, 2))
        bad = ~(defects <= POVM_TOL)
        if bad.any():
            m = int(np.argmax(bad))
            raise InvalidPovm(
                f"fine effects over label {self.coarse.labels[m]!r} miss the coarse effect "
                f"by {defects[m]:.3e}"
            )


def _parents(r: Refinement) -> np.ndarray:
    """Position in ``r.coarse`` of each fine effect's parent."""
    position = {label: i for i, label in enumerate(r.coarse.labels)}
    return np.array([position[r.coarse_map[label]] for label in r.fine.labels])


def measurement_map(p: Povm) -> KrausChannel:
    """Channel X -> sum_m tr(M_m X) |m><m| onto the outcome register.

    Kraus operators are the output-basis injections composed with the effect
    square roots: |m><k| M_m^{1/2} for every row k, so the output is diagonal
    in the standard basis of the outcome space with entries tr(M_m rho).
    Operator m d + k is row m d + k of the block-diagonal stack of the roots,
    from one stacked ``eigh`` (validation keeps eigenvalues above -``POVM_TOL``).
    """
    d, n = p.dim, p.n_outcomes
    vals, vecs = np.linalg.eigh(0.5 * (p.effects + _dag(p.effects)))
    on = vals > support_cutoff(vals)[:, np.newaxis]
    roots = (vecs * np.sqrt(np.where(on, vals, 0.0))[:, np.newaxis, :]) @ _dag(vecs)
    roots = 0.5 * (roots + _dag(roots))
    return KrausChannel(kraus_ops=block_diag(roots).reshape(n * d, n, d), in_dim=d, out_dim=n)


def _spectral_rows(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled eigenvectors of a stack of effects, from one stacked ``eigh``.

    Returns ``(rows, support)``: ``rows[m, j]`` is sqrt(lam) e for the j-th
    largest eigenpair (lam, e) of effect m, and ``support[m, j]`` says lam is
    above that effect's support cutoff.
    """
    vals, vecs = np.linalg.eigh(0.5 * (effects + _dag(effects)))
    vals, vecs = vals[:, ::-1], vecs[:, :, ::-1]
    support = vals > support_cutoff(vals)[:, np.newaxis]
    rows = np.sqrt(np.where(support, vals, 0.0))[..., np.newaxis] * vecs.swapaxes(1, 2)
    return rows, support


def refine_to_rank_one(p: Povm) -> Refinement:
    """Split each effect into its scaled spectral dyads.

    Fine effects are lambda |e><e| over eigenpairs with eigenvalue above the
    support cutoff, largest first; fine label (m, n) maps back to parent
    label m.
    """
    rows, support = _spectral_rows(p.effects)
    counts = support.sum(axis=1)
    if not counts.all():
        raise InvalidPovm(f"effect {p.labels[np.argmin(counts)]!r} is numerically zero")
    fine_labels = tuple((label, n) for label, k in zip(p.labels, counts) for n in range(k))
    vecs = rows[support]
    fine = Povm(effects=vecs[:, :, np.newaxis] * vecs.conj()[:, np.newaxis, :], labels=fine_labels)
    return Refinement(fine=fine, coarse=p, coarse_map={f: f[0] for f in fine_labels})


def coarse_grain_channel(r: Refinement) -> KrausChannel:
    """Channel grouping fine outcomes into coarse ones.

    One Kraus operator |p(m')><m'| per fine label: this is the trace
    preserving form of outcome grouping (summing the fiber into a single
    operator per coarse label breaks the completeness relation as soon as a
    fiber has more than one element, and agrees with this form on every
    measurement-map output, which is always diagonal). Satisfies
    coarse_grain(measure_fine(X)) = measure_coarse(X) on all inputs.
    """
    n_fine = r.fine.n_outcomes
    fine = np.arange(n_fine)
    ops = np.zeros((n_fine, r.coarse.n_outcomes, n_fine))
    ops[fine, _parents(r), fine] = 1.0
    return KrausChannel(kraus_ops=ops, in_dim=n_fine, out_dim=r.coarse.n_outcomes)


class ExtremalityReport(NamedTuple):
    extremal: bool
    rank: int
    dyad_count: int


def is_extremal(p: Povm) -> ExtremalityReport:
    """Test POVM extremality by linear independence of spectral dyads.

    For each effect with spectral vectors e^m_1..e^m_{d_m}, the d_m^2
    operators |e^m_n><e^m_n'| are vectorized and stacked; the POVM is
    extremal exactly when the stack has full row rank. The numeric rank uses
    the relative singular-value cutoff ``EXTREMALITY_CUTOFF``.
    """
    d = p.dim
    rows, support = _spectral_rows(p.effects)
    dyads = np.einsum("mai,mbj->mabij", rows, rows.conj())
    stack = dyads[support[:, :, np.newaxis] & support[:, np.newaxis, :]].reshape(-1, d * d)
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.count_nonzero(svals > EXTREMALITY_CUTOFF * svals[0]))
    return ExtremalityReport(extremal=rank == len(stack), rank=rank, dyad_count=len(stack))


def povm_to_isometry(p: Povm) -> np.ndarray:
    """Embed via a rank-one POVM: row m of the result is <e_m|.

    Eigenvector phases are fixed so the largest-magnitude component of each
    |e_m> is real positive, which makes round-trips exact rather than
    per-element-phase ambiguous.
    """
    rows, support = _spectral_rows(p.effects)
    counts = support.sum(axis=1)
    if (counts != 1).any():
        m = int(np.argmax(counts != 1))
        raise NotRankOne(f"effect {p.labels[m]!r} has {counts[m]} nonzero eigenvalues")
    vecs = rows[:, 0]
    pivot = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    iota = (vecs * (pivot.conj() / np.abs(pivot))[:, np.newaxis]).conj()
    return require_isometry(iota, "iota† iota", InvalidPovm)


def isometry_to_povm(iota: np.ndarray, labels=None) -> Povm:
    """Recover the rank-one POVM defining an embedding: <e_m| = <m| iota."""
    iota = as_complex_array(iota)
    if iota.ndim != 2:
        raise NotUnitary(f"expected a 2d array, got shape {iota.shape}")
    require_isometry(require_finite(iota, "the isometry"), "iota† iota")
    return povm(iota.conj()[:, :, np.newaxis] * iota[:, np.newaxis, :], labels=labels)


def embed_state(s: BipartiteState, enlarged_dim: int) -> BipartiteState:
    """Zero-pad the A factor of a bipartite state into a larger space."""
    _require_int(enlarged_dim, "enlarged dimension", s.d_a, error=DimensionMismatch)
    return bipartite(conjugate_a(s.mat, np.eye(s.d_a, enlarged_dim)), enlarged_dim, s.d_b)
