"""Kraus-form channels, the block-dephasing channel, and POVM machinery.

Channels are stored in Kraus form only; superoperator matrices are never
materialized. A :class:`KrausMap` is any completely positive map given by
Kraus operators (possibly rectangular, out_dim x in_dim); a
:class:`KrausChannel` additionally satisfies the trace-preservation
completeness relation sum_i K_i† K_i = I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPovm,
    NotIsometry,
    NotRankOne,
)
from .linalg import (
    block_diag,
    conjugate_a,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    require_unitary,
    support_cutoff,
)
from .states import BipartiteState, DensityMatrix, validate_density

COMPLETENESS_TOL = 1e-10
POVM_TOL = 1e-10

# Relative singular-value cutoff for the extremality rank test.
EXTREMALITY_CUTOFF = 1e-8


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map X -> sum_i K_i X K_i†."""

    kraus_ops: tuple
    in_dim: int
    out_dim: int

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        for k in ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise DimensionMismatch(
                    f"Kraus operator shape {k.shape} != ({self.out_dim}, {self.in_dim})"
                )


@dataclass(frozen=True)
class KrausChannel(KrausMap):
    """Trace-preserving Kraus map: sum_i K_i† K_i = I within tolerance."""

    def __post_init__(self):
        super().__post_init__()
        acc = sum(k.conj().T @ k for k in self.kraus_ops)
        defect = float(np.linalg.norm(acc - np.eye(self.in_dim)))
        if defect > COMPLETENESS_TOL:
            raise InvalidPovm(
                f"completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL:.1e}"
            )


def apply_matrix(ch: KrausMap, x: np.ndarray) -> np.ndarray:
    """Raw channel action on an arbitrary operator."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.in_dim, ch.in_dim):
        raise DimensionMismatch(f"operator shape {x.shape} vs in_dim {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ x @ k.conj().T
    return out


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Channel action on a state, validated on the way out."""
    return validate_density(apply_matrix(ch, rho.mat), tol=1e-8)


def adjoint(ch: KrausMap) -> KrausMap:
    """The adjoint map Y -> sum_i K_i† Y K_i (unital, not trace preserving)."""
    return KrausMap(
        kraus_ops=tuple(k.conj().T for k in ch.kraus_ops),
        in_dim=ch.out_dim,
        out_dim=ch.in_dim,
    )


def dephasing_channel(basis: np.ndarray, d_a: int, d_b: int) -> KrausChannel:
    """Channel that zeroes all off-diagonal A-blocks in the given A basis.

    Kraus operators are (|u_a><u_a| (x) I_B) for the basis columns |u_a>.
    Applying it twice equals applying it once.
    """
    u = require_unitary(basis, d_a)
    eye_b = np.eye(d_b)
    ops = []
    for a in range(d_a):
        col = u[:, a]
        ops.append(kron(np.outer(col, col.conj()), eye_b))
    dim = d_a * d_b
    return KrausChannel(kraus_ops=tuple(ops), in_dim=dim, out_dim=dim)


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
    """Finite family of PSD effects summing to identity, with output labels."""

    effects: tuple
    labels: tuple

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=complex) for e in self.effects)
        object.__setattr__(self, "effects", effects)
        if len(effects) == 0:
            raise InvalidPovm("POVM needs at least one effect")
        if len(self.labels) != len(effects):
            raise InvalidPovm(
                f"{len(self.labels)} labels for {len(effects)} effects"
            )
        d = effects[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for label, e in zip(self.labels, effects):
            if e.shape != (d, d):
                raise InvalidPovm(f"effect {label!r} has shape {e.shape}")
            if float(np.max(np.abs(e - e.conj().T))) > POVM_TOL:
                raise InvalidPovm(f"effect {label!r} is not Hermitian")
            vals = np.linalg.eigvalsh(0.5 * (e + e.conj().T))
            if vals[0] < -POVM_TOL or vals[-1] > 1.0 + POVM_TOL:
                raise InvalidPovm(
                    f"effect {label!r} eigenvalues [{vals[0]:.3e}, {vals[-1]:.3e}] "
                    "outside [0, 1]"
                )
            total += e
        defect = float(np.linalg.norm(total - np.eye(d)))
        if defect > POVM_TOL:
            raise InvalidPovm(f"effects sum defect {defect:.3e} exceeds {POVM_TOL:.1e}")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def povm(effects, labels=None) -> Povm:
    """Build and validate a POVM; labels default to 0..n-1."""
    effects = tuple(effects)
    if labels is None:
        labels = tuple(range(len(effects)))
    return Povm(effects=effects, labels=tuple(labels))


def projective_povm(basis: np.ndarray) -> Povm:
    """Complete projective POVM onto the columns of a unitary."""
    u = require_unitary(basis)
    return povm([np.outer(u[:, a], u[:, a].conj()) for a in range(u.shape[0])])


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
        d = self.fine.dim
        for label, coarse_effect in zip(self.coarse.labels, self.coarse.effects):
            acc = np.zeros((d, d), dtype=complex)
            for f_label, f_effect in zip(self.fine.labels, self.fine.effects):
                if self.coarse_map[f_label] == label:
                    acc += f_effect
            defect = float(np.linalg.norm(acc - coarse_effect))
            if defect > POVM_TOL:
                raise InvalidPovm(
                    f"fine effects over label {label!r} miss the coarse effect "
                    f"by {defect:.3e}"
                )


def measurement_map(p: Povm) -> KrausChannel:
    """Channel X -> sum_m tr(M_m X) |m><m| onto the outcome register.

    Kraus operators are the output-basis injections composed with the effect
    square roots: |m><k| M_m^{1/2} for every row k, so the output is diagonal
    in the standard basis of the outcome space with entries tr(M_m rho).
    """
    d = p.dim
    n = p.n_outcomes
    ops = []
    for m_idx, effect in enumerate(p.effects):
        root = matrix_function_on_support(effect, np.sqrt)
        for k in range(d):
            op = np.zeros((n, d), dtype=complex)
            op[m_idx, :] = root[k, :]
            ops.append(op)
    return KrausChannel(kraus_ops=tuple(ops), in_dim=d, out_dim=n)


def _phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest component is real positive."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (np.conj(pivot) / abs(pivot))


def refine_to_rank_one(p: Povm) -> Refinement:
    """Split each effect into its scaled spectral dyads.

    Fine effects are lambda |e><e| over eigenpairs with eigenvalue above the
    support cutoff; fine label (m, n) maps back to parent label m.
    """
    fine_effects = []
    fine_labels = []
    coarse_map = {}
    for label, effect in zip(p.labels, p.effects):
        vals, vecs = hermitian_eig(effect)
        cutoff = support_cutoff(vals)
        n = 0
        for lam, vec in zip(vals[::-1], vecs.T[::-1]):
            if lam <= cutoff:
                continue
            fine_effects.append(lam * np.outer(vec, vec.conj()))
            f_label = (label, n)
            fine_labels.append(f_label)
            coarse_map[f_label] = label
            n += 1
        if n == 0:
            raise InvalidPovm(f"effect {label!r} is numerically zero")
    fine = Povm(effects=tuple(fine_effects), labels=tuple(fine_labels))
    return Refinement(fine=fine, coarse=p, coarse_map=coarse_map)


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
    n_coarse = r.coarse.n_outcomes
    coarse_pos = {label: i for i, label in enumerate(r.coarse.labels)}
    ops = []
    for f_idx, f_label in enumerate(r.fine.labels):
        op = np.zeros((n_coarse, n_fine), dtype=complex)
        op[coarse_pos[r.coarse_map[f_label]], f_idx] = 1.0
        ops.append(op)
    return KrausChannel(kraus_ops=tuple(ops), in_dim=n_fine, out_dim=n_coarse)


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
    rows = []
    for effect in p.effects:
        vals, vecs = hermitian_eig(effect)
        cutoff = support_cutoff(vals)
        scaled = [np.sqrt(lam) * vecs[:, i] for i, lam in enumerate(vals) if lam > cutoff]
        for en in scaled:
            for enp in scaled:
                rows.append(np.outer(en, enp.conj()).reshape(d * d))
    stack = np.array(rows)
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.count_nonzero(svals > EXTREMALITY_CUTOFF * svals[0])) if svals.size else 0
    return ExtremalityReport(extremal=rank == len(rows), rank=rank, dyad_count=len(rows))


def _rank_one_vector(effect: np.ndarray, label: Hashable) -> np.ndarray:
    vals, vecs = hermitian_eig(effect)
    cutoff = support_cutoff(vals)
    if np.count_nonzero(vals > cutoff) != 1:
        raise NotRankOne(
            f"effect {label!r} has {np.count_nonzero(vals > cutoff)} nonzero eigenvalues"
        )
    return _phase_fixed(np.sqrt(vals[-1]) * vecs[:, -1])


def povm_to_isometry(p: Povm) -> np.ndarray:
    """Embed via a rank-one POVM: row m of the result is <e_m|.

    Eigenvector phases are fixed so the largest-magnitude component of each
    |e_m> is real positive, which makes round-trips exact rather than
    per-element-phase ambiguous.
    """
    vectors = [
        _rank_one_vector(effect, label)
        for label, effect in zip(p.labels, p.effects)
    ]
    iota = np.array([v.conj() for v in vectors])
    defect = float(np.linalg.norm(iota.conj().T @ iota - np.eye(p.dim)))
    if defect > 1e-10:
        raise InvalidPovm(f"iota† iota defect {defect:.3e} exceeds 1e-10")
    return iota


def isometry_to_povm(iota: np.ndarray, labels=None) -> Povm:
    """Recover the rank-one POVM defining an embedding: <e_m| = <m| iota."""
    iota = np.asarray(iota, dtype=complex)
    if iota.ndim != 2:
        raise NotIsometry(f"expected a 2d array, got shape {iota.shape}")
    d = iota.shape[1]
    defect = float(np.linalg.norm(iota.conj().T @ iota - np.eye(d)))
    if defect > 1e-10:
        raise NotIsometry(f"iota† iota defect {defect:.3e} exceeds 1e-10")
    effects = [np.outer(row.conj(), row) for row in iota]
    return povm(effects, labels=labels)


def embed_state(s: BipartiteState, enlarged_dim: int) -> BipartiteState:
    """Zero-pad the A factor of a bipartite state into a larger space."""
    if enlarged_dim < s.d_a:
        raise DimensionMismatch(
            f"enlarged dimension {enlarged_dim} smaller than d_a {s.d_a}"
        )
    return BipartiteState(
        state=validate_density(conjugate_a(s.mat, np.eye(s.d_a, enlarged_dim))),
        d_a=enlarged_dim,
        d_b=s.d_b,
    )
