"""Classical-quantum discord and constructive classicality certification.

Discord is the smallest mutual-information loss caused by block-dephasing
the A factor, minimized over all A bases (optionally after isometric
enlargement of A to dimension d_A^2, which realizes minimization over
rank-one POVMs). Certification extracts, at a discord-zero basis, the
partition of A indices with equal conditional B states and the basis that
block-diagonalizes the state, then verifies the result against its own
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BadConfig, CertificateInconsistent, DimensionMismatch, NotAtEquality
from .channels import embed_state
from .linalg import (CUTOFF_SCALE, _dag, _require_int, conjugate_a, matrix_function_on_support,
                     partial_trace, require_unitary, support_cutoff)
from .measures import spectrum_entropy, von_neumann_entropy
from .petz import recovery_residual
from .states import (
    BipartiteState,
    ConditionalEnsemble,
    conditional_ensemble,
    haar_unitary,
    in_basis,
    validate_density,
)

# Default tolerances: discord-zero threshold in bits, conditional-state
# grouping in trace distance, certificate off-diagonal residual relative to
# the Frobenius norm of the state. An order of magnitude above accumulated
# eigensolver error at these dimensions.
ZERO_DISCORD_TOL = 1e-6
GROUPING_TOL = 1e-6
CERT_RESIDUAL_FACTOR = 1e-7

# Restarts stop early once a basis this close to zero gap is found.
_EARLY_STOP = 1e-10

# Descent steps per restart; a restart that reaches this is not converged.
_MAX_ITERS = 200

# Step multipliers the descent tries around its last accepted step, in one
# batched evaluation.
_LADDER = 2.0 ** np.arange(2, -10, -1)

# Block eigenvalues at or below this are eigensolver noise (blocks of a unit
# trace state have norm at most 1) and count as kernel in the gradient.
_BLOCK_SUPPORT = 1e-14

# Seeded search starts kept per (dimension, seed[, count]) key.
_START_CACHE = 32

# Bases per batched gap evaluation in the qubit oracle's grid scan.
_ORACLE_CHUNK = 4096

# The qubit oracle's zoom: a _WINDOW x _WINDOW scan over +-2 cells around the
# best point, the cell shrinking _ZOOM-fold in each of _ZOOM_ROUNDS rounds.
_WINDOW, _ZOOM, _ZOOM_ROUNDS = 9, 4.0, 18

# Pauli matrices sigma_x, sigma_y, sigma_z.
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# Consistency gates for the extraction path. These catch structural failure
# (wrong basis, wrong grouping); the strict soundness check is the final
# off-diagonal residual.
_EQ_TOL = 1e-5
_CROSS_TOL = 1e-4
_P_ORTHO_TOL = 1e-4

# Equality-identity rows with p_a - c[a, a] at or below this impose nothing.
_DENOM_CUTOFF = 1e-8


@dataclass(frozen=True)
class DiscordConfig:
    """Multi-start optimizer settings; identical seeds give identical runs."""

    restarts: int = 16
    step_tol: float = 1e-10
    enlarge: bool = False
    seed: int = 0


@dataclass(frozen=True)
class DiscordResult:
    """Outcome of the discord minimization.

    ``value`` equals I(rho) - I(D_basis(rho)) recomputed exactly at
    ``best_basis`` (on the enlarged state when ``enlarged``) from LAPACK
    spectra, not from the search's objective. ``converged`` reports whether
    the best restart terminated by tolerance rather than iteration cap.
    """

    value: float
    best_basis: np.ndarray
    enlarged: bool
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class ClassicalityCertificate:
    """Constructive witness that a state is classical-quantum.

    In ``basis``, the state's off-diagonal blocks all have Frobenius norm at
    most the certification tolerance; ``partition`` groups the
    nonzero-probability basis indices by equal conditional B state, and
    ``conditional_states`` holds one representative per part. ``residual``
    is the largest off-diagonal block norm actually measured.
    """

    basis: np.ndarray
    partition: tuple
    conditional_states: tuple
    residual: float


@dataclass(frozen=True)
class NotClassical:
    """Witness that certification failed: best basis still loses information."""

    value: float
    basis: np.ndarray
    residual: float


@dataclass(frozen=True)
class PeelingTrace:
    """Diagnostic record of the convex-hull peeling rounds.

    ``groups`` partitions indices by equal conditional state; ``rounds``
    lists, per peeling round, the indices whose states were extremal in the
    remaining hull; ``vanishing_pairs`` are the index pairs whose
    root-overlap cross terms the argument forces to zero, which is every
    pair of indices in different groups;
    ``eq_residuals[a]`` is the convex-combination identity residual (NaN
    where the denominator made the row vacuous).
    """

    groups: tuple
    rounds: tuple
    vanishing_pairs: tuple
    eq_residuals: np.ndarray


class _BlockObjective:
    """A function of the diagonal A-blocks B_a = u_a^dag r u_a of rho in basis U.

    Here u_a is column a of U and r the state as an (A, B, A, B) tensor.
    When df = sum_a tr(G_a dB_a), the Euclidean gradient with respect to u_a
    is 2 M_a u_a with M_a = sum_bc (G_a)_cb r[:, b, :, c], so that
    df = Re tr(dU^dag grad). Subclasses give ``batch`` (values) and
    ``value_grad`` (values and gradients) on a stack of bases (g, d_a, k).
    """

    def __init__(self, mat: np.ndarray, d_a: int, d_b: int):
        self.mat, self.r = mat, mat.reshape(d_a, d_b, d_a, d_b)
        # r[i, b, j, c] at row (i, j), column (b, c): B_a is conj(u_a) u_a^T times it.
        self.rr = self.r.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)

    def blocks(self, us: np.ndarray) -> np.ndarray:
        cols = us.swapaxes(1, 2)
        outer = (cols.conj()[..., np.newaxis] * cols[..., np.newaxis, :]).reshape(-1, len(self.rr))
        return (outer @ self.rr).reshape(*cols.shape[:2], *self.r.shape[1::2])

    def gradient(self, g: np.ndarray, us: np.ndarray) -> np.ndarray:
        return 2.0 * np.einsum("gacb,ibjc,gja->gia", g, self.r, us)

    def __call__(self, u: np.ndarray) -> float:
        return float(self.batch(u[np.newaxis])[0])


def _xlog2x(w: np.ndarray) -> np.ndarray:
    return w * np.log2(np.where(w > 0.0, w, 1.0))


def _block_spectra(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each matrix in a Hermitian stack (..., k, k).

    At k = 2 they are h -+ sqrt(((a - d) / 2)^2 + |b|^2), h = (a + d) / 2, from
    the entries [[a, b], [b*, d]], with no per-matrix LAPACK call (the main
    cost of a 2x2 stack). Larger matrices go to ``eigvalsh``.
    """
    if x.shape[-1] != 2:
        return np.linalg.eigvalsh(x)
    a, d, b = x[..., 0, 0].real, x[..., 1, 1].real, x[..., 0, 1]
    h = 0.5 * (a + d)
    r = np.sqrt((0.5 * (a - d)) ** 2 + b.real ** 2 + b.imag ** 2)
    return np.stack([h - r, h + r], axis=-1)


class _DephasingGap(_BlockObjective):
    """f(U) = I(rho) - I(D_U(rho)), evaluated through the block shortcut.

    Dephasing leaves rho_B fixed, so the gap reduces to
    S(rho_A) - S(rho_AB) + sum_a p_a S(rho^B_a) with p_a and rho^B_a the
    diagonal-block data in the measured basis, so an evaluation needs only
    the spectra of d_a blocks of size d_b. ``batch`` takes them in closed
    form at d_b = 2 (:func:`_block_spectra`) and from LAPACK for larger d_b;
    ``value_grad`` needs the eigenvectors too and always uses LAPACK.
    """

    def __init__(self, mat: np.ndarray, d_a: int, d_b: int):
        super().__init__(mat, d_a, d_b)
        self.rho_a = partial_trace(mat, d_a, d_b)
        # S(rho_A) - S(rho_AB) keeps every clipped eigenvalue, as the block
        # terms do, so a cq state reads a gap of zero at its exact basis.
        w_ab, w_a = (np.clip(np.linalg.eigvalsh(x), 0.0, None) for x in (mat, self.rho_a))
        self.const = float(_xlog2x(w_ab).sum() - _xlog2x(w_a).sum())

    def _value(self, w: np.ndarray) -> np.ndarray:
        return self.const - _xlog2x(w).sum(axis=(-2, -1)) + _xlog2x(w.sum(axis=-1)).sum(axis=-1)

    def batch(self, us: np.ndarray) -> np.ndarray:
        return self._value(np.clip(_block_spectra(self.blocks(us)), 0.0, None))

    def value_grad(self, us: np.ndarray):
        """f(U) and its gradient, with G_a = lg(p_a) I - lg B_a on the support.

        G_a is zero on the kernel of B_a, so rank-deficient blocks give a
        finite gradient; where the block rank is locally constant this is
        the exact derivative.
        """
        w, v = np.linalg.eigh(self.blocks(us))
        w = np.clip(w, 0.0, None)
        on = w > _BLOCK_SUPPORT
        g = np.log2(np.where(on, w.sum(axis=-1, keepdims=True), 1.0) / np.where(on, w, 1.0))
        g_mat = (v * g[..., np.newaxis, :]) @ _dag(v)
        return self._value(w), self.gradient(g_mat, us)


class _OffdiagMass(_BlockObjective):
    """m(U) = ||rho||^2 - sum_a ||B_a||^2, the off-diagonal block mass.

    Values are summed over the off-diagonal blocks themselves (:func:`_offdiag_norms`),
    which keeps full relative precision near m = 0; the gradient uses G_a = -2 B_a.
    """

    def batch(self, us: np.ndarray) -> np.ndarray:
        return np.sum(_offdiag_norms(self.mat, us, self.r.shape[1]) ** 2, axis=-1)

    def value_grad(self, us: np.ndarray):
        return self.batch(us), self.gradient(-2.0 * self.blocks(us), us)


def _descend(obj: _BlockObjective, us: np.ndarray, max_iters: int, step_tol: float, start=None,
             cut: float = -np.inf):
    """Riemannian steepest descent of ``obj`` on U(d) from a stack of starts.

    With A = U^dag grad, the step U <- U exp(i eta H), H = i (A - A^dag) / 2,
    follows the negative Riemannian gradient (Abrudan, Eriksson and
    Koivunen, IEEE TSP 56(3), 2008). The step eta is the best of a geometric
    ladder around the start's last accepted step (around 1 at first).
    A start stops by tolerance when ||H||_F <= ``step_tol``, when a step
    lowers f by at most ``step_tol`` relative to |f|, or when no step on the
    ladder lowers f; reaching ``max_iters`` steps is not convergence.
    The starts ``us`` (n, d, d) advance in lockstep, the ladders of all running
    starts in one batched evaluation, so each follows the path it would alone.
    ``start`` is ``obj.value_grad(us)`` where the caller already has it.
    Once a start's f is below ``cut``, every start after it in the stack
    leaves the batch and reads converged; f only falls, so that start ends
    below ``cut`` whether or not it is still running.
    Returns ``(f, U, converged)``, each stacked over the starts.
    """
    us = np.array(us, dtype=complex)
    f, grad = obj.value_grad(us) if start is None else start
    eta = np.ones(len(us))
    live = np.arange(len(us))
    for _ in range(max_iters):
        a = _dag(us[live]) @ grad[live]
        h = 0.5j * (a - _dag(a))
        flat = np.linalg.norm(h, axis=(1, 2)) <= step_tol
        live, h = live[~flat], h[~flat]
        hit = np.flatnonzero(f < cut)
        if hit.size:
            keep = live <= hit[0]
            live, h = live[keep], h[keep]
        if not live.size:
            break
        lam, vecs = np.linalg.eigh(h)
        top = np.max(np.abs(lam), axis=1, keepdims=True)
        etas = np.minimum(eta[live, np.newaxis] * _LADDER, np.pi / top)
        # U exp(i eta H) = ((U V) diag(exp(i eta lam))) V^dag for every (start, eta) pair.
        phases = np.exp(1j * etas[..., np.newaxis] * lam[:, np.newaxis])[..., np.newaxis, :]
        # One (ladder * d, d) @ (d, d) matmul per start, not one per (start, step).
        scaled = ((us[live] @ vecs)[:, np.newaxis] * phases).reshape(len(live), -1, us.shape[2])
        cands = (scaled @ _dag(vecs)).reshape(*etas.shape, *us.shape[1:])
        vals = obj.batch(cands.reshape(-1, *us.shape[1:])).reshape(etas.shape)
        k = np.argmin(vals, axis=1)
        down = np.min(vals, axis=1) < f[live]
        live, k = live[down], k[down]
        f_old = f[live]
        eta[live] = etas[down, k]
        us[live] = cands[down, k]
        f[live], grad[live] = obj.value_grad(us[live])
        small = 2.0 * (f_old - f[live]) <= step_tol * (np.abs(f_old) + np.abs(f[live])) + 1e-20
        live = live[~small]
    # Every stop rule is convergence; the starts still running did not converge.
    return f, us, ~np.isin(np.arange(len(us)), live)


@lru_cache(maxsize=_START_CACHE)
def _haar_starts(d: int, seed: int, count: int) -> np.ndarray:
    """``haar_unitary(d, default_rng(seed), count)``, drawn once per key; read-only."""
    us = haar_unitary(d, np.random.default_rng(seed), count)
    us.flags.writeable = False
    return us


@lru_cache(maxsize=_START_CACHE)
def _commuting_coefficient(d_b: int, seed: int) -> np.ndarray:
    """The seeded random Hermitian c of :func:`_commuting_start`; read-only."""
    g = np.random.default_rng([seed, 1]).standard_normal((2, d_b, d_b))
    c = g[0] + 1j * g[1]
    c = c + _dag(c)
    c.flags.writeable = False
    return c


def _commuting_start(gap: _DephasingGap, seed: int) -> np.ndarray:
    """Eigenbasis of C = tr_B[(I (x) c) rho] for a seeded random Hermitian c.

    For a cq state sum_a p_a |u_a><u_a| (x) rho_a, C = sum_a p_a tr(c rho_a)
    |u_a><u_a|. Its eigenvalues tie (almost surely in c) only where
    p_a rho_a = p_b rho_b, and on such an eigenspace the state is
    I (x) p_a rho_a, block diagonal in any basis of it; so this basis is exact
    for every cq state (commuting-family criterion of Dakic, Vedral and
    Brukner, PRL 105, 190502, 2010). rho_A's eigenbasis is the c = I member.
    c has its own stream, so the Haar restarts draw what they would without it.
    """
    c = _commuting_coefficient(gap.r.shape[1], seed)
    return np.linalg.eigh(np.einsum("lk,ikjl->ij", c, gap.r))[1]


def _check_config(cfg: DiscordConfig) -> None:
    _require_int(cfg.seed, "seed", 0)
    _require_int(cfg.restarts, "restarts", 1)
    if not 0.0 < cfg.step_tol < np.inf:
        raise BadConfig(f"step_tol must be positive and finite, got {cfg.step_tol}")


def discord(s: BipartiteState, cfg: DiscordConfig | None = None) -> DiscordResult:
    """Minimize the dephasing mutual-information gap over A bases.

    Multi-start local minimization: from each start the basis follows the
    Riemannian steepest descent U <- U exp(i eta H) of the gap on U(d), with
    the gap's analytic gradient. The first start is the eigenbasis of a
    random member tr_B[(I (x) c) rho] of the commuting family, exact for every
    classical-quantum state (rho_A's eigenbasis is the c = I member, which is
    arbitrary when rho_A is degenerate). If its gap is numerically zero it
    descends alone; else the Haar-random starts from the seed join it in one
    lockstep batch, and the result is that of the restarts run in order up to
    the first that reaches a numerically zero gap. Once a start's running
    gap is below it, the starts after it leave the batch: a cut start reads
    converged but is never selected. With ``enlarge`` A is first
    zero-padded to dimension d_A^2, so the scan covers rank-one POVMs.

    The returned value is recomputed as I(rho) - I(D(rho)) at the best
    basis by :func:`_exact_gap`, from LAPACK spectra rather than the search's
    objective, so it satisfies the :class:`DiscordResult` contract by
    construction. Local minimization carries no global-optimality guarantee.
    """
    cfg = cfg or DiscordConfig()
    _check_config(cfg)
    work = embed_state(s, s.d_a * s.d_a) if cfg.enlarge else s
    gap = _DephasingGap(work.mat, work.d_a, work.d_b)
    # Below the early stop restart 0 descends alone (every cq state), else with the Haar starts.
    us = _commuting_start(gap, cfg.seed)[np.newaxis]
    start = gap.value_grad(us)
    if not start[0][0] < _EARLY_STOP and cfg.restarts > 1:
        haar = _haar_starts(work.d_a, cfg.seed, cfg.restarts - 1)
        us = np.concatenate([us, haar])
        start = [np.concatenate(x) for x in zip(start, gap.value_grad(haar))]
    vals, us, oks = _descend(gap, us, _MAX_ITERS, cfg.step_tol, start, _EARLY_STOP)
    # As one restart after another: stop at the first value below the early stop.
    hits = np.flatnonzero(vals < _EARLY_STOP)
    used = int(hits[0]) + 1 if hits.size else cfg.restarts
    best = int(np.argmin(vals[:used]))

    return DiscordResult(value=_exact_gap(work, us[best]), best_basis=us[best],
                         enlarged=cfg.enlarge, restarts_used=used,
                         converged=bool(oks[best] or vals[best] < _EARLY_STOP))


def _exact_gap(s: BipartiteState, basis: np.ndarray) -> float:
    """I(rho) - I(D_basis(rho)) = S(rho_A) - S(rho) - H(p) + S(+)_a B_a), from the blocks.

    D_basis(rho) = sum_a |u_a><u_a| (x) B_a, B_a the diagonal blocks of rho
    in ``basis``: its spectrum is the union of the block spectra, its A
    marginal has spectrum p_a = tr B_a and its B marginal is rho_B, so no
    dephased matrix is built. S(rho) is the validated spectrum's; every
    term takes :func:`spectrum_entropy`'s support cutoff.
    """
    u = require_unitary(basis, s.d_a)
    blocks = np.einsum("abac->abc", conjugate_a(s.mat, u).reshape(s.d_a, s.d_b, s.d_a, s.d_b))
    s_a = spectrum_entropy(np.linalg.eigvalsh(partial_trace(s.mat, s.d_a, s.d_b)))
    h_p = spectrum_entropy(np.trace(blocks, axis1=1, axis2=2).real)
    s_blocks = spectrum_entropy(np.linalg.eigvalsh(blocks).ravel())
    return s_a - von_neumann_entropy(s.state) - h_p + s_blocks


def qubit_discord_oracle(s: BipartiteState, grid: int = 400) -> float:
    """Independent discord oracle for d_A = 2 on closed-form Bloch blocks.

    Measuring A along n = (sin t cos p, sin t sin p, cos t) leaves B in the
    blocks B_+- = (rho_B +- sum_k n_k T_k) / 2, T_k = tr_A[(sigma_k (x) I) rho]
    (Luo, PRA 77, 042303, 2008), and the gap's constant part comes from the
    spectra of rho and rho_A, so no unitary is built. The gap is scanned on a
    grid x grid lattice over (t, p), then on a grid zooming in on the best
    point. n -> -n swaps B_+ and B_-, and with an even ``grid`` it maps row
    t_i to row t_(grid-1-i) and p to the grid point p + pi, so the scan covers
    only the rows t < pi / 2. Shares neither objective, search nor spectral
    kernel with :func:`discord`: its spectra come from LAPACK ``eigvalsh``.
    """
    if s.d_a != 2:
        raise DimensionMismatch(f"oracle requires d_a = 2, got {s.d_a}")
    _require_int(grid, "grid", 8)
    r = s.mat.reshape(2, s.d_b, 2, s.d_b)
    t_k = np.einsum("kji,ibjc->kbc", _PAULIS, r)
    rho_b = np.einsum("ibic->bc", r)
    w_ab, w_a = (np.clip(np.linalg.eigvalsh(x), 0.0, None)
                 for x in (s.mat, partial_trace(s.mat, 2, s.d_b)))
    const = _xlog2x(w_ab).sum() - _xlog2x(w_a).sum()

    def gap(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)], axis=-1)
        x = np.tensordot(n, t_k, axes=1)
        w = np.clip(np.linalg.eigvalsh(0.5 * (rho_b + np.stack([x, -x], axis=1))), 0.0, None)
        return const - _xlog2x(w).sum(axis=(1, 2)) + _xlog2x(w.sum(axis=2)).sum(axis=1)

    def scan(thetas: np.ndarray, phis: np.ndarray):
        ts, ps = (x.ravel() for x in np.meshgrid(thetas, phis, indexing="ij"))
        vals = np.concatenate([gap(ts[i:i + _ORACLE_CHUNK], ps[i:i + _ORACLE_CHUNK])
                               for i in range(0, ts.size, _ORACLE_CHUNK)])
        k = int(np.argmin(vals))
        return float(vals[k]), ts[k], ps[k]

    thetas = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    best, t, p = scan(thetas[:grid // 2] if grid % 2 == 0 else thetas, phis)
    ht, hp = thetas[1] - thetas[0], phis[1] - phis[0]
    steps = np.linspace(-2.0, 2.0, _WINDOW)
    for _ in range(_ZOOM_ROUNDS):
        best, t, p = min((best, t, p), scan(t + ht * steps, p + hp * steps))
        ht, hp = ht / _ZOOM, hp / _ZOOM
    return best


# ---------------------------------------------------------------------------
# Equality-case identity and convex peeling
# ---------------------------------------------------------------------------


def equality_weights(sqrt_a: np.ndarray, probs: np.ndarray):
    """Convex weights of the equality-case identity, rows as constraints.

    With c[a, a'] = |<a| rho_A^{1/2} |a'>|^2 in the measured basis, the
    identity says rho^B_a = sum_{a' != a} w[a, a'] rho^B_{a'} with
    w[a, a'] = c[a, a'] / (p_a - c[a, a]). A row whose denominator is at or
    below ``_DENOM_CUTOFF`` imposes no constraint and is flagged ineligible;
    as the denominator is at most p_a, so is every row of a zero p_a.
    Returns ``(weights, eligible)``.
    """
    c = np.abs(np.asarray(sqrt_a)) ** 2
    probs = np.asarray(probs, dtype=float)
    denom = probs - np.diag(c)
    eligible = denom > _DENOM_CUTOFF
    w = np.divide(c, denom[:, np.newaxis], out=np.zeros_like(c), where=eligible[:, np.newaxis])
    np.fill_diagonal(w, 0.0)
    return w, eligible


def equality_residuals(ensemble: ConditionalEnsemble, weights: np.ndarray,
                       eligible: np.ndarray) -> np.ndarray:
    """Frobenius residual of the convex-combination identity per row.

    Ineligible rows (vacuous denominator or zero probability) come back NaN.
    """
    mats, defined = ensemble.states, ensemble.defined
    combos = np.einsum("ab,bij->aij", weights * (1.0 - np.eye(defined.size)), mats)
    return np.where(eligible & defined, np.linalg.norm(mats - combos, axis=(1, 2)), np.nan)


def _half_trace_norms(x: np.ndarray) -> np.ndarray:
    """Half the trace norm of a Hermitian matrix, or of each one in a stack."""
    return 0.5 * np.abs(np.linalg.eigvalsh(x)).sum(axis=-1)


def _pairwise_trace_distances(mats: np.ndarray) -> np.ndarray:
    """(n, n) trace distances in a Hermitian stack, from one ``eigvalsh`` of the differences."""
    n = len(mats)
    i, j = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[i, j] = out[j, i] = _half_trace_norms(mats[i] - mats[j])
    return out


def _group_equal_states(mats: np.ndarray) -> list:
    """Index groups of a state stack within ``GROUPING_TOL``, closed transitively by
    boolean squaring; each is sorted, and the groups go in order of their lowest index."""
    reach = _pairwise_trace_distances(mats) <= GROUPING_TOL
    for _ in range(len(mats).bit_length()):
        reach = reach @ reach
    return [np.flatnonzero(row) for row in reach[np.unique(reach.argmax(axis=1))]]


@lru_cache
def _faces(k: int):
    """``(on, fill, rhs)`` of the 2^k - 1 faces' KKT systems: a face keeps the bordered Gram
    matrix where ``on`` holds, else ``fill``, a unit diagonal that zeroes the dropped weights."""
    member = (np.arange(1, 2 ** k)[:, np.newaxis] >> np.arange(k) & 1).astype(bool)
    keep = np.hstack([member, np.ones((len(member), 1), dtype=bool)])
    fill = np.zeros((len(member), k + 1, k + 1))
    fill[:, np.arange(k), np.arange(k)] = ~member
    return keep[:, :, np.newaxis] & keep[:, np.newaxis, :], fill, np.eye(k + 1)[:, k:]


def _convex_gap(target: np.ndarray, others) -> float:
    """Trace distance from ``target`` T to its Frobenius projection on the hull of ``others``.

    The projection is, on the face in whose relative interior it lies, the
    least ||sum_i x_i (P_i - T)||_F with sum_i x_i = 1: [[G, 1], [1^T, 0]]
    [x; mu] = [0; 1], G the Gram matrix of the points centred on T (which
    keeps distances near ``GROUPING_TOL`` precise). All faces are solved in
    one batch; the nearest x >= 0 is exact. Affinely dependent faces are
    singular and dropped, as a smaller face holds the same point; a poorly
    conditioned one can only lose, as every x >= 0 is a convex combination.
    """
    q = np.asarray(others) - target
    k = len(q)
    if k <= 1:
        return float(_half_trace_norms(q[0])) if k else np.inf
    flat = q.reshape(k, -1)
    v = flat.view(float)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = v @ v.T
    kkt[k, k] = 0.0
    on, fill, rhs = _faces(k)
    kkt = np.where(on, kkt, fill)
    try:
        x = np.linalg.solve(kkt, rhs)[:, :k, 0]
    except np.linalg.LinAlgError:
        x = np.linalg.solve(kkt[np.linalg.det(kkt) != 0.0], rhs)[:, :k, 0]
    combos = x @ flat
    dist = np.where(x.min(axis=1) >= 0.0, np.linalg.norm(combos, axis=1), np.inf)
    return float(_half_trace_norms(combos[np.argmin(dist)].reshape(q.shape[1:])))


def peel_extremal(ensemble: ConditionalEnsemble, weights: np.ndarray,
                  eligible: np.ndarray) -> PeelingTrace:
    """Round-by-round convex-hull peeling of the conditional states.

    First validates the convex-combination identity on every ``eligible``
    row (raising :class:`NotAtEquality` past ``_EQ_TOL``: the basis does not
    achieve the mutual-information equality). Indices with equal states
    (trace distance within ``GROUPING_TOL``, transitive closure) are grouped;
    each round marks as extremal the groups whose states lie farther than
    ``GROUPING_TOL`` from the convex hull of the other remaining groups'
    states (trace distance to the exact Frobenius projection,
    :func:`_convex_gap`), and removes them. If a round finds no extremal
    group (a numerically flat hull), all remaining groups are taken in one
    final layer; downstream orthogonality checks remain in force either way.
    A peeled group's cross terms with everything still present must vanish,
    and both groups of a pair are still present when the first of them is
    peeled, so the vanishing pairs are all cross-group pairs whatever the
    hull tests find; those shape only ``rounds``.
    """
    residuals = equality_residuals(ensemble, weights, eligible)
    worst = np.nanmax(residuals, initial=0.0)
    if worst > _EQ_TOL:
        raise NotAtEquality(f"identity residual {worst:.3e} at index "
                            f"{np.nanargmax(residuals)} exceeds {_EQ_TOL:.1e}")

    mats = ensemble.states
    active = np.flatnonzero(ensemble.defined)
    groups = [tuple(active[g].tolist()) for g in _group_equal_states(mats[active])]
    reps = mats[[g[0] for g in groups]]

    working = list(range(len(groups)))
    rounds = []
    while working:
        extremal = [g for g in working if _convex_gap(
            reps[g], reps[[h for h in working if h != g]]) > GROUPING_TOL] or working
        rounds.append(tuple(sorted(a for g in extremal for a in groups[g])))
        working = [g for g in working if g not in extremal]

    label = {a: g for g, members in enumerate(groups) for a in members}
    return PeelingTrace(
        groups=tuple(groups),
        rounds=tuple(rounds),
        vanishing_pairs=tuple((a, b) for a, b in combinations(sorted(label), 2)
                              if label[a] != label[b]),
        eq_residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify_classical(s: BipartiteState, tol: float = ZERO_DISCORD_TOL,
                      cfg: DiscordConfig | None = None):
    """Certify a state classical-quantum, or return a NotClassical witness.

    Runs :func:`discord` (projective, non-enlarged: the block-diagonalization
    statement concerns bases of the original A factor). When the optimum gap
    exceeds ``tol`` the result is a :class:`NotClassical` witness. Otherwise
    the certificate is extracted along the constructive path: conditional
    ensemble at the best basis, grouping of equal conditional states, convex
    peeling with its vanishing cross terms, the root-weighted group
    projectors with pairwise orthogonal supports, and their simultaneous
    diagonalization. The resulting basis is polished against the off-diagonal
    block mass when needed and the certificate is verified against its own
    invariants before being returned; any failed check raises
    :class:`CertificateInconsistent`. A NaN or negative ``tol`` and an
    enlarging ``cfg`` raise :class:`BadConfig`.
    """
    cfg = cfg or DiscordConfig()
    if not tol >= 0.0:
        raise BadConfig(f"tol must be >= 0, got {tol}")
    if cfg.enlarge:
        raise BadConfig("certification searches bases of A itself; enlarge must be False")
    result = discord(s, cfg)
    if result.value > tol:
        return NotClassical(
            value=result.value,
            basis=result.best_basis,
            residual=recovery_residual(s, result.best_basis),
        )

    u = result.best_basis
    rotated = in_basis(s, u)
    rho_a = partial_trace(rotated.mat, s.d_a, s.d_b)
    # Indices outside the numerical support of rho_A (whose eigenvalues are at
    # most 1, so its cutoff is CUTOFF_SCALE) carry no usable conditional state
    # and are excluded from the partition outright; their contribution stays
    # far below the certificate residual threshold.
    ens = conditional_ensemble(rotated, zero_prob_cutoff=CUTOFF_SCALE)
    sqrt_a = matrix_function_on_support(rho_a, np.sqrt)
    weights, eligible = equality_weights(sqrt_a, ens.probs)
    try:
        trace = peel_extremal(ens, weights, eligible)
    except NotAtEquality as exc:
        raise CertificateInconsistent(
            f"peeling rejected the discord-zero basis: {exc}"
        ) from exc

    for a, a2 in trace.vanishing_pairs:
        overlap = abs(sqrt_a[a, a2])
        if overlap > _CROSS_TOL:
            raise CertificateInconsistent(
                f"cross term |<{a}|rho_A^(1/2)|{a2}>| = {overlap:.3e} "
                f"should vanish but exceeds {_CROSS_TOL:.1e}"
            )

    if not trace.groups:
        raise CertificateInconsistent("no supported group projectors found")
    projectors = np.array([sqrt_a[:, g] @ sqrt_a[g, :] for g in map(list, trace.groups)])
    cross = np.linalg.norm(projectors[:, np.newaxis] @ projectors, axis=(2, 3))
    overlap = np.argwhere(np.triu(cross > _P_ORTHO_TOL, 1))
    if overlap.size:
        i, j = overlap[0]
        raise CertificateInconsistent(
            f"group projectors {i} and {j} overlap: ||P_i P_j|| = {cross[i, j]:.3e}"
        )

    vals, vecs = np.linalg.eigh(0.5 * (projectors + _dag(projectors)))
    keep = vals > support_cutoff(vals)[:, np.newaxis]
    part_sizes = keep.sum(axis=1)
    if not part_sizes.all():
        raise CertificateInconsistent(f"group projector {np.argmin(part_sizes)} has "
                                      "numerically empty support")
    # Each projector's supported eigenvectors, largest eigenvalue first.
    w = _complete_basis(vecs[..., ::-1].swapaxes(1, 2)[keep[:, ::-1]].T, s.d_a)
    basis = u @ w

    threshold = CERT_RESIDUAL_FACTOR * float(np.linalg.norm(s.mat))
    residual = float(np.max(_offdiag_norms(s.mat, basis, s.d_b), initial=0.0))
    if residual > 0.25 * threshold:
        basis = _polish_basis(s, basis)
        residual = float(np.max(_offdiag_norms(s.mat, basis, s.d_b), initial=0.0))
    if residual > threshold:
        raise CertificateInconsistent(
            f"off-diagonal residual {residual:.3e} exceeds {threshold:.3e} "
            "in the extracted basis"
        )

    ends = np.cumsum(part_sizes)
    leads = ends - part_sizes
    partition = tuple(tuple(range(lo, hi)) for lo, hi in zip(leads, ends))
    final = conditional_ensemble(in_basis(s, basis), zero_prob_cutoff=CUTOFF_SCALE)
    mats, defined = final.states, final.defined
    n = ends[-1]
    dist = _pairwise_trace_distances(mats[:n])
    # Index j fails when its state is undefined or far from its part's first one.
    bad = ~defined[:n] | (dist[np.repeat(leads, part_sizes), np.arange(n)] > GROUPING_TOL)
    if bad.any():
        j = int(np.argmax(bad))
        if not defined[j]:
            raise CertificateInconsistent(f"certified index {j} has vanishing probability")
        raise CertificateInconsistent(
            f"conditional states inside part {partition[np.searchsorted(ends, j, 'right')]} "
            f"differ beyond {GROUPING_TOL:.1e}"
        )
    equal = np.argwhere(np.triu(dist[np.ix_(leads, leads)] <= GROUPING_TOL, 1))
    if equal.size:
        i, j = equal[0]
        raise CertificateInconsistent(
            f"parts {i} and {j} carry equal conditional states "
            f"(distance {dist[leads[i], leads[j]]:.3e}); grouping is inconsistent"
        )

    # Only the part representatives leave the package, so only they are
    # validated. Dividing by a tiny probability amplifies the state's own
    # rounding noise by 1/p, so the validation tolerance grows accordingly.
    reps = tuple(validate_density(mats[lo], tol=max(1e-8, 1e-14 / final.probs[lo]))
                 for lo in leads)
    return ClassicalityCertificate(
        basis=basis,
        partition=partition,
        conditional_states=reps,
        residual=residual,
    )


def _complete_basis(cols: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormalize near-orthonormal columns and complete them to a unitary.

    Householder QR orthonormalizes the columns in order (each stays close
    to its input, phase included) and its complete Q fills the kernel.
    """
    k = cols.shape[1]
    q, r = np.linalg.qr(cols, mode="complete")
    diag = np.diag(r)
    if k > dim or np.min(np.abs(diag)) < 1e-6:
        raise CertificateInconsistent("group eigenvectors are not linearly independent")
    q[:, :k] *= diag / np.abs(diag)
    return q


def _offdiag_norms(mat: np.ndarray, us: np.ndarray, d_b: int) -> np.ndarray:
    """Off-diagonal A-block norms (..., k (k - 1)) of ``mat`` in the bases ``us`` (..., d_a, k):
    the largest is the certificate residual, their squares sum to the polish objective."""
    k = us.shape[-1]
    rot = conjugate_a(mat, us).reshape(us.shape[:-2] + (k, d_b, k, d_b))
    return np.linalg.norm(rot, axis=(-3, -1))[..., ~np.eye(k, dtype=bool)]


def _polish_basis(s: BipartiteState, basis: np.ndarray) -> np.ndarray:
    """Locally minimize off-diagonal block mass to sharpen a certificate basis.

    The constructive extraction lands within optimizer accuracy of an exact
    block-diagonalizing basis; the mass function has an exact zero there, so
    a short gradient descent recovers it to near machine precision.
    """
    return _descend(_OffdiagMass(s.mat, s.d_a, s.d_b), basis[np.newaxis], 60, 1e-16)[1][0]
