"""Seeded input generators and independent numpy oracles.

Nothing here imports discordium: inputs are built with plain numpy from the
benchmark seed, and the reference values the checks compare against are
computed here without the library's search, validation or entropy code.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues at or below this count as zero in the oracles' entropies.
_ZERO = 1e-14


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), stable across numpy versions."""
    return np.random.default_rng([seed, *stream.encode()])


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = gaussian(rng, (dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def density_with_spectrum(rng: np.random.Generator, spectrum) -> np.ndarray:
    u = haar(rng, len(spectrum))
    return (u * np.asarray(spectrum, dtype=float)) @ u.conj().T


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    return isometry(rng, dim, dim)


def isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, (rows, cols)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def cq_matrix(basis: np.ndarray, probs, b_states) -> np.ndarray:
    """sum_i p_i |u_i><u_i| (x) rho_i with |u_i> the basis columns."""
    d_a = basis.shape[0]
    d_b = b_states[0].shape[0]
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for i, (p, rho) in enumerate(zip(probs, b_states)):
        u = basis[:, i]
        out += p * np.kron(np.outer(u, u.conj()), rho)
    return 0.5 * (out + out.conj().T)


def full_rank_povm(rng: np.random.Generator, dim: int, n: int) -> list:
    """n generically full-rank effects S^-1/2 X_i S^-1/2 summing to identity."""
    xs = [g @ g.conj().T for g in (gaussian(rng, (dim, dim)) for _ in range(n))]
    vals, vecs = np.linalg.eigh(sum(xs))
    inv_sqrt = (vecs * vals ** -0.5) @ vecs.conj().T
    return [0.5 * (e + e.conj().T) for e in (inv_sqrt @ x @ inv_sqrt for x in xs)]


def kraus_channel(rng: np.random.Generator, in_dim: int, out_dim: int, n: int) -> list:
    """Kraus operators sliced from a random Stinespring isometry."""
    v = isometry(rng, out_dim * n, in_dim)
    return [v[e * out_dim:(e + 1) * out_dim, :] for e in range(n)]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def entropy_bits(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    w = w[w > _ZERO]
    return float(-np.sum(w * np.log2(w)))


def reduce_a(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.einsum("ibjb->ij", m.reshape(d_a, d_b, d_a, d_b))


def reduce_b(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.einsum("ibic->bc", m.reshape(d_a, d_b, d_a, d_b))


def mutual_info(m: np.ndarray, d_a: int, d_b: int) -> float:
    return (entropy_bits(reduce_a(m, d_a, d_b)) + entropy_bits(reduce_b(m, d_a, d_b))
            - entropy_bits(m))


def rotate_a(m: np.ndarray, d_a: int, d_b: int, u: np.ndarray) -> np.ndarray:
    """(U† (x) I) m (U (x) I) as a (d_a, d_b, d_a, d_b) tensor."""
    t = m.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ia,ibjc,jd->abdc", u.conj(), t, u)


def dephased(m: np.ndarray, d_a: int, d_b: int, u: np.ndarray) -> np.ndarray:
    r = rotate_a(m, d_a, d_b, u)
    keep = np.zeros_like(r)
    idx = np.arange(d_a)
    keep[idx, :, idx, :] = r[idx, :, idx, :]
    return np.einsum("ia,abdc,jd->ibjc", u, keep, u.conj()).reshape(m.shape)


def dephasing_gap(m: np.ndarray, d_a: int, d_b: int, u: np.ndarray) -> float:
    return mutual_info(m, d_a, d_b) - mutual_info(dephased(m, d_a, d_b, u), d_a, d_b)


def offdiag_residual(m: np.ndarray, d_a: int, d_b: int, u: np.ndarray) -> float:
    r = rotate_a(m, d_a, d_b, u)
    return max(
        float(np.linalg.norm(r[a, :, a2, :]))
        for a in range(d_a) for a2 in range(d_a) if a != a2
    )


def trace_dist(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])))


def apply_kraus(ops, x: np.ndarray) -> np.ndarray:
    return sum(k @ x @ k.conj().T for k in ops)


def hermitian_basis(dim: int) -> list:
    """Real-span basis of the dim x dim Hermitian matrices."""
    out = []
    for j in range(dim):
        for k in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            out.append(0.5 * (e + e.T) if j <= k else 0.5j * (e - e.T))
    return out


def interleave(counts: dict) -> list:
    """Kinds spread evenly through one round, in a fixed order."""
    slots = []
    for kind, n in counts.items():
        slots.extend(((i + 0.5) / n, kind) for i in range(n))
    return [kind for _, kind in sorted(slots, key=lambda s: s[0])]
