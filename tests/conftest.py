"""Shared random generators for the test suite.

Everything is seeded explicitly; no test touches global PRNG state.
"""

import numpy as np
import pytest

import discordium.classicality as classicality
from discordium.channels import KrausChannel, isometry_to_povm, povm
from discordium.states import bipartite, haar_unitary


@pytest.fixture(autouse=True)
def fresh_search_starts():
    """Empty discord()'s seeded-start caches, so no test sees draws an earlier test made."""
    classicality._haar_starts.cache_clear()
    classicality._commuting_coefficient.cache_clear()


def bell_state():
    """Two-qubit maximally entangled state as a BipartiteState."""
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return bipartite(np.outer(v, v), 2, 2)


def random_hermitian(dim, rng, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def random_full_povm(dim, n, rng):
    """POVM with n generically full-rank effects: S^-1/2 X_i S^-1/2."""
    xs = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        xs.append(g @ g.conj().T)
    s = sum(xs)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = (vecs * vals ** -0.5) @ vecs.conj().T
    return povm([inv_sqrt @ x @ inv_sqrt for x in xs])


def random_rank1_povm(dim, n_out, rng):
    """Rank-one POVM with n_out elements from a Haar-ish random isometry."""
    g = rng.standard_normal((n_out, dim)) + 1j * rng.standard_normal((n_out, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return isometry_to_povm(q)


def random_isometry(n_rows, n_cols, rng):
    g = rng.standard_normal((n_rows, n_cols)) + 1j * rng.standard_normal((n_rows, n_cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(in_dim, out_dim, n_kraus, rng):
    """Random CPTP channel by slicing a Haar random Stinespring isometry."""
    v = random_isometry(out_dim * n_kraus, in_dim, rng)
    ops = tuple(v[e * out_dim:(e + 1) * out_dim, :] for e in range(n_kraus))
    return KrausChannel(kraus_ops=ops, in_dim=in_dim, out_dim=out_dim)


def random_density(dim, rank, rng):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_bipartite(d_a, d_b, rng, rank=None):
    dim = d_a * d_b
    return bipartite(random_density(dim, rank or dim, rng), d_a, d_b)


def haar_basis(dim, rng):
    return haar_unitary(dim, rng)
