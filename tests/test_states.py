import numpy as np
import pytest

from conftest import random_density
from discordium.counterexample import COUNTEREXAMPLE_MATRIX
from discordium.errors import (
    BadRank,
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotPositive,
    TraceNotOne,
)
from discordium.linalg import kron, partial_trace
from discordium.measures import von_neumann_entropy
from discordium.states import (
    assemble_cq,
    bipartite,
    block,
    conditional_ensemble,
    haar_unitary,
    random_cq_state,
    random_cq_state_with_parts,
    random_state,
    validate_density,
)


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4)
        assert rho.support_rank == 4
        assert np.isclose(rho.spectrum.sum(), 1.0)

    def test_not_positive(self):
        with pytest.raises(NotPositive):
            validate_density(np.diag([1.5, -0.5]))

    def test_counterexample_matrix_is_valid(self):
        rho = validate_density(COUNTEREXAMPLE_MATRIX)
        assert rho.support_rank == 4

    def test_trace_error(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))

    @pytest.mark.parametrize("m", [[[1e308, 1e308], [1e308, -1e308]], [[1.5e308] * 2] * 2],
                             ids=["indefinite", "trace-overflow"])
    def test_entries_near_float_limit_rejected(self, m):
        # Symmetrizing must not overflow to NaN, which passes every comparison.
        with pytest.raises((NotPositive, TraceNotOne)):
            validate_density(np.array(m))

    def test_hermiticity_error(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            validate_density(m)

    def test_small_violations_repaired(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        rho = validate_density(m)
        assert rho.spectrum[0] >= 0.0
        assert np.isclose(rho.spectrum.sum(), 1.0, atol=1e-15)

    @pytest.mark.parametrize("dim, rank", [(9, 9), (9, 2), (36, 36), (36, 3), (144, 144), (144, 5)])
    def test_matrix_and_spectrum_agree(self, dim, rank):
        # Full rank takes the rescaling path, rank-deficient inputs the
        # clipping path; either way the cached spectrum is the matrix's.
        rho = validate_density(random_density(dim, rank, np.random.default_rng(dim + rank)))
        assert np.max(np.abs(np.linalg.eigvalsh(rho.mat) - rho.spectrum)) <= 1e-14
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-15

    def test_bipartite_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            bipartite(np.eye(6) / 6, 2, 2)


class TestBlocks:
    def test_product_blocks(self):
        sigma = random_density(2, 2, np.random.default_rng(0))
        s = bipartite(kron(np.diag([1.0, 0.0]), sigma), 2, 2)
        assert np.allclose(block(s, 0, 0), sigma)
        assert np.allclose(block(s, 0, 1), np.zeros((2, 2)))
        assert np.allclose(block(s, 1, 1), np.zeros((2, 2)))

    def test_counterexample_off_diagonal_block(self):
        s = bipartite(COUNTEREXAMPLE_MATRIX, 2, 2)
        assert np.allclose(block(s, 0, 1), [[-0.02, -0.01], [-0.01, -0.02]])

    def test_index_out_of_range(self):
        s = bipartite(np.eye(4) / 4, 2, 2)
        with pytest.raises(IndexOutOfRange):
            block(s, 0, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_reassembly_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        s = bipartite(random_density(6, 6, rng), 2, 3)
        grid = np.block([[block(s, a, a2) for a2 in range(2)] for a in range(2)])
        assert np.array_equal(grid, s.mat)


class TestConditionalEnsemble:
    def test_cq_state_recovers_parts(self):
        rng = np.random.default_rng(3)
        basis = np.eye(3)
        probs = [0.5, 0.3, 0.2]
        parts = [random_density(2, 2, rng) for _ in range(3)]
        s = assemble_cq(basis, probs, parts)
        ens = conditional_ensemble(s)
        assert np.allclose(ens.probs, probs, atol=1e-12)
        for got, expected in zip(ens.states, parts):
            assert np.allclose(got, expected, atol=1e-12)

    def test_product_state_blocks_equal(self):
        rng = np.random.default_rng(4)
        rho_a = random_density(2, 2, rng)
        rho_b = random_density(3, 3, rng)
        ens = conditional_ensemble(bipartite(kron(rho_a, rho_b), 2, 3))
        for st in ens.states:
            assert np.allclose(st, rho_b, atol=1e-10)

    def test_counterexample_values(self):
        # p_0 = p_1 = 0.5 and both conditional states equal the 0.25/0.14
        # block divided by 0.5, read off the printed entries.
        ens = conditional_ensemble(bipartite(COUNTEREXAMPLE_MATRIX, 2, 2))
        assert np.allclose(ens.probs, [0.5, 0.5], atol=1e-12)
        expected = np.array([[0.5, 0.28], [0.28, 0.5]])
        assert np.allclose(ens.states[0], expected, atol=1e-12)
        assert np.allclose(ens.states[1], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_probs_match_reduced_diagonal(self, seed):
        rng = np.random.default_rng(10 + seed)
        s = bipartite(random_density(6, 6, rng), 3, 2)
        ens = conditional_ensemble(s)
        diag = np.diag(partial_trace(s.mat, 3, 2, keep="A")).real
        assert np.allclose(ens.probs, diag, atol=1e-12)

    def test_zero_probability_block_flagged(self):
        sigma = random_density(2, 2, np.random.default_rng(0))
        s = bipartite(kron(np.diag([1.0, 0.0]), sigma), 2, 2)
        ens = conditional_ensemble(s)
        assert not ens.defined[1]
        assert ens.defined[0]


class TestRandomState:
    def test_rank_one_is_pure(self):
        rho = random_state(4, rank=1, seed=5)
        assert von_neumann_entropy(rho) <= 1e-9
        assert rho.support_rank == 1

    def test_deterministic(self):
        assert np.array_equal(random_state(3, 3, seed=9).mat, random_state(3, 3, seed=9).mat)

    def test_full_rank_positive(self):
        rho = random_state(4, 4, seed=11)
        assert rho.spectrum[0] > 0.0
        assert rho.support_rank == 4

    def test_bad_rank(self):
        with pytest.raises(BadRank, match=r"rank must be in 1\.\.3, got 4"):
            random_state(3, rank=4, seed=0)
        with pytest.raises(BadRank, match=r"rank must be in 1\.\.3, got 0"):
            random_state(3, rank=0, seed=0)

    def test_generator_seed_accepted(self):
        rng = np.random.default_rng(1)
        assert np.array_equal(random_state(4, seed=rng).mat,
                              random_state(4, seed=np.random.default_rng(1)).mat)
        assert random_cq_state(2, 2, seed=np.random.default_rng(1)).d_a == 2


class TestRandomCqState:
    def test_valid_bipartite(self):
        s = random_cq_state(3, 2, seed=1)
        assert s.d_a == 3 and s.d_b == 2
        assert np.isclose(np.trace(s.mat).real, 1.0)

    def test_deterministic(self):
        assert np.array_equal(random_cq_state(2, 3, seed=4).mat, random_cq_state(2, 3, seed=4).mat)

    @pytest.mark.parametrize("seed", range(4))
    def test_off_diagonal_blocks_vanish_in_generating_basis(self, seed):
        s, basis, _, _ = random_cq_state_with_parts(3, 2, seed=seed)
        rot = kron(basis.conj().T, np.eye(2))
        rotated = rot @ s.mat @ rot.conj().T
        r = rotated.reshape(3, 2, 3, 2)
        for a in range(3):
            for a2 in range(3):
                if a != a2:
                    assert np.max(np.abs(r[a, :, a2, :])) <= 1e-12


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, np.random.default_rng(2))
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12
