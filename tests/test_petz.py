import numpy as np
import pytest

from conftest import bell_state, random_bipartite, random_channel, random_density
from discordium.errors import DimensionMismatch, NotUnitary
from discordium.channels import (
    KrausChannel,
    apply_matrix,
    dephase,
    dephasing_channel,
)
from discordium.linalg import kron, matrix_function_on_support, trace_distance
from discordium.measures import mutual_information
from discordium.petz import apply_petz, build_petz, reconstruct_cq, recovery_residual
from discordium.states import (
    assemble_cq,
    bipartite,
    conditional_ensemble,
    haar_unitary,
    in_basis,
    random_cq_state_with_parts,
    random_state,
    reduced_state,
    validate_density,
)


class TestBuildPetz:
    def test_identity_channel_recovers_on_support(self):
        rng = np.random.default_rng(0)
        sigma = random_state(4, 2, seed=1)
        ch = KrausChannel(kraus_ops=(np.eye(4),), in_dim=4, out_dim=4)
        pm = build_petz(ch, sigma)
        # On operators supported inside supp(sigma) the recovery acts as identity.
        proj = sigma.mat / np.trace(sigma.mat).real
        y = proj @ random_density(4, 4, rng) @ proj
        y = 0.5 * (y + y.conj().T)
        assert np.max(np.abs(apply_petz(pm, y) - y)) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_reference_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        sigma = validate_density(random_density(4, 4, rng))
        ch = random_channel(4, 3, 2, rng)
        pm = build_petz(ch, sigma)
        recovered = apply_petz(pm, apply_matrix(ch, sigma.mat))
        assert trace_distance(recovered, sigma.mat) <= 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_fixed_point_rank_deficient_reference(self, rank):
        rng = np.random.default_rng(100 + rank)
        sigma = validate_density(random_density(4, rank, rng))
        ch = random_channel(4, 4, 2, rng)
        pm = build_petz(ch, sigma)
        recovered = apply_petz(pm, apply_matrix(ch, sigma.mat))
        assert trace_distance(recovered, sigma.mat) <= 1e-9

    def test_dimension_mismatch(self):
        ch = KrausChannel(kraus_ops=(np.eye(2),), in_dim=2, out_dim=2)
        with pytest.raises(DimensionMismatch):
            build_petz(ch, random_state(3, 3, seed=0))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4,)])
    def test_apply_dimension_mismatch(self, shape):
        ch = KrausChannel(kraus_ops=(np.eye(2),), in_dim=2, out_dim=2)
        pm = build_petz(ch, random_state(2, 2, seed=0))
        with pytest.raises(DimensionMismatch, match="vs out_dim 2"):
            apply_petz(pm, np.ones(shape))

    @pytest.mark.parametrize("seed", range(5))
    def test_dephasing_equality_case(self, seed):
        # For a cq state at its generating basis, recovery from the dephased
        # state at reference rho_A (x) rho_B is exact.
        s, basis, _, _ = random_cq_state_with_parts(3, 2, seed=seed)
        ch = dephasing_channel(basis, 3, 2)
        rho_a = np.einsum("ibjb->ij", s.mat.reshape(3, 2, 3, 2))
        rho_b = np.einsum("ibic->bc", s.mat.reshape(3, 2, 3, 2))
        sigma = validate_density(kron(rho_a, rho_b))
        pm = build_petz(ch, sigma)
        recovered = apply_petz(pm, apply_matrix(ch, s.mat))
        assert trace_distance(recovered, s.mat) <= 1e-9


class TestApplyPetz:
    def test_recovers_reference_image(self):
        rng = np.random.default_rng(3)
        sigma = validate_density(random_density(3, 3, rng))
        ch = random_channel(3, 3, 2, rng)
        pm = build_petz(ch, sigma)
        assert trace_distance(apply_petz(pm, apply_matrix(ch, sigma.mat)), sigma.mat) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_complex_linearity(self, seed):
        rng = np.random.default_rng(seed)
        sigma = validate_density(random_density(3, 3, rng))
        ch = random_channel(3, 2, 2, rng)
        pm = build_petz(ch, sigma)
        y1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a, b = 0.3 - 1.1j, -0.7 + 0.2j
        lhs = apply_petz(pm, a * y1 + b * y2)
        rhs = a * apply_petz(pm, y1) + b * apply_petz(pm, y2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_nonincreasing_on_psd(self, seed):
        # Trace is preserved on supp(E(sigma)) and can only shrink outside it.
        rng = np.random.default_rng(70 + seed)
        sigma = validate_density(random_density(3, 2, rng))
        ch = random_channel(3, 3, 2, rng)
        pm = build_petz(ch, sigma)
        y = random_density(3, 3, rng)
        assert np.trace(apply_petz(pm, y)).real <= np.trace(y).real + 1e-10

    # Asymmetric shapes catch a d_a/d_b mix-up; the 2x2 cases keep plain seed ids.
    @pytest.mark.parametrize("seed, d_a, d_b", [
        pytest.param(seed, d_a, d_b, id=f"{seed}" if d_a == d_b else f"{seed}-{d_a}x{d_b}")
        for d_a, d_b in [(2, 2), (3, 2), (2, 3)] for seed in range(5)
    ])
    def test_matches_closed_form_for_dephasing(self, seed, d_a, d_b):
        # General recovery formula against the block closed form, on states
        # with no special structure.
        rng = np.random.default_rng(50 + seed)
        s = random_bipartite(d_a, d_b, rng)
        u = haar_unitary(d_a, rng)
        ch = dephasing_channel(u, d_a, d_b)
        rho_a = np.einsum("ibjb->ij", s.mat.reshape(d_a, d_b, d_a, d_b))
        rho_b = np.einsum("ibic->bc", s.mat.reshape(d_a, d_b, d_a, d_b))
        sigma = validate_density(kron(rho_a, rho_b))
        pm = build_petz(ch, sigma)
        general = apply_petz(pm, apply_matrix(ch, s.mat))
        closed = reconstruct_cq(s, u)
        assert np.max(np.abs(general - closed)) <= 1e-9


def ensemble_reconstruction(s, basis):
    """sum_a rho_A^{1/2} |a><a| rho_A^{1/2} (x) rho^B_a from validated conditional states."""
    sqrt_a = matrix_function_on_support(reduced_state(s, "A"), np.sqrt)
    out = np.zeros_like(s.mat)
    ens = conditional_ensemble(in_basis(s, basis))
    for a in np.flatnonzero(ens.defined):
        st = validate_density(ens.states[a], tol=max(1e-8, 1e-14 / ens.probs[a]))
        col = sqrt_a @ basis[:, a]
        out += kron(np.outer(col, col.conj()), st.mat)
    return out


def reconstruction_cases():
    rng = np.random.default_rng(60)
    cases = [(random_bipartite(d_a, d_b, rng), haar_unitary(d_a, rng))
             for d_a, d_b in ((2, 2), (3, 2), (2, 3), (4, 3))]
    # Block probabilities of 1e-9 (kept) and 0 (below the cutoff) at the basis.
    u = haar_unitary(3, rng)
    states = [random_density(2, 2, rng) for _ in range(3)]
    cases.append((assemble_cq(u, [1e-9, 0.6, 0.4 - 1e-9], states), u))
    cases.append((assemble_cq(u, [0.5, 0.5, 0.0], states), u))
    return cases


class TestReconstructCq:
    def test_cq_state_in_generating_basis(self):
        s, basis, _, _ = random_cq_state_with_parts(2, 3, seed=7)
        assert np.max(np.abs(reconstruct_cq(s, basis) - s.mat)) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_product_state_any_basis(self, seed):
        rng = np.random.default_rng(seed)
        prod = kron(random_density(2, 2, rng), random_density(2, 2, rng))
        s = bipartite(prod, 2, 2)
        basis = haar_unitary(2, rng)
        assert trace_distance(reconstruct_cq(s, basis), s.mat) <= 1e-9

    def test_entangled_state_reconstruction_fails(self):
        rng = np.random.default_rng(8)
        s = random_bipartite(2, 2, rng, rank=1)
        assert trace_distance(reconstruct_cq(s, np.eye(2)), s.mat) > 1e-3

    @pytest.mark.parametrize("case", reconstruction_cases())
    def test_matches_ensemble_form(self, case):
        s, basis = case
        assert np.max(np.abs(reconstruct_cq(s, basis) - ensemble_reconstruction(s, basis))) <= 1e-12

    def test_rejects_non_unitary(self):
        s = random_bipartite(2, 2, np.random.default_rng(0))
        with pytest.raises(NotUnitary):
            reconstruct_cq(s, np.ones((2, 2)))


class TestRecoveryResidual:
    def test_cq_at_generating_basis(self):
        s, basis, _, _ = random_cq_state_with_parts(3, 3, seed=9)
        assert recovery_residual(s, basis) <= 1e-9

    def test_bell_state(self):
        assert recovery_residual(bell_state(), np.eye(2)) > 0.1
        rng = np.random.default_rng(2)
        assert recovery_residual(bell_state(), haar_unitary(2, rng)) > 0.1

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_tracks_information_gap(self, seed):
        # The residual and the mutual-information gap vanish together.
        rng = np.random.default_rng(300 + seed)
        if seed % 2 == 0:
            s, basis, _, _ = random_cq_state_with_parts(2, 2, seed=seed)
        else:
            s = random_bipartite(2, 2, rng)
            basis = haar_unitary(2, rng)
        gap = mutual_information(s) - mutual_information(
            bipartite(dephase(s, basis), 2, 2, tol=1e-8)
        )
        residual = recovery_residual(s, basis)
        if abs(gap) <= 1e-8:
            assert residual <= 1e-6
        if residual <= 1e-10:
            assert abs(gap) <= 1e-7
