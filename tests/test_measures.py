import sys

import numpy as np
import pytest

from conftest import bell_state, random_bipartite, random_density
from discordium.classicality import certify_classical, discord
from discordium.counterexample import COUNTEREXAMPLE_MATRIX
from discordium.errors import DimensionMismatch
from discordium.channels import dephase
from discordium.linalg import kron
from discordium.measures import (
    mutual_information,
    relative_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)
from discordium.states import (
    assemble_cq,
    bipartite,
    haar_unitary,
    random_cq_state,
    random_state,
    validate_density,
)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert np.isclose(von_neumann_entropy(validate_density(np.eye(4) / 4)), 2.0)

    def test_pure_state(self):
        assert abs(von_neumann_entropy(random_state(5, rank=1, seed=3))) <= 1e-9

    def test_counterexample_matrix(self):
        s = von_neumann_entropy(validate_density(COUNTEREXAMPLE_MATRIX))
        assert abs(s - 1.7555) <= 5e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rho = validate_density(random_density(4, 4, rng))
        u = haar_unitary(4, rng)
        rotated = validate_density(u @ rho.mat @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9


@pytest.mark.parametrize("spectrum", [np.zeros(3), np.array([1e-300, 0.0]), np.array([])],
                         ids=["zeros", "below-cutoff", "empty"])
def test_spectrum_entropy_of_no_support_is_zero(spectrum):
    assert spectrum_entropy(spectrum) == 0.0


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_state(3, 3, seed=0)
        val = relative_entropy(rho, rho)
        assert not val.infinite
        assert abs(val.value) <= 1e-9

    def test_disjoint_supports_infinite(self):
        zero = validate_density(np.diag([1.0, 0.0]))
        one = validate_density(np.diag([0.0, 1.0]))
        assert relative_entropy(zero, one).infinite

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(random_state(2, 2, seed=0), random_state(3, 3, seed=0))

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(40 + seed)
        rho = validate_density(random_density(3, 3, rng))
        sigma = validate_density(random_density(3, 3, rng))
        val = relative_entropy(rho, sigma)
        assert val.infinite or val.value >= -1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_only_for_equal_states(self, seed):
        # Pinsker direction: separated states keep a strictly positive value.
        rng = np.random.default_rng(80 + seed)
        rho = validate_density(random_density(3, 3, rng))
        sigma = validate_density(random_density(3, 3, rng))
        from discordium.linalg import trace_distance

        t = trace_distance(rho.mat, sigma.mat)
        val = relative_entropy(rho, sigma)
        if t > 1e-6:
            assert val.infinite or val.value > 2.88 * t * t - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mutual_information(self, seed):
        rng = np.random.default_rng(seed)
        s = random_bipartite(2, 2, rng)
        marginal = validate_density(
            kron(
                np.trace(s.mat.reshape(2, 2, 2, 2), axis1=1, axis2=3),
                np.trace(s.mat.reshape(2, 2, 2, 2), axis1=0, axis2=2),
            )
        )
        val = relative_entropy(s.state, marginal)
        assert not val.infinite
        assert abs(val.value - mutual_information(s)) <= 1e-9


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(1)
        s = bipartite(kron(random_density(2, 2, rng), random_density(3, 3, rng)), 2, 3)
        assert abs(mutual_information(s)) <= 1e-9

    def test_bell_state(self):
        assert np.isclose(mutual_information(bell_state()), 2.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_dephasing_data_processing(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = random_bipartite(2, 3, rng)
        basis = haar_unitary(2, rng)
        dephased = bipartite(dephase(s, basis), 2, 3, tol=1e-8)
        assert mutual_information(dephased) <= mutual_information(s) + 1e-9


def _mutual_information_oracle(m, d_a, d_b):
    """I(A:B) by plain numpy: its own partial traces, eigenvalues at or below 1e-10 dropped."""
    r = m.reshape(d_a, d_b, d_a, d_b)

    def entropy(x):
        w = np.linalg.eigvalsh(x)
        w = w[w > 1e-10]
        return -float(np.sum(w * np.log2(w)))

    return (entropy(np.trace(r, axis1=1, axis2=3)) + entropy(np.trace(r, axis1=0, axis2=2))
            - entropy(m))


def _clipped_state():
    """A 2x2 state validated at tol 1e-8 after its -5e-9 eigenvalue was clipped."""
    rng = np.random.default_rng(11)
    u = haar_unitary(4, rng)
    spectrum = np.array([-5e-9, 0.2, 0.3, 0.5 + 5e-9])
    s = bipartite((u * spectrum) @ u.conj().T, 2, 2, tol=1e-8)
    assert s.state.spectrum[0] == 0.0
    return s


def _tiny_block_cq_state():
    """A 2x3 cq state one of whose blocks has probability 1e-9."""
    rng = np.random.default_rng(12)
    states = [random_density(3, 3, rng) for _ in range(2)]
    return assemble_cq(haar_unitary(2, rng), [1e-9, 1.0 - 1e-9], states)


STATES = {
    "rank1": lambda: random_bipartite(2, 3, np.random.default_rng(13), rank=1),
    "rank2": lambda: random_bipartite(3, 2, np.random.default_rng(14), rank=2),
    "clipped": _clipped_state,
    "tiny-block": _tiny_block_cq_state,
}


@pytest.mark.parametrize("dephased", [False, True], ids=["state", "dephased"])
@pytest.mark.parametrize("name", sorted(STATES))
def test_mutual_information_matches_plain_numpy(name, dephased):
    s = STATES[name]()
    if dephased:
        basis = haar_unitary(s.d_a, np.random.default_rng(15))
        s = bipartite(dephase(s, basis), s.d_a, s.d_b, tol=1e-8)
    oracle = _mutual_information_oracle(s.mat, s.d_a, s.d_b)
    assert abs(mutual_information(s) - oracle) <= 1e-13


def _validations(f, *args) -> int:
    """How many times ``validate_density`` is called while ``f(*args)`` runs."""
    code, calls = validate_density.__code__, 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestValidationAtTheBoundary:
    """States are validated where they enter; what they imply is not checked again."""

    def test_mutual_information_validates_nothing(self):
        s = random_bipartite(2, 3, np.random.default_rng(16))
        assert _validations(mutual_information, s) == 0

    def test_discord_validates_nothing(self):
        # The exact gap takes the dephased spectra from its blocks, and the
        # state's own spectrum was validated where the state entered.
        assert _validations(discord, random_bipartite(2, 2, np.random.default_rng(17))) == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_certify_validates_only_part_representatives(self, seed):
        s = random_cq_state(2, 2, seed)
        assert len(certify_classical(s).partition) == 2
        assert _validations(certify_classical, s) == 2
