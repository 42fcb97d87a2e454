"""Property tests of discord()'s first start on classical-quantum states."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_density  # noqa: E402
from discordium.classicality import (  # noqa: E402
    _DephasingGap,
    _commuting_start,
    _offdiag_residual,
)
from discordium.states import assemble_cq, haar_unitary  # noqa: E402

# Block weights before normalization: repeats make rho_A degenerate, and the
# 1e-9 and 0 entries give near-zero and zero block probabilities.
WEIGHTS = st.sampled_from([1.0, 1.0, 2.0, 1e-9, 0.0])


@st.composite
def cq_states(draw):
    """A cq state with repeated weights and, through ``pick``, repeated conditional states."""
    d_a = draw(st.integers(2, 5))
    d_b = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(WEIGHTS, min_size=d_a, max_size=d_a)))
    if not weights.any():
        weights[0] = 1.0
    pick = draw(st.lists(st.integers(0, d_a - 1), min_size=d_a, max_size=d_a))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_density(d_b, int(rng.integers(1, d_b + 1)), rng) for _ in range(d_a)]
    return assemble_cq(haar_unitary(d_a, rng), weights / weights.sum(), [pool[i] for i in pick])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(cq_states(), st.integers(0, 2**32 - 1))
def test_commuting_start_block_diagonalizes_cq_states(s, seed):
    basis = _commuting_start(_DephasingGap(s.mat, s.d_a, s.d_b), seed)
    assert _offdiag_residual(s, basis) <= 1e-10 * np.linalg.norm(s.mat)
