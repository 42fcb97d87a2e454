"""Property tests of discord()'s first start and of the state-file boundary."""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import random_density  # noqa: E402
from discordium.classicality import (  # noqa: E402
    _DephasingGap,
    _commuting_start,
    _offdiag_norms,
)
from discordium.cli import main, read_matrix_file  # noqa: E402
from discordium.errors import ParseError  # noqa: E402
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
    assert np.max(_offdiag_norms(s.mat, basis, s.d_b)) <= 1e-10 * np.linalg.norm(s.mat)


# Floats near the limit of the range, whose sums overflow.
NEAR_LIMIT = st.sampled_from([1e308, -1e308, 1.5e308, -1.5e308, 1.7976931348623157e308])
# A Hermitian matrix whose symmetrization 0.5 * (m + m†) overflows off the diagonal.
OVERFLOWING = [[1e308, 0.0], [1e308, 0.0], [1e308, 0.0], [-1e308, 0.0]]
# File entries: numbers (ints past the float range too), numeric strings, null and booleans.
SCALARS = st.one_of(
    st.floats(),
    NEAR_LIMIT,
    st.integers(-2**1100, 2**1100),
    st.sampled_from(["0.25", "-0", " 1e-1 ", "1_0", "nan", "-inf", "x", ""]),
    st.none(),
    st.booleans(),
)
DIMS = st.one_of(
    st.lists(st.one_of(st.booleans(), st.sampled_from([-1, 0, 1, 2, 3, 2**32, 2**64])),
             max_size=3),
    st.sampled_from([None, 2, "2", [2.0], {"d": 2}]),
)


def spellings(value: float):
    """``value`` as a float and as a numeric string; 0 and 1 also as a boolean."""
    extra = {0.0: [0, False, "-0"], 1.0: [True, "1"]}.get(value, [])
    return st.sampled_from([value, repr(value), *extra])


@st.composite
def state_payloads(draw):
    """A state file payload: I / d spelled entry by entry, some entries replaced, or any nesting.

    Returns ``(payload, pairs)``, with ``pairs`` the flat [re, im] pairs where
    ``dims`` is ``[d]`` and the matrix has one of the two layouts, else None.
    """
    d = draw(st.integers(1, 3))
    dims = draw(st.one_of(st.just([d]), DIMS))
    layout = draw(st.sampled_from(["flat", "nested", "free"]))
    if layout == "free":
        matrix = draw(st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4),
                                   max_leaves=24))
        return {"dims": dims, "matrix": matrix}, None
    values = [v for i in range(d) for j in range(d) for v in (1.0 / d if i == j else 0.0, 0.0)]
    entries = [draw(spellings(v)) for v in values]
    for k in draw(st.sets(st.integers(0, len(entries) - 1), max_size=2)):
        entries[k] = draw(st.one_of(NEAR_LIMIT, SCALARS))
    pairs = [entries[k:k + 2] for k in range(0, len(entries), 2)]
    matrix = pairs if layout == "flat" else [pairs[i * d:(i + 1) * d] for i in range(d)]
    well_formed = dims == [d] and type(dims[0]) is int
    return {"dims": dims, "matrix": matrix}, pairs if well_formed else None


def entrywise(pairs):
    """complex(float(re), float(im)) per pair, or None where one is not a finite number."""
    try:
        z = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError, OverflowError):
        return None
    return z if np.all(np.isfinite(z)) else None


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(state_payloads())
@example(({"dims": [2], "matrix": OVERFLOWING}, OVERFLOWING))
def test_state_files_exit_0_or_2_and_read_entrywise(case):
    # Any payload exits 0 or 2, and 0 only with a finite spectrum; with a
    # well-formed layout the file is read exactly when every entry is a
    # finite number, into the entrywise values.
    payload, pairs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        report = io.StringIO()
        with redirect_stdout(report):
            code = main(["entropy", path, "--json"])
        assert code in (0, 2)
        if code == 0:
            assert np.all(np.isfinite(json.loads(report.getvalue())["results"]["spectrum"]))
        if pairs is None:
            return
        reference = entrywise(pairs)
        if reference is None:
            with pytest.raises(ParseError):
                read_matrix_file(path)
            return
        mat, dims = read_matrix_file(path)
        assert dims == payload["dims"]
        assert mat.tobytes() == reference.tobytes()
        d = dims[0]
        if np.array_equal(reference, np.eye(d).ravel() / d):
            assert code == 0
