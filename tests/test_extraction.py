"""Whole-array kernels of certificate extraction against independent references."""

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import random_density
from discordium.classicality import (
    GROUPING_TOL,
    _convex_gap,
    _group_equal_states,
    _pairwise_trace_distances,
    peel_extremal,
)
from discordium.linalg import trace_distance
from discordium.states import ConditionalEnsemble, validate_density


def nnls_gap(target, others):
    """Hull distance by scipy's NNLS, with a heavy row for sum x = 1, then renormalized."""
    def vec(m):
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    a = np.vstack([np.stack([vec(o) for o in others], axis=1), 1e3 * np.ones((1, len(others)))])
    x, _ = nnls(a, np.concatenate([vec(target), [1e3]]))
    return trace_distance(target, np.tensordot(x / x.sum(), others, axes=1))


def states(rng, d, ranks):
    return np.array([validate_density(random_density(d, r, rng)).mat for r in ranks])


class TestPairwiseKernel:
    @pytest.mark.parametrize("d_b", [1, 2, 3, 4])
    def test_matches_trace_distance(self, d_b):
        rng = np.random.default_rng(70 + d_b)
        mats = states(rng, d_b, [d_b, 1, max(1, d_b - 1), d_b])
        mats = np.concatenate([mats, mats[[0, 1]]])  # equal states too
        dist = _pairwise_trace_distances(mats)
        assert dist.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                assert abs(dist[i, j] - trace_distance(mats[i], mats[j])) <= 1e-15
        assert dist[0, 4] == 0.0 and dist[1, 5] == 0.0

    def test_single_state(self):
        one = states(np.random.default_rng(1), 2, [2])
        assert _pairwise_trace_distances(one).tolist() == [[0.0]]


class TestConvexGap:
    def test_agrees_with_nnls_on_random_hulls(self):
        # Per hull: a random state, a point inside, and points off the inside
        # point along the identity, which is orthogonal to the trace-one
        # hull, at known trace distances on either side of GROUPING_TOL.
        count = 0
        for k in range(1, 6):
            for d in (1, 2, 3):
                rng = np.random.default_rng([31, k, d])
                for h in range(70):
                    pts = states(rng, d, rng.integers(1, d + 1, size=k))
                    if h % 10 == 0 and k > 1:
                        pts[-1] = pts[0]  # coincident points: singular faces
                    inside = np.tensordot(rng.dirichlet(np.ones(k)), pts, axes=1)
                    targets = [(states(rng, d, [d])[0], None), (inside, 0.0)]
                    targets += [(inside + 2 * td / d * np.eye(d), td) for td in (0.5e-6, 2e-6)]
                    for t, known in targets:
                        gap, ref = _convex_gap(t, pts), nnls_gap(t, list(pts))
                        assert abs(gap - ref) <= 1e-7
                        assert (gap > GROUPING_TOL) == (ref > GROUPING_TOL)
                        if known is not None:
                            assert abs(gap - known) <= 1e-12
                    count += 1
        assert count >= 1000

    def test_affinely_dependent_points(self):
        # Five qubit states span at most the 3-dimensional trace-one space.
        rng = np.random.default_rng(5)
        pts = states(rng, 2, [2, 2, 1, 2, 1])
        for target in states(rng, 2, [1, 2, 2]):
            assert abs(_convex_gap(target, pts) - nnls_gap(target, list(pts))) <= 1e-7
        inside = 0.25 * (pts[0] + pts[1] + pts[2] + pts[3])
        assert _convex_gap(inside, pts) <= 1e-15
        assert abs(_convex_gap(inside + 1e-6 * np.eye(2), pts) - 1e-6) <= 1e-15

    def test_one_dimensional_b(self):
        # Every state of a one-dimensional B is [[1]]: all faces of two or
        # more points are exactly singular.
        pts = np.ones((4, 1, 1), dtype=complex)
        assert _convex_gap(np.ones((1, 1)), pts) == 0.0
        assert abs(_convex_gap(np.array([[1.0 + 4e-6]]), pts) - 2e-6) <= 1e-15

    def test_one_point_and_none(self):
        rng = np.random.default_rng(6)
        t, p = states(rng, 3, [3, 2])
        assert _convex_gap(t, p[np.newaxis]) == trace_distance(t, p)
        assert _convex_gap(t, np.empty((0, 3, 3))) == np.inf


class TestGrouping:
    def test_follows_transitive_chains(self):
        rng = np.random.default_rng(8)
        base, other = states(rng, 2, [2, 2])
        step = 0.6e-6 * np.diag([1.0, -1.0])  # trace distance 0.6e-6 per step
        # Chain positions 0..4 of base + n step, shuffled among the indices.
        chain = [4, 0, 2, 1, 3]
        mats = np.array([base + n * step for n in chain[:3]] + [other]
                        + [base + n * step for n in chain[3:]])
        dist = _pairwise_trace_distances(mats)
        assert dist[0, 1] > GROUPING_TOL and dist[1, 2] > GROUPING_TOL
        groups = _group_equal_states(mats)
        assert [g.tolist() for g in groups] == [[0, 1, 2, 4, 5], [3]]

    def test_lowest_index_leads(self):
        rng = np.random.default_rng(9)
        a, b, c = states(rng, 3, [3, 2, 1])
        groups = _group_equal_states(np.array([b, a, c, a, b, c]))
        assert [g.tolist() for g in groups] == [[0, 4], [1, 3], [2, 5]]

    def test_peeling_groups_chain(self):
        rng = np.random.default_rng(10)
        base, other = states(rng, 2, [2, 2])
        step = 0.6e-6 * np.diag([1.0, -1.0])
        mats = [base, other, base + 2 * step, base + step]
        ens = ConditionalEnsemble(probs=np.full(4, 0.25),
                                  states=np.array([validate_density(m).mat for m in mats]))
        trace = peel_extremal(ens, np.zeros((4, 4)), np.zeros(4, dtype=bool))
        assert trace.groups == ((0, 2, 3), (1,))
        assert trace.rounds == ((0, 1, 2, 3),)

    def test_eligible_is_required(self):
        ens = ConditionalEnsemble(probs=np.ones(1), states=np.eye(2)[np.newaxis] / 2)
        with pytest.raises(TypeError):
            peel_extremal(ens, np.zeros((1, 1)))


def cross_group_pairs(groups):
    return tuple(sorted((min(a, b), max(a, b)) for i, g in enumerate(groups)
                        for h in groups[i + 1:] for a in g for b in h))


class TestVanishingPairs:
    """Each pair of groups is still in play when the first of the two is peeled,
    so the vanishing pairs are all cross-group pairs; the hull tests shape only
    the rounds."""

    @pytest.mark.parametrize("seed", range(12))
    def test_all_cross_group_pairs_over_three_rounds(self, seed):
        # Four corners, interior mixtures of them and the interior points' mean,
        # one corner and one interior point repeated, in a shuffled order.
        rng = np.random.default_rng([80, seed])
        d_b, m = 2 + seed % 2, 3 + seed % 3
        corners = states(rng, d_b, [d_b] * 4)
        inner = np.tensordot(rng.dirichlet(np.ones(4), size=m), corners, axes=1)
        mats = np.concatenate([corners, inner, inner.mean(axis=0, keepdims=True),
                               corners[[seed % 4]], inner[[0]]])
        order = rng.permutation(len(mats))
        n = len(mats)
        ens = ConditionalEnsemble(probs=np.full(n, 1.0 / n), states=mats[order])
        trace = peel_extremal(ens, np.zeros((n, n)), np.zeros(n, dtype=bool))
        layer = np.argsort(order)
        assert len(trace.groups) == n - 2
        assert trace.rounds == (tuple(sorted(layer[[*range(4), n - 2]])),
                                tuple(sorted(layer[[*range(4, 4 + m), n - 1]])),
                                (layer[4 + m],))
        assert trace.vanishing_pairs == cross_group_pairs(trace.groups)

    @pytest.mark.parametrize("seed", range(20))
    def test_all_cross_group_pairs_on_random_ensembles(self, seed):
        # Random states and random mixtures of them; the mixtures need not be interior.
        rng = np.random.default_rng([81, seed])
        d_b = 2 + seed % 2
        base = states(rng, d_b, rng.integers(1, d_b + 1, size=rng.integers(2, 6)))
        mixes = np.tensordot(rng.dirichlet(np.ones(len(base)), size=rng.integers(1, 4)),
                             base, axes=1)
        mats = np.concatenate([base, mixes, base[:1]])
        n = len(mats)
        ens = ConditionalEnsemble(probs=np.full(n, 1.0 / n), states=mats)
        trace = peel_extremal(ens, np.zeros((n, n)), np.zeros(n, dtype=bool))
        assert len(trace.rounds) > 1
        assert trace.vanishing_pairs == cross_group_pairs(trace.groups)
