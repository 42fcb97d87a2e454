import warnings

import numpy as np
import pytest

from conftest import (
    random_bipartite,
    random_channel,
    random_density,
    random_full_povm,
    random_isometry,
    random_rank1_povm,
)
from discordium.counterexample import COUNTEREXAMPLE_MATRIX
from discordium.errors import (
    DimensionMismatch,
    InvalidPovm,
    NotIsometry,
    NotRankOne,
    NotUnitary,
    ValidationError,
)
from discordium.channels import (
    KrausChannel,
    KrausMap,
    Refinement,
    adjoint,
    apply,
    apply_matrix,
    coarse_grain_channel,
    dephase,
    dephasing_channel,
    embed_state,
    is_extremal,
    isometry_to_povm,
    measurement_map,
    povm,
    povm_to_isometry,
    projective_povm,
    refine_to_rank_one,
)
from discordium.linalg import kron, matrix_function_on_support
from discordium.measures import mutual_information
from discordium.states import (
    bipartite,
    haar_unitary,
    random_cq_state_with_parts,
    random_state,
)


def hermitian_basis(dim):
    """Spanning set of Hermitian matrices: diagonal units plus symmetric and
    antisymmetric pair combinations."""
    out = []
    for j in range(dim):
        for k in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            if j == k:
                out.append(e)
            elif j < k:
                out.append(0.5 * (e + e.conj().T))
            else:
                out.append(0.5j * (e - e.conj().T))
    return out


class TestKrausChannel:
    def test_identity_channel(self):
        ch = KrausChannel(kraus_ops=(np.eye(3),), in_dim=3, out_dim=3)
        rho = random_state(3, 3, seed=0)
        assert np.allclose(apply(ch, rho).mat, rho.mat)

    def test_incomplete_kraus_family_rejected(self):
        from discordium.errors import NotPovm

        with pytest.raises(NotPovm):
            KrausChannel(kraus_ops=(0.5 * np.eye(2),), in_dim=2, out_dim=2)

    def test_dimension_mismatch(self):
        ch = KrausChannel(kraus_ops=(np.eye(2),), in_dim=2, out_dim=2)
        with pytest.raises(DimensionMismatch):
            apply_matrix(ch, np.eye(3))

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(3, 2, 2, rng)
        rho = random_density(3, 3, rng)
        assert abs(np.trace(apply_matrix(ch, rho)).real - 1.0) <= 1e-12


class TestDephasingChannel:
    def test_cq_state_unchanged_in_generating_basis(self):
        s, basis, _, _ = random_cq_state_with_parts(3, 2, seed=8)
        ch = dephasing_channel(basis, 3, 2)
        assert np.max(np.abs(apply_matrix(ch, s.mat) - s.mat)) <= 1e-12

    def test_counterexample_dephasing_zeroes_off_blocks(self):
        ch = dephasing_channel(np.eye(2), 2, 2)
        out = apply_matrix(ch, COUNTEREXAMPLE_MATRIX)
        expected = COUNTEREXAMPLE_MATRIX.copy()
        expected[:2, 2:] = 0.0
        expected[2:, :2] = 0.0
        assert np.allclose(out, expected, atol=1e-14)

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (2, 3), (4, 3), (5, 1)])
    def test_kraus_stack_equals_projector_krons(self, d_a, d_b):
        for seed in range(20):
            u = haar_unitary(d_a, np.random.default_rng(seed))
            ops = [kron(np.outer(u[:, a], u[:, a].conj()), np.eye(d_b)) for a in range(d_a)]
            assert np.array_equal(dephasing_channel(u, d_a, d_b).kraus_ops, np.array(ops))

    @pytest.mark.parametrize("seed", range(4))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(30 + seed)
        s = random_bipartite(2, 3, rng)
        ch = dephasing_channel(haar_unitary(2, rng), 2, 3)
        once = apply_matrix(ch, s.mat)
        assert np.max(np.abs(apply_matrix(ch, once) - once)) <= 1e-12

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (3, 2), (2, 3)], ids=["2x2", "3x2", "2x3"])
    def test_dephase_shortcut_matches_channel(self, d_a, d_b):
        rng = np.random.default_rng(9)
        s = random_bipartite(d_a, d_b, rng)
        u = haar_unitary(d_a, rng)
        ch = dephasing_channel(u, d_a, d_b)
        assert np.max(np.abs(dephase(s, u) - apply_matrix(ch, s.mat))) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            dephasing_channel(np.ones((2, 2)), 2, 2)
        s = random_bipartite(2, 2, np.random.default_rng(0))
        with pytest.raises(NotUnitary):
            dephase(s, np.ones((2, 2)))
        with pytest.raises(DimensionMismatch):
            dephase(s, np.eye(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_data_processing(self, seed):
        rng = np.random.default_rng(60 + seed)
        s = random_bipartite(2, 2, rng)
        dephased = bipartite(dephase(s, haar_unitary(2, rng)), 2, 2, tol=1e-8)
        assert mutual_information(dephased) <= mutual_information(s) + 1e-9


class TestMeasurementMap:
    def test_projective_on_diagonal_state(self):
        p = projective_povm(np.eye(3))
        rho = np.diag([0.2, 0.3, 0.5])
        out = apply_matrix(measurement_map(p), rho)
        assert np.allclose(out, rho, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_diagonal_matches_traces(self, seed):
        rng = np.random.default_rng(seed)
        p = random_full_povm(3, 4, rng)
        rho = random_density(3, 3, rng)
        out = apply_matrix(measurement_map(p), rho)
        expected = np.diag([np.trace(e @ rho).real for e in p.effects])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_single_effect_povm(self):
        p = povm([np.eye(3)])
        out = apply_matrix(measurement_map(p), random_density(3, 3, np.random.default_rng(0)))
        assert np.allclose(out, np.array([[1.0]]))

    def test_invalid_povm_rejected(self):
        with pytest.raises(InvalidPovm):
            povm([np.eye(2) * 0.5])
        with pytest.raises(InvalidPovm):
            povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


class TestRefinement:
    def test_projective_already_rank_one(self):
        p = projective_povm(haar_unitary(3, np.random.default_rng(0)))
        r = refine_to_rank_one(p)
        assert r.fine.n_outcomes == 3
        for f_label, parent in r.coarse_map.items():
            assert f_label == (parent, 0)

    def test_spectral_multiplicity(self):
        p = povm([np.eye(2) / 2, np.eye(2) / 2], labels=("u", "v"))
        r = refine_to_rank_one(p)
        assert r.fine.n_outcomes == 4
        fibers = {}
        for f_label, parent in r.coarse_map.items():
            fibers.setdefault(parent, 0)
            fibers[parent] += 1
        assert fibers == {"u": 2, "v": 2}

    @pytest.mark.parametrize("seed", range(4))
    def test_recomposition(self, seed):
        rng = np.random.default_rng(70 + seed)
        p = random_full_povm(3, 3, rng)
        r = refine_to_rank_one(p)
        for label, effect in zip(p.labels, p.effects):
            acc = sum(
                f_eff
                for f_label, f_eff in zip(r.fine.labels, r.fine.effects)
                if r.coarse_map[f_label] == label
            )
            assert np.linalg.norm(acc - effect) <= 1e-10


class TestCoarseGrain:
    def test_completeness(self):
        rng = np.random.default_rng(5)
        r = refine_to_rank_one(random_full_povm(2, 3, rng))
        ch = coarse_grain_channel(r)
        acc = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(acc - np.eye(r.fine.n_outcomes))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_reproduces_coarse_map(self, seed):
        rng = np.random.default_rng(80 + seed)
        p = random_full_povm(3, 4, rng)
        r = refine_to_rank_one(p)
        grouped = coarse_grain_channel(r)
        fine_map = measurement_map(r.fine)
        coarse_map_ch = measurement_map(p)
        for h in hermitian_basis(3):
            lhs = apply_matrix(grouped, apply_matrix(fine_map, h))
            rhs = apply_matrix(coarse_map_ch, h)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_identity_coarse_map_on_diagonal_states(self):
        p = projective_povm(np.eye(2))
        r = refine_to_rank_one(p)
        ch = coarse_grain_channel(r)
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(apply_matrix(ch, rho), rho)


class TestExtremality:
    def test_projective_is_extremal(self):
        report = is_extremal(projective_povm(haar_unitary(3, np.random.default_rng(1))))
        assert report.extremal
        assert report.rank == report.dyad_count == 3

    def test_mixture_not_extremal(self):
        rng = np.random.default_rng(2)
        p1 = projective_povm(haar_unitary(2, rng))
        p2 = projective_povm(haar_unitary(2, rng))
        mix = povm([0.5 * a + 0.5 * b for a, b in zip(p1.effects, p2.effects)])
        report = is_extremal(mix)
        assert not report.extremal
        assert report.rank < report.dyad_count

    @pytest.mark.parametrize("seed", range(3))
    def test_too_many_rank_one_elements(self, seed):
        # More than d^2 rank-one elements can never be linearly independent.
        rng = np.random.default_rng(90 + seed)
        p = random_rank1_povm(2, 5, rng)
        report = is_extremal(p)
        assert not report.extremal
        assert report.rank <= 4


class TestIsometry:
    def test_standard_basis_roundtrip(self):
        p = projective_povm(np.eye(3))
        iota = povm_to_isometry(p)
        assert np.allclose(iota, np.eye(3))
        back = isometry_to_povm(iota)
        for a, b in zip(back.effects, p.effects):
            assert np.allclose(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_statistics_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        p = random_rank1_povm(3, 6, rng)
        iota = povm_to_isometry(p)
        rho = random_density(3, 3, rng)
        direct = np.array([np.trace(e @ rho).real for e in p.effects])
        embedded = np.diag(iota @ rho @ iota.conj().T).real
        assert np.max(np.abs(direct - embedded)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(10 + seed)
        p = random_rank1_povm(2, 4, rng)
        back = isometry_to_povm(povm_to_isometry(p), labels=p.labels)
        for a, b in zip(p.effects, back.effects):
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_random_isometry_yields_povm(self, seed):
        rng = np.random.default_rng(20 + seed)
        iota = random_isometry(7, 3, rng)
        p = isometry_to_povm(iota)
        assert p.n_outcomes == 7

    def test_not_rank_one_rejected(self):
        with pytest.raises(NotRankOne):
            povm_to_isometry(povm([np.eye(2) / 2, np.eye(2) / 2]))

    def test_weight_below_the_support_cutoff_is_not_dropped_silently(self):
        # Each effect is rank one at the 1e-10 cutoff, but the two dropped
        # eigenvalues leave iota^dag iota a Frobenius distance sqrt(2) eps from I.
        eps = 0.9e-10
        p = povm([np.diag([1 - eps, eps]), np.diag([eps, 1 - eps])])
        with pytest.raises(InvalidPovm, match="iota† iota defect 1.27.e-10 exceeds 1e-10"):
            povm_to_isometry(p)

    def test_not_isometry_rejected(self):
        with pytest.raises(NotIsometry, match="iota† iota defect 5.099e\\+00 exceeds 1e-10"):
            isometry_to_povm(np.ones((3, 2)))

    def test_non_matrix_isometry_rejected(self):
        with pytest.raises(NotIsometry, match=r"expected a 2d array, got shape \(3,\)"):
            isometry_to_povm(np.ones(3))

    def test_enlargement_pipeline_statistics(self):
        # Rank-one POVM with d^2 outcomes: measuring it equals a projective
        # measurement of the embedded state in the enlarged space.
        rng = np.random.default_rng(33)
        p = random_rank1_povm(2, 4, rng)
        iota = povm_to_isometry(p)
        rho = random_density(2, 2, rng)
        via_map = np.diag(apply_matrix(measurement_map(p), rho)).real
        embedded = iota @ rho @ iota.conj().T
        projective = np.diag(apply_matrix(measurement_map(projective_povm(np.eye(4))), embedded)).real
        assert np.max(np.abs(via_map - projective)) <= 1e-12


class TestAdjoint:
    def test_identity(self):
        ch = KrausChannel(kraus_ops=(np.eye(3),), in_dim=3, out_dim=3)
        ad = adjoint(ch)
        y = random_density(3, 3, np.random.default_rng(0))
        assert np.allclose(apply_matrix(ad, y), y)

    def test_dephasing_self_adjoint(self):
        rng = np.random.default_rng(3)
        ch = dephasing_channel(haar_unitary(2, rng), 2, 2)
        ad = adjoint(ch)
        y = np.asarray(random_density(4, 4, rng))
        assert np.max(np.abs(apply_matrix(ad, y) - apply_matrix(ch, y))) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_duality(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(3, 2, 2, rng)
        rho = random_density(3, 3, rng)
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = np.trace(apply_matrix(ch, rho) @ y)
        rhs = np.trace(rho @ apply_matrix(adjoint(ch), y))
        assert abs(lhs - rhs) <= 1e-10

    def test_unital(self):
        rng = np.random.default_rng(7)
        ch = random_channel(4, 3, 2, rng)
        out = apply_matrix(adjoint(ch), np.eye(3))
        assert np.linalg.norm(out - np.eye(4)) <= 1e-10


def test_embed_state_into_smaller_dimension_rejected():
    s = random_bipartite(3, 2, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch, match="enlarged dimension must be >= 3, got 2"):
        embed_state(s, 2)


def test_embed_state_preserves_spectrum():
    rng = np.random.default_rng(12)
    s = random_bipartite(2, 2, rng)
    big = embed_state(s, 4)
    assert big.d_a == 4 and big.d_b == 2
    small_spec = np.sort(s.state.spectrum)
    big_spec = np.sort(big.state.spectrum)[-4:]
    assert np.allclose(np.sort(big_spec), small_spec, atol=1e-12)


class TestStackedValidation:
    @pytest.mark.parametrize("effects, labels, message", [
        ([np.eye(2) / 2, np.eye(3) / 2, np.eye(2) / 2], "xyz", "effect 'y' has shape (3, 3)"),
        ([np.ones((2, 3)) / 2, np.ones((2, 3)) / 2], "xy", "effect 'x' has shape (2, 3)"),
        ([], "", "POVM needs at least one effect"),
        ([np.eye(2)], "xy", "2 labels for 1 effects"),
        ([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]], "xy", "effect 'y' is not Hermitian"),
        ([np.eye(2) / 2, np.diag([1.5, 0.5])], "xy", "effect 'y' eigenvalues [5.000e-01, 1.500e+00]"),
        ([np.eye(2) / 2, np.diag([-0.5, 0.5])], "xy", "effect 'y' eigenvalues [-5.000e-01, 5.000e-01]"),
        ([np.eye(2) / 2, np.eye(2) / 4], "xy", "effects sum defect 3.536e-01"),
        ([[["a", "b"], ["c", "d"]]], "x", "effects are not numeric matrices"),
        ([1.0], "x", "effect 'x' has shape ()"),
        ([None], "x", "effect 'x' has shape ()"),
        ([np.eye(2), [[0.0, 1e308], [-1e308, 0.0]]], "xy", "effect 'y' is not Hermitian"),
        ([np.diag([1e308, 0.0]), np.eye(2)], "xy", "effect 'x' eigenvalues [0.000e+00, 1.000e+308]"),
    ], ids=["ragged", "non-square", "empty", "label-count", "non-hermitian", "above-one",
            "negative", "sum-defect", "non-numeric", "scalar", "none", "overflowing-defect",
            "overflowing-sum"])
    def test_povm_rejection_names_label(self, effects, labels, message):
        with pytest.raises(InvalidPovm) as exc:
            povm(effects, labels=tuple(labels))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("coarse_map, message", [
        ({"a": "u", "b": "v"}, "coarse_map keys must be exactly the fine labels"),
        ({"a": "u", "b": "v", "c": "w", "d": "u"}, "coarse_map keys must be exactly the fine labels"),
        ({"a": "u", "b": "v", "c": "z"}, "coarse_map targets unknown coarse labels"),
    ], ids=["missing-key", "extra-key", "unknown-target"])
    def test_refinement_rejects_bad_map(self, coarse_map, message):
        units = [np.diag(np.eye(3)[k]) for k in range(3)]
        fine = povm(units, labels=("a", "b", "c"))
        coarse = povm(units, labels=("u", "v", "w"))
        with pytest.raises(InvalidPovm, match=message):
            Refinement(fine=fine, coarse=coarse, coarse_map=coarse_map)

    def test_zero_effect_has_no_refinement(self):
        with pytest.raises(InvalidPovm, match="effect 'y' is numerically zero"):
            refine_to_rank_one(povm([np.eye(2), np.zeros((2, 2))], labels=("x", "y")))

    def test_refinement_names_missed_fiber(self):
        units = [np.diag(np.eye(3)[k]) for k in range(3)]
        fine = povm(units, labels=("a", "b", "c"))
        coarse = povm(units, labels=("u", "v", "w"))
        Refinement(fine=fine, coarse=coarse, coarse_map={"a": "u", "b": "v", "c": "w"})
        with pytest.raises(InvalidPovm, match="over label 'v' miss the coarse effect"):
            Refinement(fine=fine, coarse=coarse, coarse_map={"a": "u", "b": "w", "c": "v"})

    @pytest.mark.parametrize("call, error, message", [
        (lambda: KrausChannel(kraus_ops=[np.full((2, 2), np.nan)], in_dim=2, out_dim=2),
         ValidationError, "a Kraus operator has non-finite entries"),
        (lambda: KrausMap(kraus_ops=[np.full((2, 2), np.nan)], in_dim=2, out_dim=2),
         ValidationError, "a Kraus operator has non-finite entries"),
        (lambda: povm([np.full((2, 2), np.nan), np.eye(2)]),
         ValidationError, "a POVM effect has non-finite entries"),
        (lambda: isometry_to_povm(np.full((3, 2), np.nan)),
         ValidationError, "the isometry has non-finite entries"),
        # Finite entries whose defect overflows to NaN.
        (lambda: KrausChannel(kraus_ops=[[[1e308, 1e308], [0, 1]], [[-1e308, 1e308], [0, 0]]],
                              in_dim=2, out_dim=2),
         InvalidPovm, "completeness defect nan exceeds 1e-10"),
        (lambda: isometry_to_povm([[1e308, 0], [0, 1], [0, 0]]),
         NotUnitary, "iota† iota defect nan exceeds 1e-10"),
        (lambda: projective_povm([[1e308, 0], [0, 1]]),
         NotUnitary, "unitarity defect nan exceeds 1e-10"),
    ], ids=["kraus-channel-nan", "kraus-map-nan", "povm-nan", "isometry-nan",
            "kraus-overflow", "isometry-overflow", "unitary-overflow"])
    def test_malformed_family_rejected_without_warning(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("ops", [
        (np.ones((3, 2)), np.ones((3, 3))),
        (np.ones((3, 2)), np.ones((2, 3))),
        (np.ones((2, 3)),),
        np.ones((3, 2)),
    ], ids=["ragged", "ragged-transposed", "wrong-shape", "bare-matrix"])
    def test_kraus_shape_rejected(self, ops):
        with pytest.raises(DimensionMismatch):
            KrausMap(kraus_ops=ops, in_dim=2, out_dim=3)
        with pytest.raises(DimensionMismatch):
            KrausChannel(kraus_ops=ops, in_dim=2, out_dim=3)


class TestStackedMatchesLoops:
    """Each stacked construction against the per-operator loop it replaced."""

    @pytest.mark.parametrize("seed", range(5))
    def test_measurement_map(self, seed):
        p = random_full_povm(3, 4, np.random.default_rng(seed))
        d, n = p.dim, p.n_outcomes
        ops = []
        for m_idx, effect in enumerate(p.effects):
            root = matrix_function_on_support(effect, np.sqrt)
            for k in range(d):
                op = np.zeros((n, d), dtype=complex)
                op[m_idx, :] = root[k, :]
                ops.append(op)
        kraus = measurement_map(p).kraus_ops
        assert isinstance(kraus, np.ndarray) and kraus.shape == (n * d, n, d)
        assert np.array_equal(kraus, np.array(ops))

    @pytest.mark.parametrize("kind", ["full", "rank1", "projective"])
    @pytest.mark.parametrize("seed", range(20))
    def test_measurement_map_roots(self, kind, seed):
        # The effect roots from one stacked eigh, against one
        # matrix_function_on_support call per effect.
        rng = np.random.default_rng(900 + seed)
        d = 2 + seed % 3
        p = {"full": lambda: random_full_povm(d, 1 + seed % 5, rng),
             "rank1": lambda: random_rank1_povm(d, d + 1 + seed % 3, rng),
             "projective": lambda: projective_povm(haar_unitary(d, rng))}[kind]()
        roots = np.array([matrix_function_on_support(e, np.sqrt) for e in p.effects])
        kraus = measurement_map(p).kraus_ops.reshape(p.n_outcomes, p.dim, p.n_outcomes, p.dim)
        assert np.array_equal(kraus[np.arange(p.n_outcomes), :, np.arange(p.n_outcomes)], roots)

    @pytest.mark.parametrize("seed", range(5))
    def test_coarse_grain_channel(self, seed):
        r = refine_to_rank_one(random_full_povm(2, 3, np.random.default_rng(seed)))
        n_fine, n_coarse = r.fine.n_outcomes, r.coarse.n_outcomes
        coarse_pos = {label: i for i, label in enumerate(r.coarse.labels)}
        ops = []
        for f_idx, f_label in enumerate(r.fine.labels):
            op = np.zeros((n_coarse, n_fine), dtype=complex)
            op[coarse_pos[r.coarse_map[f_label]], f_idx] = 1.0
            ops.append(op)
        kraus = coarse_grain_channel(r).kraus_ops
        assert kraus.shape == (n_fine, n_coarse, n_fine) and kraus.dtype == complex
        assert np.array_equal(kraus, np.array(ops))

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint(self, seed):
        ch = random_channel(3, 2, 4, np.random.default_rng(seed))
        kraus = adjoint(ch).kraus_ops
        assert isinstance(ch.kraus_ops, np.ndarray) and ch.kraus_ops.shape == (4, 2, 3)
        assert np.array_equal(kraus, np.array([k.conj().T for k in ch.kraus_ops]))

    @pytest.mark.parametrize("seed", range(5))
    def test_projective_povm(self, seed):
        u = haar_unitary(3, np.random.default_rng(seed))
        effects = projective_povm(u).effects
        assert isinstance(effects, np.ndarray) and effects.shape == (3, 3, 3)
        assert np.array_equal(effects, np.array([np.outer(c, c.conj()) for c in u.T]))

    @pytest.mark.parametrize("seed", range(5))
    def test_isometry_to_povm(self, seed):
        iota = random_isometry(5, 2, np.random.default_rng(seed))
        effects = isometry_to_povm(iota).effects
        assert isinstance(effects, np.ndarray) and effects.shape == (5, 2, 2)
        assert np.array_equal(effects, np.array([np.outer(row.conj(), row) for row in iota]))

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_constructions(self, seed):
        # One stacked eigh now serves both; the loops took one eigh per effect.
        # The scaled products round differently, so allow a few ulps.
        rng = np.random.default_rng(seed)
        p = random_full_povm(3, 3, rng)
        fine = []
        for effect in p.effects:
            vals, vecs = np.linalg.eigh(0.5 * (effect + effect.conj().T))
            fine += [lam * np.outer(v, v.conj()) for lam, v in zip(vals[::-1], vecs.T[::-1])]
        assert np.max(np.abs(refine_to_rank_one(p).fine.effects - np.array(fine))) <= 1e-15
        p1 = random_rank1_povm(3, 6, rng)
        rows = []
        for effect in p1.effects:
            vals, vecs = np.linalg.eigh(0.5 * (effect + effect.conj().T))
            v = np.sqrt(vals[-1]) * vecs[:, -1]
            pivot = v[np.argmax(np.abs(v))]
            rows.append((v * np.conj(pivot) / abs(pivot)).conj())
        assert np.max(np.abs(povm_to_isometry(p1) - np.array(rows))) <= 1e-15
