import numpy as np
import pytest

import discordium
import discordium.errors as errors
from conftest import random_density, random_hermitian
from discordium.classicality import DiscordConfig, discord, qubit_discord_oracle
from discordium.counterexample import COUNTEREXAMPLE_MATRIX
from discordium.errors import (
    BadConfig,
    DimensionMismatch,
    DiscordiumError,
    InvalidPovm,
    NegativeEigenvalue,
    NotHermitian,
    NotPositive,
    NotPovm,
    NotUnitary,
    ValidationError,
)
from discordium.linalg import (
    EigenDecomposition,
    as_square_matrix,
    block_diag,
    conjugate_a,
    distance,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    partial_trace,
    require_hermitian,
    support_cutoff,
    trace_distance,
)
from discordium.states import random_cq_state, random_state, validate_density

# The 4x4 counterexample matrix is [[D, O], [O, D]] with 2x2 symmetric
# blocks, so its spectrum is the union of the spectra of D + O and D - O;
# both are of the form a*I + b*X with eigenvalues a +- b. Hand evaluation
# gives exactly {0.36, 0.10} and {0.42, 0.12}.
COUNTEREXAMPLE_SPECTRUM = np.array([0.10, 0.12, 0.36, 0.42])


class TestHermitianEig:
    def test_identity(self):
        vals, _ = hermitian_eig(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        vals, _ = hermitian_eig(np.diag([0.75, 0.25]))
        assert np.allclose(vals, [0.25, 0.75])

    def test_counterexample_matrix_spectrum(self):
        vals, _ = hermitian_eig(COUNTEREXAMPLE_MATRIX)
        assert np.allclose(vals, COUNTEREXAMPLE_SPECTRUM, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_orthonormality(self, dim, seed):
        m = random_hermitian(dim, np.random.default_rng(seed))
        vals, vecs = hermitian_eig(m)
        resid = np.linalg.norm((vecs * vals) @ vecs.conj().T - m)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) <= 1e-10


def jacobi_eig(m) -> EigenDecomposition:
    """Cyclic Jacobi eigensolver for complex Hermitian matrices.

    Slower than :func:`hermitian_eig` but independent of LAPACK: the
    reference that cross-checks it. Pivots sweep the strict upper triangle
    in fixed row-major order, so the result is bit-reproducible. Each pivot
    applies the 2x2 unitary that zeroes the pivot entry: a phase rotation
    making it real followed by the classical symmetric Jacobi rotation.
    """
    a = require_hermitian(m).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(100):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= 1e-14 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                b = abs(apq)
                if b <= 1e-300:
                    continue
                phase = apq / b
                tau = (a[q, q].real - a[p, p].real) / (2.0 * b)
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                j2 = np.array(
                    [[c, s], [-s * np.conj(phase), c * np.conj(phase)]],
                    dtype=complex,
                )
                a[:, [p, q]] = a[:, [p, q]] @ j2
                a[[p, q], :] = j2.conj().T @ a[[p, q], :]
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                v[:, [p, q]] = v[:, [p, q]] @ j2
    order = np.argsort(np.diag(a).real, kind="stable")
    return EigenDecomposition(np.diag(a).real[order], v[:, order])


def test_require_hermitian_keeps_finite_entries_near_float_limit():
    m = np.array([[1e308, 1.5e308 + 1e308j], [1.5e308 - 1e308j, -1.7e308]])
    assert np.array_equal(require_hermitian(m), m)


class TestJacobiEig:
    def test_counterexample_matrix_spectrum(self):
        vals, _ = jacobi_eig(COUNTEREXAMPLE_MATRIX)
        assert np.allclose(vals, COUNTEREXAMPLE_SPECTRUM, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [2, 3, 4, 7])
    def test_agrees_with_lapack(self, dim, seed):
        m = random_hermitian(dim, np.random.default_rng(100 + seed))
        jv, jw = jacobi_eig(m)
        lv, _ = hermitian_eig(m)
        assert np.allclose(jv, lv, atol=1e-10)
        resid = np.linalg.norm((jw * jv) @ jw.conj().T - m)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(jw.conj().T @ jw - np.eye(dim)) <= 1e-10

    def test_method_switch(self):
        m = random_hermitian(4, np.random.default_rng(5))
        assert np.allclose(
            jacobi_eig(m).eigenvalues,
            hermitian_eig(m).eigenvalues,
            atol=1e-10,
        )


class TestMatrixFunctionOnSupport:
    def test_sqrt_on_singular_diagonal(self):
        out = matrix_function_on_support(np.diag([4.0, 0.0]), np.sqrt)
        assert np.allclose(out, np.diag([2.0, 0.0]))

    def test_inverse_sqrt_only_on_support(self):
        out = matrix_function_on_support(np.diag([4.0, 0.0]), lambda x: x ** -0.5)
        assert np.allclose(out, np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_sqrt_squares_back(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g @ g.conj().T
        root = matrix_function_on_support(m, np.sqrt)
        assert np.linalg.norm(root @ root - m) <= 1e-9 * np.linalg.norm(m)

    def test_identity_function_is_identity_on_full_support(self):
        rng = np.random.default_rng(77)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T + 0.5 * np.eye(4)
        out = matrix_function_on_support(m, lambda x: x)
        assert np.allclose(out, m, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            matrix_function_on_support(np.diag([1.0, -0.5]), np.sqrt)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_block_placement(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = kron(np.diag([1.0, 0.0]), x)
        expected = np.zeros((4, 4))
        expected[:2, :2] = x
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


class TestConjugateA:
    @pytest.mark.parametrize("d_in, d_out, d_b", [(2, 2, 3), (3, 3, 2), (2, 4, 3), (4, 3, 2)])
    def test_matches_kron_form(self, d_in, d_out, d_b):
        rng = np.random.default_rng(10 * d_in + d_out)
        n = d_in * d_b
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((d_in, d_out)) + 1j * rng.standard_normal((d_in, d_out))
        big = kron(x, np.eye(d_b))
        assert np.max(np.abs(conjugate_a(m, x) - big.conj().T @ m @ big)) <= 1e-12

    def test_block_diag_matches_kron_sum(self):
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        expected = sum(kron(np.diag(np.eye(3)[a]), blocks[a]) for a in range(3))
        assert np.array_equal(block_diag(blocks), expected)


_ALIASES = {"NegativeEigenvalue": NotPositive, "NotPovm": InvalidPovm, "BadRank": BadConfig,
            "WrongDimension": DimensionMismatch, "NotIsometry": NotUnitary}


def test_error_aliases_share_one_class_per_invariant():
    assert NegativeEigenvalue is NotPositive
    assert NotPovm is InvalidPovm
    for name, cls in _ALIASES.items():
        assert getattr(errors, name) is cls
        assert getattr(discordium, name) is cls
    classes = {v for v in vars(errors).values() if isinstance(v, type)
               and issubclass(v, DiscordiumError) and v is not DiscordiumError}
    assert len(classes) == 14


# Each integer argument checked by the one rule: (call, name, low, high, a valid value).
_S22 = random_cq_state(2, 2, seed=0)
_INTEGER_ARGUMENTS = {
    "discord-seed": (lambda v: discord(_S22, DiscordConfig(seed=v)), "seed", 0, None, 1),
    "discord-restarts": (lambda v: discord(_S22, DiscordConfig(restarts=v)), "restarts", 1,
                         None, 2),
    "oracle-grid": (lambda v: qubit_discord_oracle(_S22, grid=v), "grid", 8, None, 8),
    "random_state-d": (lambda v: random_state(v), "d", 1, None, 2),
    "random_state-rank": (lambda v: random_state(4, rank=v), "rank", 1, 4, 2),
    "random_state-seed": (lambda v: random_state(4, seed=v), "seed", 0, None, 1),
    "random_cq_state-d_a": (lambda v: random_cq_state(v, 2), "d_a", 1, None, 2),
    "random_cq_state-d_b": (lambda v: random_cq_state(2, v), "d_b", 1, None, 2),
    "random_cq_state-seed": (lambda v: random_cq_state(2, 2, seed=v), "seed", 0, None, 1),
}


def _bad_integers():
    for caller, (call, name, low, high, valid) in _INTEGER_ARGUMENTS.items():
        for bad in (valid + 0.5, float(valid), True, str(valid)):
            yield pytest.param(call, bad, f"{name} must be an integer, got {bad!r}",
                               id=f"{caller}-{bad!r}")
        for bad in (low - 1,) if high is None else (low - 1, high + 1):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            yield pytest.param(call, bad, f"{name} must be {bound}, got {bad}",
                               id=f"{caller}-{bad!r}")


@pytest.mark.parametrize("call, bad, message", _bad_integers())
def test_integer_argument_of_wrong_type_or_range_is_bad_config(call, bad, message):
    with pytest.raises(BadConfig) as exc:
        call(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize("caller", _INTEGER_ARGUMENTS)
def test_numpy_integer_argument_accepted(caller):
    call, _, _, _, valid = _INTEGER_ARGUMENTS[caller]
    call(np.int64(valid))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        out = partial_trace(kron(a, b), 2, 3, keep="A")
        assert np.allclose(out, a * np.trace(b), atol=1e-12)
        out_b = partial_trace(kron(a, b), 2, 3, keep="B")
        assert np.allclose(out_b, b * np.trace(a), atol=1e-12)

    def test_maximally_entangled_reduction(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        out = partial_trace(np.outer(v, v), 2, 2, keep="A")
        assert np.allclose(out, np.eye(2) / 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preserved(self, seed):
        m = random_hermitian(6, np.random.default_rng(seed))
        assert np.isclose(np.trace(partial_trace(m, 2, 3, keep="A")), np.trace(m))
        assert np.isclose(np.trace(partial_trace(m, 3, 2, keep="B")), np.trace(m))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), 2, 3, keep="A")


class TestDistance:
    def test_zero_on_equal(self):
        m = random_hermitian(3, np.random.default_rng(0))
        assert distance(m, m) == 0.0
        assert distance(m, m, norm="trace") == 0.0

    def test_orthogonal_pure_states_trace_norm(self):
        assert np.isclose(distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), "trace"), 2.0)
        assert np.isclose(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1.0)

    @pytest.mark.parametrize("norm", ["frobenius", "trace"])
    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_inequality(self, norm, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_hermitian(3, rng) for _ in range(3))
        assert distance(a, c, norm) <= distance(a, b, norm) + distance(b, c, norm) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("dim", [2, 6, 144])
    def test_trace_norm_matches_svd(self, hermitian, dim):
        rng = np.random.default_rng(dim)
        if hermitian:
            a, b = (require_hermitian(random_density(dim, dim, rng)) for _ in range(2))
        else:
            a, b = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                    for _ in range(2))
        d = a - b
        assert np.array_equal(d, d.conj().T) == hermitian
        svd = float(np.sum(np.linalg.svd(d, compute_uv=False)))
        assert abs(distance(a, b, norm="trace") - svd) <= 1e-12
        assert abs(trace_distance(a, b) - 0.5 * svd) <= 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: as_square_matrix(np.ones((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: as_square_matrix(np.ones(4)), "expected a square matrix, got shape (4,)"),
    (lambda: as_square_matrix(np.diag([1.0, np.nan])), "matrix has non-finite entries"),
    (lambda: as_square_matrix(np.diag([1.0, -np.inf])), "matrix has non-finite entries"),
    (lambda: validate_density("ab"), "expected a numeric matrix, got str"),
    (lambda: as_square_matrix([[1.0, 0.0], [0.0]]), "expected a numeric matrix, got list"),
    (lambda: partial_trace(np.eye(4), 2, 2, keep="C"), "keep must be 'A' or 'B', got 'C'"),
    (lambda: distance(np.eye(2), np.eye(2), norm="max"),
     "norm must be 'frobenius' or 'trace', got 'max'"),
], ids=["non-square", "vector", "nan", "inf", "non-numeric", "ragged", "bad-keep", "bad-norm"])
def test_validation_error_names_the_problem(call, message):
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_support_cutoff_floor():
    assert support_cutoff(np.array([1e-3])) == 1e-10
    assert np.isclose(support_cutoff(np.array([50.0])), 5e-9)
