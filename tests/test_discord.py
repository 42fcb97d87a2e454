import inspect
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.linalg import expm

import discordium
import discordium.classicality as classicality
from conftest import bell_state, random_bipartite, random_density, random_hermitian
from discordium.errors import BadConfig, NotAtEquality, NotUnitary, WrongDimension
from discordium.channels import dephase, embed_state
from discordium.classicality import (
    _EARLY_STOP,
    _DephasingGap,
    _OffdiagMass,
    _block_spectra,
    _descend,
    _exact_gap,
    _offdiag_norms,
    _polish_basis,
    ClassicalityCertificate,
    DiscordConfig,
    NotClassical,
    certify_classical,
    discord,
    equality_residuals,
    equality_weights,
    peel_extremal,
    qubit_discord_oracle,
)
from discordium.linalg import kron, matrix_function_on_support, trace_distance
from discordium.measures import mutual_information
from discordium.states import (
    assemble_cq,
    bipartite,
    conditional_ensemble,
    haar_unitary,
    random_cq_state,
    random_cq_state_with_parts,
    random_state,
)

FAST = DiscordConfig(restarts=8)


def werner_like(p):
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return bipartite((1 - p) * np.eye(4) / 4 + p * np.outer(v, v), 2, 2)


class TestDiscord:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
    def test_cq_state_zero(self, dims):
        s = random_cq_state(*dims, seed=13)
        r = discord(s, FAST)
        assert r.value <= 1e-6
        assert r.converged

    def test_product_state_zero_everywhere(self):
        rng = np.random.default_rng(2)
        s = bipartite(kron(random_density(2, 2, rng), random_density(2, 2, rng)), 2, 2)
        r = discord(s, FAST)
        assert r.value <= 1e-9

    def test_werner_matches_oracle(self):
        s = werner_like(0.5)
        r = discord(s, DiscordConfig(restarts=16))
        oracle = qubit_discord_oracle(s, grid=400)
        assert abs(r.value - oracle) <= 1e-4

    def test_value_recomputable_from_fields(self):
        rng = np.random.default_rng(5)
        s = random_bipartite(2, 2, rng)
        r = discord(s, FAST)
        gap = mutual_information(s) - mutual_information(
            bipartite(dephase(s, r.best_basis), 2, 2, tol=1e-8)
        )
        assert abs(r.value - gap) <= 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(6)
        s = random_bipartite(2, 2, rng)
        r = discord(s, FAST)
        assert r.value >= -1e-9
        assert r.value <= mutual_information(s) + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        s = random_bipartite(2, 2, rng)
        r1 = discord(s, DiscordConfig(restarts=4, seed=3))
        r2 = discord(s, DiscordConfig(restarts=4, seed=3))
        assert r1.value == r2.value
        assert np.array_equal(r1.best_basis, r2.best_basis)

    @pytest.mark.parametrize("seed", range(3))
    def test_local_basis_invariance(self, seed):
        rng = np.random.default_rng(400 + seed)
        s = random_bipartite(2, 2, rng)
        u = haar_unitary(2, rng)
        rot = kron(u, np.eye(2))
        s_rot = bipartite(rot @ s.mat @ rot.conj().T, 2, 2)
        r1 = discord(s, DiscordConfig(restarts=12, seed=0))
        r2 = discord(s_rot, DiscordConfig(restarts=12, seed=0))
        assert abs(r1.value - r2.value) <= 2e-4

    def test_enlarged_never_worse(self):
        rng = np.random.default_rng(8)
        s = random_bipartite(2, 2, rng)
        plain = discord(s, DiscordConfig(restarts=8, seed=1))
        enlarged = discord(s, DiscordConfig(restarts=8, seed=1, enlarge=True))
        assert enlarged.enlarged
        assert enlarged.best_basis.shape == (4, 4)
        assert enlarged.value <= plain.value + 1e-6

    def test_tiny_block_probability_stops_after_first_restart(self):
        # A 1e-9 block whose conditional state has eigenvalue 0.03 puts an
        # eigenvalue of 3e-11 in rho. The gap's constant part must keep it, as
        # the block terms do, or the exact basis reads a gap above the early
        # stop and every restart runs.
        rng = np.random.default_rng(5)
        u = haar_unitary(2, rng)
        v = haar_unitary(2, rng)
        low = v @ np.diag([0.03, 0.97]) @ v.conj().T
        s = assemble_cq(u, [1e-9, 1.0 - 1e-9], [low, random_density(2, 2, rng)])
        r = discord(s)
        assert r.restarts_used == 1
        assert r.converged and r.value <= 1e-9

    def test_bad_config(self):
        # Accepted, an infinite step_tol would stop every start where it begins
        # and report converged; a float or bool count escaped as TypeError or
        # came back as restarts_used.
        s = random_bipartite(2, 2, np.random.default_rng(0))
        for bad in [{"restarts": 0}, {"restarts": 2.5}, {"restarts": True}, {"restarts": 2.0},
                    {"seed": -1}, {"seed": 1.5}, {"seed": False},
                    {"step_tol": 0.0}, {"step_tol": np.nan}, {"step_tol": np.inf}]:
            with pytest.raises(BadConfig):
                discord(s, DiscordConfig(**bad))

    def test_numpy_integer_config_accepted(self):
        s = random_cq_state(2, 2, seed=0)
        r = discord(s, DiscordConfig(restarts=np.int64(3), seed=np.int64(1)))
        assert r.restarts_used == 1 and r.converged


def pure_state(d_a, d_b, seed):
    """Random pure state and its exact discord S(rho_A) from the Schmidt weights."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    psi /= np.linalg.norm(psi)
    schmidt = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False) ** 2
    schmidt = schmidt[schmidt > 0.0]
    return bipartite(np.outer(psi, psi.conj()), d_a, d_b), float(-np.sum(schmidt * np.log2(schmidt)))


class TestPureStateOracle:
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    @pytest.mark.parametrize("seed", range(2))
    def test_pure_state_discord_is_entanglement_entropy(self, dims, seed):
        s, exact = pure_state(*dims, seed=900 + seed)
        r = discord(s)
        assert abs(r.value - exact) <= 1e-8
        assert r.converged


def gradient_states():
    """(name, matrix, d_a, d_b): full-rank and rank-deficient inputs."""
    rng = np.random.default_rng(31)
    pure, _ = pure_state(3, 2, seed=32)
    return [
        ("full2x2", random_density(4, 4, rng), 2, 2),
        ("full3x2", random_density(6, 6, rng), 3, 2),
        ("rank2_3x3", random_density(9, 2, rng), 3, 3),
        ("pure3x2", pure.mat, 3, 2),
    ]


class TestAnalyticGradient:
    H = 1e-6

    @pytest.mark.parametrize("case", gradient_states(), ids=lambda c: c[0])
    def test_gap_euclidean_gradient(self, case):
        _, mat, d_a, d_b = case
        gap = _DephasingGap(mat, d_a, d_b)
        u = haar_unitary(d_a, np.random.default_rng(33))
        (value,), (grad,) = gap.value_grad(u[np.newaxis])
        assert abs(value - gap(u)) <= 1e-12
        for i in range(d_a):
            for a in range(d_a):
                for unit, part in ((1.0, grad.real), (1j, grad.imag)):
                    e = np.zeros((d_a, d_a), dtype=complex)
                    e[i, a] = unit * self.H
                    fd = (gap(u + e) - gap(u - e)) / (2 * self.H)
                    assert abs(fd - part[i, a]) <= 1e-6 * max(1.0, abs(fd))

    @pytest.mark.parametrize("case", gradient_states(), ids=lambda c: c[0])
    @pytest.mark.parametrize("objective", [_DephasingGap, _OffdiagMass])
    def test_riemannian_directional_derivative(self, case, objective):
        # Along U exp(tX) with X skew-Hermitian, df/dt = Re tr(X^dag U^dag grad).
        _, mat, d_a, d_b = case
        f = objective(mat, d_a, d_b)
        rng = np.random.default_rng(34)
        u = haar_unitary(d_a, rng)
        _, (grad,) = f.value_grad(u[np.newaxis])
        for _ in range(3):
            x = 1j * random_hermitian(d_a, rng)
            slope = float(np.real(np.vdot(x, u.conj().T @ grad)))
            fd = (f(u @ expm(self.H * x)) - f(u @ expm(-self.H * x))) / (2 * self.H)
            assert abs(fd - slope) <= 1e-6 * max(1.0, abs(fd))

    def test_offdiag_mass_matches_block_formula(self):
        rng = np.random.default_rng(35)
        mat = random_density(6, 6, rng)
        mass = _OffdiagMass(mat, 3, 2)
        u = haar_unitary(3, rng)
        blocks = mass.blocks(u[np.newaxis])
        expected = np.linalg.norm(mat) ** 2 - np.sum(np.abs(blocks) ** 2)
        assert abs(mass(u) - expected) <= 1e-14

    def test_pure_state_gradient_vanishes(self):
        # The gap of a pure state is S(rho_A) in every basis, so the descent
        # stops on the zero gradient without trying a step.
        s, exact = pure_state(3, 3, seed=36)
        gap = _DephasingGap(s.mat, 3, 3)
        u = haar_unitary(3, np.random.default_rng(37))
        (value,), (grad,) = gap.value_grad(u[np.newaxis])
        assert np.all(np.isfinite(grad)) and np.linalg.norm(grad) <= 1e-12

        def no_line_search(us):
            raise AssertionError("line search ran at a zero gradient")

        gap.batch = no_line_search
        (f,), (u_out,), (converged,) = _descend(gap, u[np.newaxis], 200, 1e-10)
        assert converged and np.array_equal(u_out, u)
        assert abs(f - exact) <= 1e-12


class TestBlockKernel:
    @staticmethod
    def explicit(mat, x, y, d_b):
        """(x^dag (x) I) rho (y (x) I) for A vectors x, y."""
        eye = np.eye(d_b)
        return np.kron(x.conj()[np.newaxis], eye) @ mat @ np.kron(y[:, np.newaxis], eye)

    @pytest.mark.parametrize("d_a, d_b, cols", [(2, 2, 2), (3, 2, 3), (2, 3, 2), (2, 2, 4)])
    def test_blocks_mass_and_gradient_match_kron(self, d_a, d_b, cols):
        # cols > d_a is a rectangular stack: the top d_a rows of unitaries on C^cols.
        rng = np.random.default_rng(48)
        mat = random_density(d_a * d_b, d_a * d_b, rng)
        us = haar_unitary(cols, rng, 5)[:, :d_a, :]
        g = np.array([[random_hermitian(d_b, rng) for _ in range(cols)] for _ in us])
        obj = _OffdiagMass(mat, d_a, d_b)
        blocks, mass, grad = obj.blocks(us), obj.batch(us), obj.gradient(g, us)
        norms = _offdiag_norms(mat, us, d_b)
        # The descent evaluates an empty stack when no start found a lower step.
        assert obj.blocks(us[:0]).shape == (0, cols, d_b, d_b)
        assert obj.batch(us[:0]).shape == (0,)
        for n, u in enumerate(us):
            pairs = [[self.explicit(mat, u[:, a], u[:, k], d_b) for k in range(cols)]
                     for a in range(cols)]
            off = [np.linalg.norm(pairs[a][k]) for a in range(cols) for k in range(cols) if a != k]
            assert abs(mass[n] - sum(x ** 2 for x in off)) <= 1e-13
            assert abs(np.max(norms[n]) - max(off)) <= 1e-13
            for a in range(cols):
                assert np.max(np.abs(blocks[n, a] - pairs[a][a])) <= 1e-13
                # M_a = tr_B[rho (I (x) G_a)].
                m_a = np.einsum("ibjb->ij", (mat @ np.kron(np.eye(d_a), g[n, a])).reshape(
                    d_a, d_b, d_a, d_b))
                assert np.max(np.abs(grad[n, :, a] - 2.0 * m_a @ u[:, a])) <= 1e-13


def block_stacks():
    """(name, stack of Hermitian 2x2 blocks): the closed form's edge cases."""
    rng = np.random.default_rng(49)
    v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    return [
        ("random", np.array([random_hermitian(2, rng) for _ in range(6)]).reshape(3, 2, 2, 2)),
        ("diag_a_below_d", np.array([np.diag([0.1, 0.7]), np.diag([0.0, 0.2])], dtype=complex)),
        ("diag_a_above_d", np.array([np.diag([0.7, 0.1]), np.diag([0.2, 0.0])], dtype=complex)),
        ("scalar", np.array([0.3 * np.eye(2), 1e-17 * np.eye(2)], dtype=complex)),
        ("rank1", v[:, :, np.newaxis] * v.conj()[:, np.newaxis, :]),
        ("zero", np.zeros((4, 2, 2), dtype=complex)),
        ("empty", np.zeros((0, 2, 2), dtype=complex)),
    ]


class TestBlockSpectra:
    """The gap's ladder kernel at d_B = 2 against LAPACK."""

    @staticmethod
    def check_batch(gap, us):
        blocks = gap.blocks(us)
        reference = gap._value(np.clip(np.linalg.eigvalsh(blocks), 0.0, None))
        got = gap.batch(us)
        assert got.shape == reference.shape == (len(us),)
        scale = np.max(np.linalg.norm(blocks, axis=(-2, -1)), initial=0.0)
        assert np.all(np.abs(got - reference) <= 1e-14 * scale)

    @pytest.mark.parametrize("case", block_stacks(), ids=lambda c: c[0])
    def test_closed_form_matches_eigvalsh(self, case):
        _, x = case
        w, reference = _block_spectra(x), np.linalg.eigvalsh(x)
        assert w.shape == reference.shape
        scale = np.linalg.norm(x, axis=(-2, -1))[..., np.newaxis]
        assert np.all(np.abs(w - reference) <= 1e-14 * scale)

    @pytest.mark.parametrize("case", block_stacks()[:-1], ids=lambda c: c[0])
    def test_batch_matches_lapack_on_block_stacks(self, case):
        # A block-diagonal rho has the stack as its blocks in the standard basis.
        x = case[1].reshape(-1, 2, 2)
        n = len(x)
        mat = np.zeros((2 * n, 2 * n), dtype=complex)
        for a in range(n):
            mat[2 * a:2 * a + 2, 2 * a:2 * a + 2] = x[a]
        self.check_batch(_DephasingGap(mat, n, 2), np.eye(n)[np.newaxis])

    @pytest.mark.parametrize("d_a, cols, count", [(2, 2, 16), (3, 3, 16), (2, 2, 0), (2, 4, 5)])
    def test_batch_matches_lapack_on_bases(self, d_a, cols, count):
        # count = 0 is an empty stack; cols > d_a a rectangular (count, d_a, cols) one.
        rng = np.random.default_rng(50)
        gap = _DephasingGap(random_density(2 * d_a, 2 * d_a, rng), d_a, 2)
        self.check_batch(gap, haar_unitary(cols, rng, max(count, 1))[:count, :d_a, :])

    def test_batch_skips_lapack_and_the_oracle_keeps_it(self, monkeypatch):
        s = random_bipartite(2, 2, np.random.default_rng(51))
        gap = _DephasingGap(s.mat, 2, 2)
        eigvalsh = np.linalg.eigvalsh

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert np.all(np.isfinite(gap.batch(haar_unitary(2, np.random.default_rng(52), 4))))
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda x, *a, **k: shapes.append(np.shape(x)) or eigvalsh(x, *a, **k))
        qubit_discord_oracle(s, grid=20)
        assert any(len(shape) == 4 and shape[-2:] == (2, 2) for shape in shapes)


class TestDescentStopping:
    def test_iteration_cap_is_not_convergence(self, monkeypatch):
        s = bipartite(random_state(4, 4, seed=501).mat, 2, 2)
        full = discord(s, DiscordConfig(restarts=1))
        monkeypatch.setattr(classicality, "_MAX_ITERS", 1)
        capped = discord(s, DiscordConfig(restarts=1))
        assert not capped.converged
        assert full.converged
        assert full.value <= capped.value + 1e-12


def serial_discord(s, cfg=DiscordConfig()):
    """discord() as one restart after another: the reference for the lockstep search."""
    work = embed_state(s, s.d_a * s.d_a) if cfg.enlarge else s
    gap = _DephasingGap(work.mat, work.d_a, work.d_b)
    rng = np.random.default_rng(cfg.seed)
    best_val, best_u, best_ok, used = np.inf, None, False, 0
    for restart in range(cfg.restarts):
        u0 = (classicality._commuting_start(gap, cfg.seed) if restart == 0
              else haar_unitary(work.d_a, rng))
        (val,), (u,), (ok,) = _descend(gap, u0[np.newaxis], classicality._MAX_ITERS,
                                       cfg.step_tol)
        used += 1
        if val < best_val:
            best_val, best_u, best_ok = val, u, ok
        if best_val < _EARLY_STOP:
            break
    return _exact_gap(work, best_u), best_u, used, bool(best_ok or best_val < _EARLY_STOP)


def lockstep_cases():
    """(name, state, config, restarts_used range, restart 0 override or None)."""
    rng = np.random.default_rng(41)
    full = random_bipartite(2, 2, rng)
    rank2 = random_bipartite(3, 3, rng, rank=2)
    pure, _ = pure_state(3, 3, seed=42)
    # ROADMAP item-1 family: rho_A = I/4, so its eigenbasis is arbitrary; from
    # there (k = 70) the second restart reaches the early stop.
    rng = np.random.default_rng(70)
    u = haar_unitary(4, rng)
    item1 = assemble_cq(u, [0.25] * 4, [random_density(2, 1, rng) for _ in range(4)])
    # A cq state's exact basis, slightly rotated: the start's gap is above the
    # early stop, so the Haar starts are drawn, and restart 0 alone goes below it.
    near, basis, _, _ = random_cq_state_with_parts(3, 2, seed=45)
    tilted = basis @ expm(1e-4j * random_hermitian(3, np.random.default_rng(46)))
    return [
        ("full2x2", full, DiscordConfig(), (16, 16), None),
        ("rank2_3x3", rank2, DiscordConfig(), (16, 16), None),
        ("pure3x3", pure, DiscordConfig(), (16, 16), None),
        ("enlarge2x2", random_bipartite(2, 2, np.random.default_rng(8)),
         DiscordConfig(restarts=4, enlarge=True), (4, 4), None),
        # The exact start stops there after restart 0; restart 0 from the
        # rho_A eigenbasis keeps a mid-run early stop covered.
        ("item1_4x2", item1, DiscordConfig(), (2, 15),
         lambda gap, seed: np.linalg.eigh(gap.rho_a)[1]),
        ("near_exact3x2", near, DiscordConfig(), (1, 1), lambda gap, seed: tilted),
    ]


class TestLockstepSearch:
    @pytest.mark.parametrize("case", lockstep_cases(), ids=lambda c: c[0])
    def test_matches_serial_restarts(self, case, monkeypatch):
        name, s, cfg, (lo, hi), start = case
        if start is not None:
            assert discord(s, cfg).restarts_used == 1
            monkeypatch.setattr(classicality, "_commuting_start", start)
            # Above the early stop, restart 0 descends in one batch with the Haar starts.
            gap = _DephasingGap(s.mat, s.d_a, s.d_b)
            assert gap(start(gap, cfg.seed)) > _EARLY_STOP
        r = discord(s, cfg)
        value, basis, used, converged = serial_discord(s, cfg)
        assert lo <= r.restarts_used <= hi
        assert abs(r.value - value) <= 1e-12
        assert np.max(np.abs(r.best_basis - basis)) <= 1e-12
        assert r.restarts_used == used
        assert r.converged == converged

    @pytest.mark.parametrize("cq", [True, False])
    def test_one_descent_per_search(self, cq, monkeypatch):
        # A cq state's exact start descends alone and draws no Haar start; any
        # other state descends all its starts in one batch.
        calls, draws = [], []
        descend, haar = classicality._descend, classicality.haar_unitary
        monkeypatch.setattr(classicality, "_descend",
                            lambda obj, us, *a: calls.append(len(us)) or descend(obj, us, *a))
        monkeypatch.setattr(classicality, "haar_unitary",
                            lambda *a: draws.append(a) or haar(*a))
        rng = np.random.default_rng(47)
        s = random_cq_state(3, 2, seed=47) if cq else random_bipartite(3, 2, rng)
        r = discord(s, DiscordConfig(restarts=6))
        assert calls == ([1] if cq else [6])
        assert len(draws) == (0 if cq else 1)
        assert r.restarts_used == (1 if cq else 6)

    @pytest.mark.parametrize("max_iters", [20, 200])
    def test_stacked_rows_follow_single_descents(self, max_iters):
        # The starts stop at different iterations, so rows leave the active
        # set at different times; with max_iters=20 one of them hits the cap.
        rng = np.random.default_rng(43)
        gap = _DephasingGap(random_density(6, 6, rng), 3, 2)
        starts = haar_unitary(3, rng, 6)
        f, us, ok = _descend(gap, starts, max_iters, 1e-10)
        assert np.count_nonzero(ok) == (5 if max_iters == 20 else 6)
        for i, u0 in enumerate(starts):
            (f1,), (u1,), (ok1,) = _descend(gap, u0[np.newaxis], max_iters, 1e-10)
            assert abs(f[i] - f1) <= 1e-12
            assert np.max(np.abs(us[i] - u1)) <= 1e-12
            assert ok[i] == ok1

    @pytest.mark.parametrize("dim", [2, 3, 4, 9])
    def test_stacked_haar_draws_equal_sequential_draws(self, dim):
        rng = np.random.default_rng(44)
        sequential = np.array([haar_unitary(dim, rng) for _ in range(15)])
        stacked = haar_unitary(dim, np.random.default_rng(44), 15)
        assert np.array_equal(stacked, sequential)


def near_cq(d_a, d_b, k, eps):
    """random_cq_state plus eps H / ||H||, with H a seeded traceless Hermitian matrix."""
    d = d_a * d_b
    h = random_hermitian(d, np.random.default_rng([d, k]))
    h -= np.trace(h).real / d * np.eye(d)
    return bipartite(random_cq_state(d_a, d_b, seed=k).mat + eps * h / np.linalg.norm(h), d_a, d_b)


class TestFirstHitCut:
    # Restart 0's start is above the early stop, so the Haar starts join it,
    # and restart 0 alone goes below it: the starts after it can be cut.
    @pytest.mark.parametrize("d_a, d_b, k, eps", [(2, 2, 13, 1e-6), (2, 2, 11, 1e-5),
                                                  (3, 2, 26, 1e-7), (3, 2, 1, 1e-6)])
    def test_cut_evaluates_fewer_bases_for_the_same_result(self, d_a, d_b, k, eps, monkeypatch):
        s = near_cq(d_a, d_b, k, eps)
        gap = _DephasingGap(s.mat, d_a, d_b)
        assert gap(classicality._commuting_start(gap, 0)) > _EARLY_STOP
        counts = []
        batch, descend = _DephasingGap.batch, classicality._descend
        monkeypatch.setattr(_DephasingGap, "batch",
                            lambda self, us: counts.append(len(us)) or batch(self, us))
        cut = discord(s)
        cut_bases = sum(counts)
        counts.clear()
        monkeypatch.setattr(classicality, "_descend", lambda *args: descend(*args[:5]))
        uncut = discord(s)
        assert cut_bases < sum(counts)
        assert cut.restarts_used == uncut.restarts_used == 1
        assert cut.converged == uncut.converged
        assert cut.value == uncut.value
        assert np.array_equal(cut.best_basis, uncut.best_basis)

    @pytest.mark.parametrize("d_a, d_b, k, eps", [(2, 2, 13, 1e-6), (3, 2, 13, 1e-6)])
    def test_later_starts_leave_when_restart_0_crosses(self, d_a, d_b, k, eps, monkeypatch):
        # Restart 0 falls below the early stop mid-descent and keeps descending:
        # from that step on it is the only start left in the batch.
        s = near_cq(d_a, d_b, k, eps)
        gap = _DephasingGap(s.mat, d_a, d_b)
        path, sizes = [], []
        value_grad, batch = _DephasingGap.value_grad, _DephasingGap.batch

        def record_path(self, us):
            out = value_grad(self, us)
            path.extend(out[0])
            return out

        monkeypatch.setattr(_DephasingGap, "value_grad", record_path)
        _descend(gap, classicality._commuting_start(gap, 0)[np.newaxis],
                 classicality._MAX_ITERS, DiscordConfig().step_tol)
        monkeypatch.setattr(_DephasingGap, "value_grad", value_grad)
        crossed = int(np.argmax(np.array(path) < _EARLY_STOP))
        assert path[0] > _EARLY_STOP and 0 < crossed < len(path) - 1
        monkeypatch.setattr(_DephasingGap, "batch",
                            lambda self, us: sizes.append(len(us)) or batch(self, us))
        assert discord(s).restarts_used == 1
        ladder = len(classicality._LADDER)
        assert min(sizes[:crossed]) > ladder
        assert len(sizes) > crossed
        assert sizes[crossed:] == [ladder] * (len(sizes) - crossed)


def materialized_gap(s, basis):
    """I(rho) - I(D_basis(rho)) from the full dephased matrix, validated: the block gap's oracle."""
    return mutual_information(s) - mutual_information(
        bipartite(dephase(s, basis), s.d_a, s.d_b, tol=1e-8))


def exact_gap_cases():
    """(name, state, bases): Haar bases, plus the generating basis of the cq case."""
    rng = np.random.default_rng(60)
    states = {
        "2x2": random_bipartite(2, 2, rng),
        "3x2": random_bipartite(3, 2, rng),
        "3x3": random_bipartite(3, 3, rng),
        "4x4": random_bipartite(4, 4, rng),
        "rank1": random_bipartite(3, 3, rng, rank=1),
        "rank2": random_bipartite(3, 2, rng, rank=2),
        "d_b=1": random_bipartite(3, 1, rng),
        "embedded": embed_state(random_bipartite(2, 2, rng), 4),
    }
    cases = [(name, s, haar_unitary(s.d_a, rng, 4)) for name, s in states.items()]
    # One block probability of 1e-9, so part of that block's spectrum is under the cutoff.
    basis = haar_unitary(2, rng)
    tiny = assemble_cq(basis, [1e-9, 1.0 - 1e-9], [random_density(3, 3, rng) for _ in range(2)])
    cases.append(("tiny", tiny, np.concatenate([basis[np.newaxis], haar_unitary(2, rng, 3)])))
    return cases


class TestExactGap:
    @pytest.mark.parametrize("case", exact_gap_cases(), ids=lambda c: c[0])
    def test_matches_materialized_dephased_state(self, case):
        _, s, bases = case
        for u in bases:
            assert abs(_exact_gap(s, u) - materialized_gap(s, u)) <= 1e-12

    def test_non_unitary_basis_rejected(self):
        s = random_bipartite(2, 2, np.random.default_rng(61))
        with pytest.raises(NotUnitary):
            _exact_gap(s, np.array([[1.0, 0.0], [0.5, 1.0]]))


def _eig_calls(f, *args) -> int:
    """How many ``numpy.linalg.eigh``/``eigvalsh`` calls ``f(*args)`` makes."""
    solvers = (np.linalg.eigh, np.linalg.eigvalsh)
    codes, calls = {inspect.unwrap(g).__code__ for g in solvers}, 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code in codes

    sys.setprofile(profile)
    try:
        f(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestFixedCost:
    def test_eigensolver_budget_on_a_pure_state(self):
        # Two spectra for the objective's constant part, the commuting start's
        # eigh, one value_grad for it and one for the Haar starts (the flat
        # descent stops before its ladder), and the exact gap's two.
        s, _ = pure_state(3, 3, seed=62)
        assert _eig_calls(discord, s) == 7

    def test_repeated_calls_are_bitwise_identical(self):
        s = random_bipartite(3, 2, np.random.default_rng(63))
        first, second = discord(s), discord(s)
        assert first.value == second.value
        assert np.array_equal(first.best_basis, second.best_basis)
        assert (first.restarts_used, first.converged) == (second.restarts_used, second.converged)

    @pytest.mark.parametrize("d, seed, count", [(2, 0, 15), (3, 7, 5), (4, 1, 1)])
    def test_haar_starts_are_the_seeded_draws_and_read_only(self, d, seed, count):
        starts = classicality._haar_starts(d, seed, count)
        assert np.array_equal(starts, haar_unitary(d, np.random.default_rng(seed), count))
        assert classicality._haar_starts(d, seed, count) is starts
        assert not starts.flags.writeable
        assert not classicality._commuting_coefficient(d, seed).flags.writeable


def test_classicality_module_is_not_shadowed():
    assert isinstance(classicality, types.ModuleType)
    assert discordium.discord is classicality.discord


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, discordium; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(discordium.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


class TestQubitOracle:
    def test_cq_state_zero(self):
        s = random_cq_state(2, 2, seed=21)
        assert qubit_discord_oracle(s, grid=100) <= 1e-6

    def test_bell_state_value(self):
        assert abs(qubit_discord_oracle(bell_state(), grid=200) - 1.0) <= 2e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_with_optimizer(self, seed):
        s = bipartite(random_state(4, 4, seed=500 + seed).mat, 2, 2)
        r = discord(s, DiscordConfig(restarts=16))
        oracle = qubit_discord_oracle(s, grid=200)
        assert abs(r.value - oracle) <= 1e-3

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension, match="oracle requires d_a = 2, got 3"):
            qubit_discord_oracle(random_cq_state(3, 2, seed=0))

    @pytest.mark.parametrize("grid", [7, 0, -1])
    def test_coarse_grid_rejected(self, grid):
        with pytest.raises(BadConfig, match=f"grid must be >= 8, got {grid}"):
            qubit_discord_oracle(random_cq_state(2, 2, seed=0), grid=grid)

    def test_chunked_scan_matches_single_batch(self, monkeypatch):
        s = bipartite(random_state(4, 4, seed=510).mat, 2, 2)
        chunked = qubit_discord_oracle(s, grid=150)
        monkeypatch.setattr(classicality, "_ORACLE_CHUNK", 150 * 150)
        assert qubit_discord_oracle(s, grid=150) == chunked

    def test_runs_without_scipy(self):
        code = ("import sys; sys.modules['scipy'] = None\n"
                "import numpy as np\n"
                "from discordium import bipartite, qubit_discord_oracle\n"
                "v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)\n"
                "print(qubit_discord_oracle(bipartite(np.outer(v, v), 2, 2), grid=50))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(discordium.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert abs(float(out.stdout) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d_b, rank", [(2, None), (3, None), (2, 1), (2, 2)])
    def test_never_above_exact_gap_at_haar_bases(self, d_b, rank):
        # Every A basis is a projective measurement, so the oracle's minimum
        # over measurements is at most the gap at each basis, computed here by
        # the entropy path, which shares no code with the search.
        rng = np.random.default_rng(600 + 10 * d_b + (rank or 0))
        for _ in range(3):
            s = random_bipartite(2, d_b, rng, rank=rank)
            oracle = qubit_discord_oracle(s, grid=100)
            for u in haar_unitary(2, rng, 8):
                assert oracle <= _exact_gap(s, u) + 1e-12


def cq_ensemble_data(s, basis):
    """Conditional ensemble, root-overlap matrix, and weights at a basis."""
    rot = kron(basis.conj().T, np.eye(s.d_b))
    rotated = bipartite(rot @ s.mat @ rot.conj().T, s.d_a, s.d_b, tol=1e-8)
    ens = conditional_ensemble(rotated)
    rho_a = np.einsum("ibjb->ij", rotated.mat.reshape(s.d_a, s.d_b, s.d_a, s.d_b))
    sqrt_a = matrix_function_on_support(rho_a, np.sqrt)
    weights, eligible = equality_weights(sqrt_a, ens.probs)
    return ens, sqrt_a, weights, eligible


class TestPeeling:
    def test_distinct_states_all_extremal_first_round(self):
        rng = np.random.default_rng(1)
        basis = np.eye(3)
        probs = [0.5, 0.3, 0.2]
        parts = [random_density(2, 2, rng) for _ in range(3)]
        s = assemble_cq(basis, probs, parts)
        ens, sqrt_a, w, el = cq_ensemble_data(s, basis)
        trace = peel_extremal(ens, w, el)
        assert trace.rounds[0] == (0, 1, 2)
        assert trace.groups == ((0,), (1,), (2,))
        for a, a2 in trace.vanishing_pairs:
            assert abs(sqrt_a[a, a2]) <= 1e-10

    def test_all_equal_states_single_group(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, 2, rng)
        s = assemble_cq(haar_unitary(3, rng), [0.4, 0.35, 0.25], [rho, rho, rho])
        # Any basis keeps this state classical; use a fresh Haar basis mixing
        # everything, which still satisfies the equality identity.
        basis = haar_unitary(3, np.random.default_rng(3))
        ens, _, w, el = cq_ensemble_data(s, basis)
        trace = peel_extremal(ens, w, el)
        assert trace.groups == ((0, 1, 2),)
        assert trace.vanishing_pairs == ()
        assert trace.rounds == ((0, 1, 2),)

    def test_midpoint_state_peels_second(self):
        # rho_2 = (rho_0 + rho_1)/2 sits inside the hull: rounds must be
        # {0, 1} then {2}, with all three indices in distinct groups.
        rng = np.random.default_rng(4)
        r0 = random_density(2, 2, rng)
        r1 = random_density(2, 2, rng)
        r2 = 0.5 * (r0 + r1)
        basis = np.eye(3)
        s = assemble_cq(basis, [0.3, 0.3, 0.4], [r0, r1, r2])
        ens, _, w, el = cq_ensemble_data(s, basis)
        trace = peel_extremal(ens, w, el)
        assert trace.groups == ((0,), (1,), (2,))
        assert trace.rounds == ((0, 1), (2,))

    def test_not_at_equality_rejected(self):
        s = bell_state()
        ens, _, w, el = cq_ensemble_data(s, np.eye(2))
        # Bell conditional states are both I/2, but force a fake constraint
        # by marking rows eligible with wrong weights.
        w = np.array([[0.0, 0.0], [0.0, 0.0]])
        el = np.array([True, True])
        with pytest.raises(NotAtEquality):
            peel_extremal(ens, w, el)

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_residuals_at_mixed_equality_basis(self, seed):
        # Two equal conditional states; mixing their basis directions keeps
        # equality while making the convex identity non-vacuous.
        rng = np.random.default_rng(600 + seed)
        shared = random_density(2, 2, rng)
        other = random_density(2, 2, rng)
        u = haar_unitary(3, rng)
        s = assemble_cq(u, [0.45, 0.3, 0.25], [shared, shared, other])
        mix = np.eye(3, dtype=complex)
        angle = 0.3 + 0.2 * seed
        mix[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        basis = u @ mix
        ens, _, w, el = cq_ensemble_data(s, basis)
        residuals = equality_residuals(ens, w, el)
        assert np.any(el)
        assert np.nanmax(residuals) <= 1e-8


# ROADMAP item-1 families, state k built from default_rng(k): d_A, block
# probabilities, conditional-state rank, number of states. The repeated
# probabilities make rho_A degenerate, so its eigenbasis is an arbitrary start.
DEGENERATE_RHO_A_FAMILIES = {
    "4x2_equal_pure": (4, [0.25] * 4, 1, 200),
    "6x2_equal_pure": (6, [1 / 6] * 6, 1, 50),
    "4x2_unequal_full": (4, [0.2, 0.2, 0.2, 0.4], 2, 200),
}


@pytest.mark.parametrize("family", DEGENERATE_RHO_A_FAMILIES)
def test_degenerate_rho_a_family_certifies(family):
    d_a, probs, rank, n = DEGENERATE_RHO_A_FAMILIES[family]
    singletons = tuple((a,) for a in range(d_a))
    failures = []
    for k in range(n):
        rng = np.random.default_rng(k)
        s = assemble_cq(haar_unitary(d_a, rng), probs,
                        [random_density(2, rank, rng) for _ in range(d_a)])
        cert = certify_classical(s)
        r = discord(s)
        if not (isinstance(cert, ClassicalityCertificate) and cert.partition == singletons
                and r.value <= 1e-12 and r.converged and r.restarts_used == 1):
            failures.append(k)
    assert failures == []


class TestCertify:
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # tol = -1 would report the exact cq state NotClassical at a -6.7e-16 gap.
        with pytest.raises(BadConfig, match="tol must be >= 0"):
            certify_classical(random_cq_state(2, 2, seed=3), tol=tol)

    def test_enlarge_rejected(self):
        with pytest.raises(BadConfig, match="enlarge must be False"):
            certify_classical(random_cq_state(2, 2, seed=3), cfg=DiscordConfig(enlarge=True))

    def test_zero_tol_accepted(self):
        assert isinstance(certify_classical(random_cq_state(2, 2, seed=3), tol=0.0),
                          (ClassicalityCertificate, NotClassical))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_cq_certificate(self, seed):
        s, _, probs, parts = random_cq_state_with_parts(3, 2, seed=700 + seed)
        cert = certify_classical(s)
        assert isinstance(cert, ClassicalityCertificate)
        assert cert.residual <= 1e-7 * np.linalg.norm(s.mat)
        # Partition matches the generated parts after merging near-duplicates
        # (random parts are almost surely distinct, so all singletons).
        assert len(cert.partition) == 3
        got = sorted(
            [st.mat for st in cert.conditional_states],
            key=lambda m: float(np.trace(m @ m).real),
        )
        expected = sorted(parts, key=lambda m: float(np.trace(m @ m).real))
        for a, b in zip(got, expected):
            assert trace_distance(a, b) <= 1e-6

    def test_certificate_self_check(self):
        s = random_cq_state(2, 3, seed=31)
        cert = certify_classical(s)
        rot = kron(cert.basis.conj().T, np.eye(3))
        r = (rot @ s.mat @ rot.conj().T).reshape(2, 3, 2, 3)
        for a in range(2):
            for a2 in range(2):
                if a != a2:
                    assert np.linalg.norm(r[a, :, a2, :]) <= 1e-7 * np.linalg.norm(s.mat)

    def test_product_state_single_part(self):
        rng = np.random.default_rng(5)
        prod = kron(random_density(2, 2, rng), random_density(2, 2, rng))
        cert = certify_classical(bipartite(prod, 2, 2))
        assert isinstance(cert, ClassicalityCertificate)
        assert cert.partition == ((0, 1),)

    def test_repeated_conditional_state_grouped(self):
        rng = np.random.default_rng(6)
        shared = random_density(2, 2, rng)
        other = random_density(2, 2, rng)
        s = assemble_cq(haar_unitary(3, rng), [0.3, 0.3, 0.4], [shared, shared, other])
        cert = certify_classical(s)
        assert isinstance(cert, ClassicalityCertificate)
        sizes = sorted(len(p) for p in cert.partition)
        assert sizes == [1, 2]

    def test_bell_state_not_classical(self):
        outcome = certify_classical(bell_state())
        assert isinstance(outcome, NotClassical)
        assert abs(outcome.value - 1.0) <= 2e-3
        assert outcome.residual > 0.1

    @pytest.mark.parametrize("eps", [3e-12, 1e-11, 1e-9])
    def test_near_zero_probability_block(self, eps):
        # Probabilities below the support cutoff of rho_A drop out of the
        # partition instead of producing empty group projectors.
        rng = np.random.default_rng(9)
        parts = [random_density(2, 2, rng) for _ in range(3)]
        s = assemble_cq(np.eye(3), [0.6, 0.4 - eps, eps], parts)
        cert = certify_classical(s)
        assert isinstance(cert, ClassicalityCertificate)
        assert len(cert.partition) in (2, 3)
        assert cert.residual <= 1e-7 * np.linalg.norm(s.mat)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 3)])
    def test_polish_sharpens_perturbed_basis(self, dims):
        # The search lands close enough that certification rarely polishes,
        # so drive the polish directly from a basis rotated off the exact one.
        s, basis, _, _ = random_cq_state_with_parts(*dims, seed=41)
        start = basis @ expm(1e-6j * random_hermitian(dims[0], np.random.default_rng(42)))
        assert np.max(_offdiag_norms(s.mat, start, s.d_b)) > 1e-8
        polished = _polish_basis(s, start)
        assert np.max(_offdiag_norms(s.mat, polished, s.d_b)) <= 1e-10
        assert np.abs(polished.conj().T @ polished - np.eye(dims[0])).max() <= 1e-12

    def test_witness_for_generic_entangled_state(self):
        s = bipartite(random_state(4, 4, seed=77).mat, 2, 2)
        outcome = certify_classical(s)
        assert isinstance(outcome, NotClassical)
        assert outcome.value > 1e-4
