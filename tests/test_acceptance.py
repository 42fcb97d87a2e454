"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
alongside the pytest output. Every tolerance is pinned here, not computed.
"""

import time

import numpy as np

from conftest import (
    bell_state,
    random_bipartite,
    random_channel,
    random_density,
    random_full_povm,
    random_rank1_povm,
)
from discordium.channels import (
    apply_matrix,
    coarse_grain_channel,
    dephase,
    isometry_to_povm,
    is_extremal,
    measurement_map,
    povm,
    povm_to_isometry,
    projective_povm,
    refine_to_rank_one,
)
from discordium.counterexample import run_counterexample
from discordium.classicality import (
    ClassicalityCertificate,
    DiscordConfig,
    NotClassical,
    certify_classical,
    discord,
    equality_residuals,
    equality_weights,
    qubit_discord_oracle,
)
from discordium.linalg import kron, matrix_function_on_support, trace_distance
from discordium.measures import mutual_information
from discordium.petz import apply_petz, build_petz, recovery_residual
from discordium.states import (
    assemble_cq,
    bipartite,
    conditional_ensemble,
    haar_unitary,
    random_cq_state_with_parts,
    random_state,
    validate_density,
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_entropy_counterexample():
    t0 = time.perf_counter()
    first, second = run_counterexample()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(first.original_entropy - 1.7555) <= 5e-4
        and abs(first.modified_entropy - 1.7546) <= 5e-4
        and first.entropy_delta < 0.0
        and second.entropy_delta < 0.0
        and elapsed < 1.0
    )
    verdict(
        "1 entropy counterexample",
        ok,
        f"S={first.original_entropy:.4f} -> {first.modified_entropy:.4f} / "
        f"{second.modified_entropy:.4f}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_cq_states_certify():
    t0 = time.perf_counter()
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst_value = 0.0
    worst_residual_ratio = 0.0
    count = 0
    for d_a, d_b in combos:
        for k in range(25):
            seed = 10_000 + 97 * count
            s, _, _, _ = random_cq_state_with_parts(d_a, d_b, seed=seed)
            result = discord(s)
            worst_value = max(worst_value, result.value)
            cert = certify_classical(s)
            assert isinstance(cert, ClassicalityCertificate), (d_a, d_b, seed)
            ratio = cert.residual / (1e-7 * np.linalg.norm(s.mat))
            worst_residual_ratio = max(worst_residual_ratio, ratio)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_value <= 1e-6 and worst_residual_ratio <= 1.0 and elapsed < 300.0
    verdict(
        "2 forward direction (100 cq states)",
        ok,
        f"max discord {worst_value:.2e}, max residual ratio "
        f"{worst_residual_ratio:.2f}, {elapsed:.1f} s",
    )


def test_criterion_3_generic_states_not_classical():
    worst = np.inf
    for k in range(100):
        s = bipartite(random_state(4, 4, seed=20_000 + k).mat, 2, 2)
        result = discord(s)
        worst = min(worst, result.value)
        outcome = certify_classical(s)
        assert isinstance(outcome, NotClassical), k
    ok = worst > 1e-4
    verdict(
        "3 converse direction (100 generic 2-qubit states)",
        ok,
        f"min discord {worst:.2e}",
    )


def test_criterion_4_petz_fixed_point_and_equality():
    rng = np.random.default_rng(4242)
    worst_fix = 0.0
    dims = [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2), (4, 4, 2)]
    for k in range(50):
        in_dim, out_dim, n_kraus = dims[k % len(dims)]
        ch = random_channel(in_dim, out_dim, n_kraus, rng)
        sigma = validate_density(random_density(in_dim, in_dim, rng))
        pm = build_petz(ch, sigma)
        recovered = apply_petz(pm, apply_matrix(ch, sigma.mat))
        worst_fix = max(worst_fix, trace_distance(recovered, sigma.mat))

    worst_res = 0.0
    worst_gap = 0.0
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    for k in range(50):
        d_a, d_b = combos[k % len(combos)]
        s, basis, _, _ = random_cq_state_with_parts(d_a, d_b, seed=30_000 + k)
        worst_res = max(worst_res, recovery_residual(s, basis))
        gap = mutual_information(s) - mutual_information(
            bipartite(dephase(s, basis), d_a, d_b, tol=1e-8)
        )
        worst_gap = max(worst_gap, abs(gap))
    ok = worst_fix <= 1e-9 and worst_res <= 1e-9 and worst_gap <= 1e-9
    verdict(
        "4 recovery fixed point and equality case",
        ok,
        f"max fixed-point {worst_fix:.2e}, max reconstruction {worst_res:.2e}, "
        f"max gap {worst_gap:.2e}",
    )


def test_criterion_5_data_processing_inequality():
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = -np.inf
    for k in range(200):
        rng = np.random.default_rng(40_000 + k)
        d_a, d_b = combos[k % len(combos)]
        s = random_bipartite(d_a, d_b, rng)
        basis = haar_unitary(d_a, rng)
        dephased = bipartite(dephase(s, basis), d_a, d_b, tol=1e-8)
        worst = max(worst, mutual_information(dephased) - mutual_information(s))
    ok = worst <= 1e-9
    verdict(
        "5 data processing inequality (200 pairs)",
        ok,
        f"max I(D(rho)) - I(rho) = {worst:.2e}",
    )


def test_criterion_6_measurement_machinery():
    rng = np.random.default_rng(606)

    # Refine then coarse-grain reproduces the measurement map on a spanning set.
    worst_compose = 0.0
    for _ in range(5):
        dim = int(rng.integers(2, 4))
        p = random_full_povm(dim, int(rng.integers(2, 5)), rng)
        r = refine_to_rank_one(p)
        grouped = coarse_grain_channel(r)
        fine = measurement_map(r.fine)
        coarse = measurement_map(p)
        for j in range(dim):
            for k in range(dim):
                e = np.zeros((dim, dim), dtype=complex)
                e[j, k] = 1.0
                h = 0.5 * (e + e.conj().T) if j <= k else 0.5j * (e - e.conj().T)
                diff = apply_matrix(grouped, apply_matrix(fine, h)) - apply_matrix(coarse, h)
                worst_compose = max(worst_compose, float(np.max(np.abs(diff))))

    # Extremality classifications.
    extremal_ok = True
    for dim in (2, 3):
        proj = projective_povm(haar_unitary(dim, rng))
        extremal_ok &= is_extremal(proj).extremal
        other = projective_povm(haar_unitary(dim, rng))
        mix = povm([0.5 * a + 0.5 * b for a, b in zip(proj.effects, other.effects)])
        extremal_ok &= not is_extremal(mix).extremal

    # Rank-one POVM <-> isometry round trip (phase-fixed, so exact).
    worst_round = 0.0
    for _ in range(5):
        p = random_rank1_povm(2, 4, rng)
        back = isometry_to_povm(povm_to_isometry(p), labels=p.labels)
        for a, b in zip(p.effects, back.effects):
            worst_round = max(worst_round, float(np.max(np.abs(np.asarray(a) - np.asarray(b)))))

    # Statistics equivalence on 50 random cases.
    worst_stats = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        p = random_rank1_povm(dim, dim * dim, rng)
        iota = povm_to_isometry(p)
        rho = random_density(dim, dim, rng)
        direct = np.array([np.trace(e @ rho).real for e in p.effects])
        embedded = np.diag(iota @ rho @ iota.conj().T).real
        worst_stats = max(worst_stats, float(np.max(np.abs(direct - embedded))))

    ok = (
        worst_compose <= 1e-10
        and extremal_ok
        and worst_round <= 1e-10
        and worst_stats <= 1e-12
    )
    verdict(
        "6 measurement machinery",
        ok,
        f"compose {worst_compose:.2e}, extremality {extremal_ok}, "
        f"round-trip {worst_round:.2e}, statistics {worst_stats:.2e}",
    )


def test_criterion_7_optimizer_matches_oracle():
    worst = 0.0
    for k in range(30):
        s = bipartite(random_state(4, 4, seed=50_000 + k).mat, 2, 2)
        value = discord(s, DiscordConfig(restarts=16)).value
        oracle = qubit_discord_oracle(s, grid=400)
        worst = max(worst, abs(value - oracle))
    bell_value = discord(bell_state(), DiscordConfig(restarts=16)).value
    ok = worst <= 1e-3 and abs(bell_value - 1.0) <= 2e-3
    verdict(
        "7 optimizer vs Bloch-grid oracle (30 states)",
        ok,
        f"max |discord - oracle| = {worst:.2e}, Bell = {bell_value:.6f}",
    )


def test_criterion_8_convex_combination_identity():
    worst = 0.0
    n_constraints = 0

    def check(s, basis):
        nonlocal worst, n_constraints
        rot = kron(basis.conj().T, np.eye(s.d_b))
        rotated = bipartite(rot @ s.mat @ rot.conj().T, s.d_a, s.d_b, tol=1e-8)
        ens = conditional_ensemble(rotated)
        rho_a = np.einsum(
            "ibjb->ij", rotated.mat.reshape(s.d_a, s.d_b, s.d_a, s.d_b)
        )
        sqrt_a = matrix_function_on_support(rho_a, np.sqrt)
        weights, eligible = equality_weights(sqrt_a, ens.probs)
        residuals = equality_residuals(ens, weights, eligible)
        for a in range(s.d_a):
            if eligible[a]:
                worst = max(worst, residuals[a])
                n_constraints += 1

    # Plain cq states at their generating bases.
    for k in range(25):
        s, basis, _, _ = random_cq_state_with_parts(3, 2, seed=60_000 + k)
        check(s, basis)

    # Repeated conditional states at bases mixed inside the repeated pair,
    # which keep equality while making the identity rows non-vacuous.
    for k in range(25):
        rng = np.random.default_rng(70_000 + k)
        shared = random_density(2, 2, rng)
        other = random_density(2, 2, rng)
        u = haar_unitary(3, rng)
        s = assemble_cq(u, rng.dirichlet(np.ones(3)), [shared, shared, other])
        angle = float(rng.uniform(0.2, 1.3))
        mix = np.eye(3, dtype=complex)
        mix[:2, :2] = [
            [np.cos(angle), -np.sin(angle)],
            [np.sin(angle), np.cos(angle)],
        ]
        check(s, u @ mix)

    ok = n_constraints > 0 and worst <= 1e-8
    verdict(
        "8 convex-combination identity",
        ok,
        f"max residual {worst:.2e} over {n_constraints} constrained rows",
    )
