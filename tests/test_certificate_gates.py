"""Every CertificateInconsistent gate of certify_classical, driven by chosen inputs.

Generic states stop at the first gate ("peeling rejected"), so the later
gates are reached by patching in a chosen discord basis, a chosen peeling
trace or, for the final ensemble, a chosen undefined index.
"""

import re

import numpy as np
import pytest

import discordium.classicality as classicality
from conftest import random_density
from discordium.classicality import (
    DiscordResult,
    PeelingTrace,
    certify_classical,
    equality_residuals,
    equality_weights,
)
from discordium.errors import CertificateInconsistent
from discordium.linalg import matrix_function_on_support, partial_trace
from discordium.states import (
    ConditionalEnsemble,
    assemble_cq,
    bipartite,
    conditional_ensemble,
    in_basis,
    random_state,
)


def cq_state(probs, same=(), seed=0):
    """A 3x2 cq state in the standard A basis; indices in ``same`` share one B state."""
    rng = np.random.default_rng(seed)
    parts = [random_density(2, 2, rng) for _ in probs]
    for a in same[1:]:
        parts[a] = parts[same[0]]
    return assemble_cq(np.eye(len(probs)), probs, parts)


def mixing_basis(angle=0.4):
    """Rotates A indices 1 and 2 into each other and leaves index 0 alone."""
    u = np.eye(3, dtype=complex)
    u[1:, 1:] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return u


def fail(monkeypatch, s, basis=None, groups=None, pairs=(), tol=1e-6):
    """Run certify_classical with the chosen basis and trace; return the failure message."""
    if basis is not None:
        monkeypatch.setattr(classicality, "discord",
                            lambda s, cfg: DiscordResult(0.0, basis, False, 1, True))
    if groups is not None:
        trace = PeelingTrace(groups=groups, rounds=(), vanishing_pairs=pairs,
                             eq_residuals=np.full(s.d_a, np.nan))
        monkeypatch.setattr(classicality, "peel_extremal", lambda ens, w, el: trace)
    with pytest.raises(CertificateInconsistent) as info:
        certify_classical(s, tol=tol)
    return str(info.value)


def root_of_rho_a(s, basis):
    rho_a = partial_trace(in_basis(s, basis).mat, s.d_a, s.d_b)
    return matrix_function_on_support(rho_a, np.sqrt)


@pytest.mark.parametrize("seed", range(3))
def test_peeling_rejected_names_worst_row(monkeypatch, seed):
    s = bipartite(random_state(6, seed=40 + seed).mat, 3, 2)
    msg = fail(monkeypatch, s, tol=10.0)
    basis = classicality.discord(s).best_basis
    sqrt_a = root_of_rho_a(s, basis)
    ens = conditional_ensemble(in_basis(s, basis), zero_prob_cutoff=1e-10)
    residuals = equality_residuals(ens, *equality_weights(sqrt_a, ens.probs))
    assert msg.startswith("peeling rejected the discord-zero basis: identity residual ")
    assert f" at index {np.nanargmax(residuals)} exceeds 1.0e-05" in msg


def test_cross_term(monkeypatch):
    s, u = cq_state([0.5, 0.3, 0.2]), mixing_basis()
    msg = fail(monkeypatch, s, u, ((0,), (1,), (2,)), pairs=((0, 1), (0, 2), (1, 2)))
    overlap = abs(root_of_rho_a(s, u)[1, 2])
    assert overlap > 1e-4
    assert msg == (f"cross term |<1|rho_A^(1/2)|2>| = {overlap:.3e} "
                   "should vanish but exceeds 1.0e-04")


def test_projector_overlap(monkeypatch):
    s, u = cq_state([0.5, 0.3, 0.2]), mixing_basis()
    msg = fail(monkeypatch, s, u, ((0,), (1,), (2,)))
    r = root_of_rho_a(s, u)
    cross = np.linalg.norm(np.outer(r[:, 1], r[1]) @ np.outer(r[:, 2], r[2]))
    m = re.fullmatch(r"group projectors 1 and 2 overlap: \|\|P_i P_j\|\| = (\S+)", msg)
    assert m and abs(float(m[1]) - cross) <= 1e-3 * cross


def test_empty_projector_support(monkeypatch):
    s = cq_state([0.6, 0.4, 0.0])
    msg = fail(monkeypatch, s, np.eye(3), ((0,), (1,), (2,)))
    assert msg == "group projector 2 has numerically empty support"


def test_dependent_group_eigenvectors(monkeypatch):
    # ||P_0 P_1|| ~ 1e-9 passes the overlap gate, but the two supports give
    # three eigenvectors in dimension 2.
    msg = fail(monkeypatch, cq_state([1 - 1e-9, 1e-9]), np.eye(2), ((0, 1), (1,)))
    assert msg == "group eigenvectors are not linearly independent"


def test_no_groups(monkeypatch):
    msg = fail(monkeypatch, cq_state([0.5, 0.3, 0.2]), np.eye(3), ())
    assert msg == "no supported group projectors found"


def test_offdiagonal_residual(monkeypatch):
    # One group of everything: the basis diagonalizes rho_A only.
    s = bipartite(random_state(6, seed=3).mat, 3, 2)
    msg = fail(monkeypatch, s, groups=((0, 1, 2),), tol=10.0)
    m = re.fullmatch(r"off-diagonal residual (\S+) exceeds (\S+) in the extracted basis", msg)
    assert m and float(m[1]) > float(m[2]) == float(f"{1e-7 * np.linalg.norm(s.mat):.3e}")


def test_states_inside_part_differ(monkeypatch):
    msg = fail(monkeypatch, cq_state([0.5, 0.3, 0.2]), np.eye(3), ((0,), (1, 2)))
    assert msg == "conditional states inside part (1, 2) differ beyond 1.0e-06"


def test_parts_with_equal_states(monkeypatch):
    msg = fail(monkeypatch, cq_state([0.5, 0.3, 0.2], same=(1, 2)), np.eye(3),
               ((0,), (1,), (2,)))
    m = re.fullmatch(r"parts 1 and 2 carry equal conditional states \(distance (\S+)\); "
                     r"grouping is inconsistent", msg)
    assert m and float(m[1]) <= 1e-6


def test_vanishing_probability(monkeypatch):
    # A supported projector eigenvector w has <w|rho_A|w> >= <w|P|w> above the
    # support cutoff, so the final ensemble is patched to drop index 1.
    calls = []

    def drop_one(s, zero_prob_cutoff):
        ens = conditional_ensemble(s, zero_prob_cutoff=zero_prob_cutoff)
        calls.append(ens)
        if len(calls) == 2:
            ens = ConditionalEnsemble(ens.probs, ens.states * [[[1]], [[0]], [[1]]])
        return ens

    monkeypatch.setattr(classicality, "conditional_ensemble", drop_one)
    msg = fail(monkeypatch, cq_state([0.5, 0.3, 0.2]))
    assert len(calls) == 2
    assert msg == "certified index 1 has vanishing probability"
