"""The benchmark workloads: inputs, the timed operation, and its check.

Each workload builds a fixed operation set from the seed: one round of
operation kinds, repeated ``max(1, round(seconds / round_seconds))`` times,
where ``round_seconds`` is the round's wall time, checks included, as
measured on a 2-core x86_64 VM (Python 3.11, numpy 2.4, scipy 1.17).
``run`` is the timed region; ``check`` runs outside it and raises
:class:`Failed` on a wrong outcome. The ``tr`` argument is the tracer: in
the untraced run its spans cost one shared no-op context manager.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import fixtures as fx
from tracing import NullTracer


class Failed(Exception):
    """An operation's outcome failed its check."""


@dataclass
class Op:
    kind: str
    data: dict


_NULL_TRACER = NullTracer()


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


class Workload:
    name = ""
    kinds: dict = {}
    round_seconds = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_ops(self, seconds: float) -> list:
        rounds = max(1, round(seconds / self.round_seconds))
        rng = fx.rng_for(self.seed, self.name)
        pattern = fx.interleave(self.kinds)
        return [self.make(kind, rng) for _ in range(rounds) for kind in pattern]

    def fixture_bytes(self, ops: list) -> bytes:
        """Every input the library will see, serialized, for the self-test."""
        h = hashlib.sha256()
        for op in ops:
            h.update(op.kind.encode())
            for key in sorted(op.data):
                value = op.data[key]
                h.update(key.encode())
                if isinstance(value, np.ndarray):
                    h.update(np.ascontiguousarray(value).tobytes())
                elif isinstance(value, list) and value and isinstance(value[0], np.ndarray):
                    for v in value:
                        h.update(np.ascontiguousarray(v).tobytes())
                else:
                    h.update(repr(value).encode())
        return h.digest()

    def make(self, kind: str, rng: np.random.Generator) -> Op:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op, tr):
        raise NotImplementedError

    def check(self, op: Op, out, tr) -> None:
        raise NotImplementedError

    def trace_op(self, op: Op, out, tr) -> dict:
        """Traced run only: replays and deterministic counters for one op."""
        return {}

    def probes(self) -> dict:
        """Traced run only: per-layer figures measured outside the op set."""
        return {}

    def trace_extras(self) -> list:
        """Traced run only: ``(workload, ops)`` pairs run after the op set."""
        return []


# ---------------------------------------------------------------------------
# discord-generic
# ---------------------------------------------------------------------------


class DiscordGeneric(Workload):
    """bipartite() then discord() at the default config on generic states.

    No restart stops early on these inputs, so the Powell search does nearly
    all of the work.
    """

    name = "discord-generic"
    # Three quarters of the operations are pure 3x3 states, whose search
    # cost varies least between inputs (a full-rank 2x2 search now and then
    # takes four times its median), so the median, op_tail_ms (the
    # 11th-slowest) and the mean behind ops_per_s all move little with the
    # seed. A full-rank 3x3 search takes about 6.5 s, and one of them would
    # swing ops_per_s with its input, so that kind runs once per traced run
    # only (see trace_extras).
    kinds = {"full2x2": 1, "pure3x3": 3}
    round_seconds = 4.3

    def make(self, kind, rng):
        dims = {"full2x2": (2, 2, 4), "pure3x3": (3, 3, 1), "full3x3": (3, 3, 9)}[kind]
        d_a, d_b, rank = dims
        return Op(kind, {"mat": fx.density(rng, d_a * d_b, rank), "d_a": d_a, "d_b": d_b})

    def warmup(self):
        from discordium import bipartite, discord
        # A product state: zero discord, so the first restart stops the search.
        prod = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
        discord(bipartite(prod, 2, 2))

    def run(self, op, tr):
        from discordium import bipartite, discord
        d = op.data
        with tr.span("states.bipartite"):
            s = bipartite(d["mat"], d["d_a"], d["d_b"])
        with tr.span("discord.search", count_eig=True):
            return s, discord(s)

    def check(self, op, out, tr):
        from discordium import qubit_discord_oracle
        s, result = out
        d = op.data
        value = result.value
        _require(np.isfinite(value) and value >= -1e-9, f"value {value!r} is negative")
        if op.kind == "full2x2":
            with tr.span("discord.oracle"):
                oracle = qubit_discord_oracle(s, grid=400)
            _require(abs(value - oracle) <= 1e-3,
                     f"|discord - oracle| = {abs(value - oracle):.2e} > 1e-3")
        elif op.kind == "pure3x3":
            exact = fx.entropy_bits(fx.reduce_a(d["mat"], 3, 3))
            _require(abs(value - exact) <= 1e-6,
                     f"pure state: |discord - S(rho_A)| = {abs(value - exact):.2e} > 1e-6")
        else:
            _, vecs = np.linalg.eigh(fx.reduce_a(d["mat"], 3, 3))
            upper = fx.dephasing_gap(d["mat"], 3, 3, vecs)
            _require(value <= upper + 1e-9,
                     f"discord {value:.6e} above the gap {upper:.6e} at the rho_A eigenbasis")

    def trace_op(self, op, out, tr):
        return {"restarts": out[1].restarts_used}

    def trace_extras(self):
        rng = fx.rng_for(self.seed, self.name + "/trace")
        return [(self, [self.make("full3x3", rng)])]


# ---------------------------------------------------------------------------
# certify-cq
# ---------------------------------------------------------------------------

# Off-diagonal certificate residual allowed, relative to ||rho||_F (the
# library's documented certificate contract) and the trace distance within
# which a certified conditional state must match the generating one.
_CERT_RESIDUAL = 1e-7
_STATE_MATCH = 1e-6


class CertifyCq(Workload):
    """bipartite() then certify_classical() on classical-quantum states.

    ``plain`` states stop after the first restart (from the rho_A
    eigenbasis), so certificate extraction dominates. ``rep`` states repeat
    one conditional B state. ``tiny`` states give one index probability
    1e-9 with a conditional state whose smallest eigenvalue is below 0.08,
    so part of that block's spectrum falls under the 1e-10 support cutoff:
    the search's internal gap stays above its 1e-10 early stop at the exact
    basis and all 16 restarts run, which makes them the slowest kind and
    the least variable one. Two rounds hold 14 of them, so op_tail_ms (the
    11th-slowest operation) falls inside that group. Plain 2x2 states take
    13-240 ms, so the median needs many of them: they are 84% of the
    operations and the median sits near their own.
    """

    name = "certify-cq"
    kinds = {
        "tiny2x2": 7,
        "plain2x2": 75, "plain3x3": 2, "plain4x4": 1, "plain6x4": 1,
        "rep3x2": 2, "rep3x3": 1,
    }
    round_seconds = 15.0

    def make(self, kind, rng):
        family, dims = kind[:-3], kind[-3:]
        d_a, d_b = int(dims[0]), int(dims[2])
        basis = fx.haar(rng, d_a)
        probs = rng.dirichlet(np.ones(d_a))
        b_states = [fx.density(rng, d_b, d_b) for _ in range(d_a)]
        if family == "rep":
            b_states[1] = b_states[0]
        if family == "tiny":
            low = rng.uniform(0.01, 0.08)
            spectrum = [low, *((1.0 - low) * rng.dirichlet(np.ones(d_b - 1)))]
            b_states[0] = fx.density_with_spectrum(rng, spectrum)
            probs = np.concatenate([[1e-9], (1.0 - 1e-9) * probs[1:] / probs[1:].sum()])
        return Op(kind, {
            "mat": fx.cq_matrix(basis, probs, b_states), "d_a": d_a, "d_b": d_b,
            "b_states": b_states,
        })

    def warmup(self):
        from discordium import bipartite, certify_classical
        basis = np.eye(2, dtype=complex)
        b = [np.diag([0.8, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
        certify_classical(bipartite(fx.cq_matrix(basis, [0.6, 0.4], b), 2, 2))

    def run(self, op, tr):
        from discordium import bipartite, certify_classical
        d = op.data
        with tr.span("states.bipartite"):
            s = bipartite(d["mat"], d["d_a"], d["d_b"])
        with tr.span("discord.certify"):
            return s, certify_classical(s)

    def expected_part_sizes(self, op) -> list:
        return [2, 1] if op.kind.startswith("rep3") else [1] * op.data["d_a"]

    def check(self, op, out, tr):
        from discordium import ClassicalityCertificate
        _, cert = out
        d = op.data
        _require(isinstance(cert, ClassicalityCertificate),
                 f"cq state returned {type(cert).__name__}")
        mat, d_a, d_b = d["mat"], d["d_a"], d["d_b"]
        defect = fx.unitarity_defect(cert.basis)
        _require(defect <= 1e-9, f"certificate basis unitarity defect {defect:.2e}")
        residual = fx.offdiag_residual(mat, d_a, d_b, cert.basis)
        limit = _CERT_RESIDUAL * float(np.linalg.norm(mat))
        _require(residual <= limit, f"off-diagonal residual {residual:.2e} > {limit:.2e}")
        sizes = sorted((len(p) for p in cert.partition), reverse=True)
        _require(sizes == self.expected_part_sizes(op),
                 f"partition sizes {sizes}, expected {self.expected_part_sizes(op)}")
        for st in cert.conditional_states:
            best = min(fx.trace_dist(st.mat, b) for b in d["b_states"])
            _require(best <= _STATE_MATCH,
                     f"certified conditional state {best:.2e} from every generating state")

    def trace_op(self, op, out, tr):
        """Replays the search and the extraction steps outside the timed op.

        ``discord()`` with the same config is deterministic, so its replay
        costs what the search inside ``certify_classical`` cost.
        """
        from discordium import (
            DiscordConfig, bipartite, conditional_ensemble, discord,
            equality_weights, matrix_function_on_support, peel_extremal,
        )
        from discordium.linalg import support_cutoff
        from discordium.states import ZERO_PROB_CUTOFF
        s, cert = out
        d_a, d_b = s.d_a, s.d_b
        with tr.span("discord.certify_search", count_eig=True):
            result = discord(s, DiscordConfig())
        u = result.best_basis
        rotated = fx.rotate_a(s.mat, d_a, d_b, u).reshape(s.mat.shape)
        rs = bipartite(0.5 * (rotated + rotated.conj().T), d_a, d_b, tol=1e-8)
        rho_a = fx.reduce_a(rs.mat, d_a, d_b)
        cutoff = max(ZERO_PROB_CUTOFF, support_cutoff(np.linalg.eigvalsh(rho_a)))
        with tr.span("states.conditional_ensemble"):
            ens = conditional_ensemble(rs, zero_prob_cutoff=cutoff)
        with tr.span("linalg.sqrt_on_support"):
            sqrt_a = matrix_function_on_support(rho_a, np.sqrt)
        with tr.span("discord.peel"):
            weights, eligible = equality_weights(sqrt_a, ens.probs)
            peel_extremal(ens, weights, eligible)
        return {
            "restarts": result.restarts_used,
            "partition": sorted(len(p) for p in cert.partition),
        }


# ---------------------------------------------------------------------------
# recovery-measure
# ---------------------------------------------------------------------------

_PETZ_DIMS = [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2), (4, 4, 2), (6, 4, 2)]
_BIPARTITE_DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (6, 4)]
_POVM_DIMS = [(2, 2), (2, 4), (3, 3), (4, 2)]


def _tag(dims) -> str:
    return "x".join(str(d) for d in dims)


# The residual and DPI checks up to 3x3 cost within about 20% of one
# another; counting them twice puts the median in the middle of that
# cluster instead of in the gap above it.
_SMALL_KINDS = {
    **{f"petz:{_tag(x)}": 1 for x in _PETZ_DIMS},
    **{f"residual:{_tag(x)}": 1 + (max(x) <= 3) for x in _BIPARTITE_DIMS},
    **{f"dpi:{_tag(x)}": 1 + (max(x) <= 3) for x in _BIPARTITE_DIMS},
    **{f"measure:{_tag(x)}": 1 for x in _POVM_DIMS},
}
# One recovery residual at 12x12 (144-dim states, about 16 ms, nearly all
# of it the kron rotation) per 28 rounds of the small kinds: about 23 per
# run, so op_tail_ms (the 11th-slowest operation) falls in the middle of
# that group rather than among the rare host stalls that slow one of the
# 20k small operations.
_LARGE = (12, 12)
_SMALL_ROUNDS = 28


class RecoveryMeasure(Workload):
    """Criteria 4-6 in volume: Petz fixed points, block reconstruction
    residuals, the dephasing data-processing inequality and the POVM
    machinery. No optimizer runs: validation, kron rotations and matrix
    functions do the work.
    """

    name = "recovery-measure"
    kinds = {
        **{k: _SMALL_ROUNDS * n for k, n in _SMALL_KINDS.items()},
        f"residual:{_tag(_LARGE)}": 1,
    }
    round_seconds = 1.3

    def make(self, kind, rng):
        family, tag = kind.split(":")
        dims = tuple(int(x) for x in tag.split("x"))
        if family == "petz":
            in_dim, out_dim, n = dims
            return Op(kind, {
                "kraus": fx.kraus_channel(rng, in_dim, out_dim, n),
                "sigma": fx.density(rng, in_dim, in_dim), "in_dim": in_dim, "out_dim": out_dim,
            })
        if family == "measure":
            dim, n = dims
            return Op(kind, {"effects": fx.full_rank_povm(rng, dim, n),
                             "basis": fx.haar(rng, dim), "dim": dim})
        d_a, d_b = dims
        if family == "residual":
            basis = fx.haar(rng, d_a)
            probs = rng.dirichlet(np.ones(d_a))
            b_states = [fx.density(rng, d_b, d_b) for _ in range(d_a)]
            mat = fx.cq_matrix(basis, probs, b_states)
        else:
            mat = fx.density(rng, d_a * d_b, d_a * d_b)
            basis = fx.haar(rng, d_a)
        return Op(kind, {"mat": mat, "basis": basis, "d_a": d_a, "d_b": d_b})

    def warmup(self):
        rng = fx.rng_for(0, "warmup")
        for kind in self.kinds:
            op = self.make(kind, rng)
            self.check(op, self.run(op, _NULL_TRACER), _NULL_TRACER)

    def trace_extras(self):
        """The CLI round trip, so the traced run also covers ``cli``."""
        cli = CliRoundtrip(self.seed, self.workdir)
        cli.warmup()
        return [(cli, cli.make_ops(cli.round_seconds))]

    def run(self, op, tr):
        from discordium import (
            KrausChannel, apply_matrix, apply_petz, bipartite, build_petz,
            coarse_grain_channel, dephase, is_extremal, measurement_map,
            mutual_information, povm, projective_povm, recovery_residual,
            refine_to_rank_one, trace_distance, validate_density,
        )
        d = op.data
        family = op.kind.split(":")[0]
        if family == "petz":
            with tr.span("channels.validate"):
                ch = KrausChannel(kraus_ops=tuple(d["kraus"]), in_dim=d["in_dim"],
                                  out_dim=d["out_dim"])
            with tr.span("states.bipartite"):
                sigma = validate_density(d["sigma"])
            with tr.span("petz.build"):
                pm = build_petz(ch, sigma)
            with tr.span("channels.apply"):
                y = apply_matrix(ch, sigma.mat)
            with tr.span("petz.apply"):
                recovered = apply_petz(pm, y)
            with tr.span("linalg.trace_distance"):
                return recovered, trace_distance(recovered, sigma.mat)
        if family == "measure":
            with tr.span("channels.validate"):
                p = povm(d["effects"])
                proj = projective_povm(d["basis"])
            with tr.span("channels.measurement_map"):
                coarse = measurement_map(p)
            with tr.span("channels.refine_coarse"):
                refinement = refine_to_rank_one(p)
                grouping = coarse_grain_channel(refinement)
            with tr.span("channels.measurement_map"):
                fine = measurement_map(refinement.fine)
            with tr.span("channels.is_extremal"):
                return coarse, fine, grouping, is_extremal(p), is_extremal(proj)
        with tr.span("states.bipartite"):
            s = bipartite(d["mat"], d["d_a"], d["d_b"])
        if family == "residual":
            with tr.span("petz.recovery_residual"):
                return recovery_residual(s, d["basis"])
        with tr.span("channels.dephase"):
            dephased = dephase(s, d["basis"])
        with tr.span("states.bipartite"):
            sd = bipartite(dephased, d["d_a"], d["d_b"], tol=1e-8)
        with tr.span("measures.mutual_information"):
            return mutual_information(s), mutual_information(sd)

    def check(self, op, out, tr):
        d = op.data
        family = op.kind.split(":")[0]
        if family == "petz":
            recovered, distance = out
            direct = fx.trace_dist(recovered, d["sigma"])
            _require(distance <= 1e-9 and direct <= 1e-9,
                     f"Petz fixed point off by {max(distance, direct):.2e} > 1e-9")
        elif family == "residual":
            _require(0.0 <= out <= 1e-9, f"reconstruction residual {out:.2e} > 1e-9")
        elif family == "dpi":
            before, after = out
            mat, d_a, d_b, u = d["mat"], d["d_a"], d["d_b"], d["basis"]
            _require(after - before <= 1e-9, f"I(D(rho)) - I(rho) = {after - before:.2e} > 1e-9")
            ref_before = fx.mutual_info(mat, d_a, d_b)
            ref_after = fx.mutual_info(fx.dephased(mat, d_a, d_b, u), d_a, d_b)
            worst = max(abs(before - ref_before), abs(after - ref_after))
            _require(worst <= 1e-9, f"mutual information off the oracle by {worst:.2e}")
        else:
            coarse, fine, grouping, ext_p, ext_proj = out
            worst = 0.0
            for x in fx.hermitian_basis(d["dim"]):
                direct = fx.apply_kraus(coarse.kraus_ops, x)
                composed = fx.apply_kraus(grouping.kraus_ops, fx.apply_kraus(fine.kraus_ops, x))
                stats = np.array([np.trace(e @ x) for e in d["effects"]])
                worst = max(worst, float(np.max(np.abs(composed - direct))),
                            float(np.max(np.abs(np.diag(direct) - stats))))
            _require(worst <= 1e-10, f"measurement identities off by {worst:.2e} > 1e-10")
            _require(not ext_p.extremal, "full-rank POVM reported extremal")
            _require(ext_proj.extremal, "projective POVM reported not extremal")


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

_COUNTEREXAMPLE = np.array([
    [0.25, 0.14, -0.02, -0.01],
    [0.14, 0.25, -0.01, -0.02],
    [-0.02, -0.01, 0.25, 0.14],
    [-0.01, -0.02, 0.14, 0.25],
])


def write_state(path: str, m: np.ndarray, dims: list) -> None:
    """State file in the CLI's documented format: dims plus [re, im] pairs."""
    flat = [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": dims, "matrix": flat}, fh, sort_keys=True)
        fh.write("\n")


def _matrix(payload: dict) -> np.ndarray:
    dim = int(np.prod(payload["dims"]))
    return np.array([complex(re, im) for re, im in payload["matrix"]]).reshape(dim, dim)


class CliRoundtrip(Workload):
    """One ``python -m discordium.cli ... --json`` subprocess at a time.

    Interpreter start and imports are paid on every call, as users pay them.
    Every output must be byte-identical to the first run of the same command
    in the run.
    """

    name = "cli-roundtrip"
    kinds = {k: 2 for k in (
        "random", "entropy", "petz-verify", "counterexample",
        "discord", "certify-cq", "certify-generic", "bad-input",
    )}
    round_seconds = 16.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first: dict = {}
        self.oracles: dict = {}
        rng = fx.rng_for(seed, self.name + "/files")
        basis = fx.haar(rng, 2)
        self.cq_basis = basis
        self.cq = fx.cq_matrix(basis, rng.dirichlet(np.ones(2)),
                               [fx.density(rng, 2, 2) for _ in range(2)])
        self.generic = fx.density(rng, 4, 4)
        bad = fx.density(rng, 4, 4)
        bad[0, 1] += 0.05
        self.bad = bad
        self.random_seed = int(rng.integers(0, 2**31))
        self.env = dict(os.environ)

    def write_files(self) -> None:
        join = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        write_state(join("cq.json"), self.cq, [2, 2])
        write_state(join("basis.json"), self.cq_basis, [2])
        write_state(join("generic.json"), self.generic, [2, 2])
        write_state(join("bad.json"), self.bad, [2, 2])

    def fixture_bytes(self, ops):
        self.write_files()
        h = hashlib.sha256(super().fixture_bytes(ops))
        for name in ("cq.json", "basis.json", "generic.json", "bad.json"):
            with open(os.path.join(self.workdir, name), "rb") as fh:
                h.update(fh.read())
        return h.digest()

    def argv(self, kind: str) -> list:
        return {
            "random": ["random", "--kind", "cq", "--da", "2", "--db", "2",
                       "--seed", str(self.random_seed), "-o", "out.json"],
            "entropy": ["entropy", "cq.json"],
            "petz-verify": ["petz-verify", "cq.json", "--basis", "basis.json"],
            "counterexample": ["counterexample"],
            "discord": ["discord", "generic.json", "--restarts", "2", "--seed", "0"],
            "certify-cq": ["certify", "cq.json", "--restarts", "2", "--seed", "0"],
            "certify-generic": ["certify", "generic.json", "--restarts", "2", "--seed", "0"],
            "bad-input": ["entropy", "bad.json"],
        }[kind] + ["--json"]

    def make(self, kind, rng):
        return Op(kind, {"argv": self.argv(kind)})

    def call_cli(self, argv: list):
        proc = subprocess.run(
            [sys.executable, "-m", "discordium.cli", *argv], cwd=self.workdir,
            env=self.env, capture_output=True, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def warmup(self):
        self.write_files()
        self.call_cli(self.argv("counterexample"))

    def run(self, op, tr):
        with tr.span("cli.subprocess"):
            return self.call_cli(op.data["argv"])

    def oracle(self, name: str, mat: np.ndarray) -> float:
        if name not in self.oracles:
            from discordium import bipartite, qubit_discord_oracle
            self.oracles[name] = qubit_discord_oracle(bipartite(mat, 2, 2), grid=400)
        return self.oracles[name]

    def check(self, op, out, tr):
        if op.kind in self.first:
            _require(out == self.first[op.kind],
                     "output differs from the first run of the same command")
            return
        self.first[op.kind] = out
        code, stdout, stderr = out
        expected_code = {"certify-generic": 1, "bad-input": 2}.get(op.kind, 0)
        _require(code == expected_code, f"exit code {code}, expected {expected_code}: "
                 f"{stderr.decode(errors='replace')[-200:]}")
        if op.kind == "bad-input":
            _require(stdout == b"" and b"NotHermitian" in stderr,
                     "non-Hermitian input not reported as NotHermitian")
            return
        res = json.loads(stdout)["results"]
        if op.kind == "random":
            path = os.path.join(self.workdir, "out.json")
            with open(path, "rb") as fh:
                raw = fh.read()
            _require(res["sha256"] == hashlib.sha256(raw).hexdigest(), "digest mismatch")
            m = _matrix(json.loads(raw))
            w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            _require(np.abs(m - m.conj().T).max() <= 1e-12 and w[0] >= -1e-12
                     and abs(w.sum() - 1.0) <= 1e-12, "random fixture is not a state")
        elif op.kind == "entropy":
            ref = fx.entropy_bits(self.cq)
            _require(abs(res["entropy_bits"] - ref) <= 1e-9, "entropy off the oracle")
        elif op.kind == "petz-verify":
            _require(res["residual_trace_distance"] <= 1e-9
                     and abs(res["mutual_information_gap_bits"]) <= 1e-9,
                     "cq fixture does not reconstruct at its generating basis")
        elif op.kind == "counterexample":
            first = res["zeroing_outer_pair"]
            ref = fx.entropy_bits(_COUNTEREXAMPLE)
            _require(all(res["checks"].values()) and abs(first["original_entropy"] - ref) <= 1e-9,
                     "counterexample checks failed")
        elif op.kind == "discord":
            value = res["value_bits"]
            _, vecs = np.linalg.eigh(fx.reduce_a(self.generic, 2, 2))
            upper = fx.dephasing_gap(self.generic, 2, 2, vecs)
            lower = self.oracle("generic", self.generic)
            _require(lower - 1e-6 <= value <= upper + 1e-9,
                     f"discord {value:.6e} outside [{lower:.6e}, {upper:.6e}]")
        elif op.kind == "certify-cq":
            u = _matrix(res["basis"])
            limit = _CERT_RESIDUAL * float(np.linalg.norm(self.cq))
            _require(res["classical"] and sorted(map(len, res["partition"])) == [1, 1]
                     and fx.offdiag_residual(self.cq, 2, 2, u) <= limit,
                     "cq fixture not certified with a valid basis")
        elif op.kind == "certify-generic":
            lower = self.oracle("generic", self.generic)
            _require(not res["classical"] and res["witness_value_bits"] >= lower - 1e-6
                     and res["witness_value_bits"] > 1e-6, "generic fixture certified")

    def trace_op(self, op, out, tr):
        """The same subcommand again, through cli.main() in-process."""
        from discordium import cli, run_counterexample
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                with tr.span("cli.main"):
                    cli.main(op.data["argv"])
        finally:
            os.chdir(cwd)
        if op.kind == "counterexample":
            with tr.span("counterexample.run"):
                run_counterexample()
        return {}

    def probes(self):
        """Median interpreter start and ``import discordium.cli`` times."""
        def fresh(code: str) -> tuple:
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", code], cwd=self.workdir, env=self.env,
                                 check=True, capture_output=True, timeout=60)
            return (time.perf_counter() - t0) * 1e3, out.stdout

        interpreter = [fresh("pass")[0] for _ in range(5)]
        imports = [float(fresh("import time; t = time.perf_counter(); import discordium.cli; "
                                "print(time.perf_counter() - t)")[1]) * 1e3 for _ in range(5)]
        return {"cli.interpreter_ms": statistics.median(interpreter),
                "cli.import_ms": statistics.median(imports)}


# CliRoundtrip runs inside the traced recovery-measure run (trace_extras).
WORKLOADS = {w.name: w for w in (DiscordGeneric, CertifyCq, RecoveryMeasure)}


def share_of_kinds(ops: list) -> dict:
    counts = Counter(op.kind.split(":")[0] for op in ops)
    return {k: round(v / len(ops), 4) for k, v in sorted(counts.items())}
