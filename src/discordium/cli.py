"""Command-line interface: state-file I/O, one subcommand per capability.

State files are UTF-8 JSON with keys ``dims`` (``[d_a, d_b]`` for bipartite
states, ``[d]`` for single systems) and ``matrix`` (row-major array of
``[re, im]`` pairs; nested rows are also accepted on input). Reports are
deterministic given flags and seed; ``--json`` emits a canonical report
whose numeric fields reproduce bit-for-bit across runs, so wall time is
shown only in the human-readable output.

Exit codes: 0 success (or certified classical), 1 NotClassical witness,
2 input or validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import DiscordiumError, ParseError
from .counterexample import run_counterexample
from .classicality import (
    DiscordConfig,
    NotClassical,
    ZERO_DISCORD_TOL,
    _exact_gap,
    certify_classical,
    discord,
)
from .linalg import trace_distance
from .measures import von_neumann_entropy
from .petz import reconstruct_cq
from .states import (
    BipartiteState,
    DensityMatrix,
    random_cq_state,
    random_state,
    validate_density,
)

# Tolerance used when parsing user-supplied state files.
_STATE_TOL = 1e-8

# Largest state dimension `random` writes: a Haar state of 1024 takes about 12 s and 52 MB.
_RANDOM_MAX_DIM = 1024

_ENTROPY_REFERENCE = 1.7555
_ZEROED_REFERENCE = 1.7546
_REFERENCE_TOL = 5e-4


def _matrix_payload(m: np.ndarray, dims: list[int]) -> dict:
    pairs = np.stack([np.real(m), np.imag(m)], axis=-1).reshape(-1, 2)
    return {"dims": list(dims), "matrix": pairs.tolist()}


def _basis_payload(u: np.ndarray) -> dict:
    """A basis payload whose columns' first entries of modulus above 1e-6 are real positive."""
    lead = np.argmax(np.abs(u) > 1e-6, axis=0), np.arange(u.shape[1])
    p = u[lead].conj() / np.abs(u[lead])
    # Each real product rounds on its own, so a column times -1 or +-i reports the same bits.
    out = (u.real * p.real - u.imag * p.imag) + 1j * (u.real * p.imag + u.imag * p.real)
    out[lead] = np.abs(u[lead])
    return _matrix_payload(out, [u.shape[0]])


def _parse_matrix(payload, path: str) -> tuple[np.ndarray, list[int]]:
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    for key in ("dims", "matrix"):
        if key not in payload:
            raise ParseError(f"{path}: missing key {key!r}")
    dims = payload["dims"]
    if not (isinstance(dims, list) and 1 <= len(dims) <= 2
            and all(type(d) is int and d >= 1 for d in dims)):
        raise ParseError(f"{path}: 'dims' must be [d] or [d_a, d_b] of positive ints")
    dim = math.prod(dims)
    try:
        pairs = np.array(payload["matrix"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: 'matrix' is not an array of numeric [re, im] pairs") from exc
    if pairs.shape not in ((dim * dim, 2), (dim, dim, 2)):
        raise ParseError(f"{path}: 'matrix' has shape {pairs.shape}, expected "
                         f"{(dim * dim, 2)} or {(dim, dim, 2)}")
    finite = np.isfinite(pairs).reshape(-1, 2).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: matrix entry {np.argmin(finite)} is not finite")
    return pairs.reshape(-1, 2).view(complex).reshape(dim, dim), dims


def read_matrix_file(path: str) -> tuple[np.ndarray, list[int]]:
    """Parse a state/operator file; raw matrix, no density validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and over-long integers are ValueErrors.
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return _parse_matrix(payload, path)


def read_state_file(path: str) -> tuple[DensityMatrix, list[int]]:
    """Parse and validate a state file.

    Returns ``(state, dims)``; validation errors propagate with the
    offending invariant named.
    """
    mat, dims = read_matrix_file(path)
    return validate_density(mat, tol=_STATE_TOL), dims


def write_state_file(path: str, m: np.ndarray, dims: list[int]) -> None:
    payload = _matrix_payload(m, dims)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bipartite_from_file(path: str) -> BipartiteState:
    rho, dims = read_state_file(path)
    if len(dims) != 2:
        raise ParseError(f"{path}: 'dims' must have two factors for this command")
    return BipartiteState(state=rho, d_a=dims[0], d_b=dims[1])


def _emit(report: dict, as_json: bool, wall_time: float) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    print(f"command: {report['command']}")
    for name, info in report["inputs"].items():
        print(f"input {name}: {info['path']} (sha256 {info['sha256'][:12]}...)")
    if report["seed"] is not None:
        print(f"seed: {report['seed']}")
    for key, value in report["tolerances"].items():
        print(f"tolerance {key}: {value}")
    for key, value in report["results"].items():
        if isinstance(value, dict) and "matrix" in value:
            print(f"{key}: <matrix dims={value['dims']}>")
        else:
            print(f"{key}: {value}")
    print(f"wall time: {wall_time:.3f} s")


# Each subcommand returns (tolerances, results, exit code); main() reports them.
def _cmd_entropy(args) -> tuple[dict, dict, int]:
    rho, _ = read_state_file(args.state)
    results = {
        "entropy_bits": von_neumann_entropy(rho),
        "spectrum": [float(v) for v in rho.spectrum],
        "support_rank": rho.support_rank,
    }
    return {"validation_tol": _STATE_TOL}, results, 0


def _cmd_discord(args) -> tuple[dict, dict, int]:
    s = _bipartite_from_file(args.state)
    cfg = DiscordConfig(restarts=args.restarts, step_tol=args.tol, enlarge=args.enlarge,
                        seed=args.seed)
    result = discord(s, cfg)
    results = {
        "value_bits": result.value,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "enlarged": result.enlarged,
        "best_basis": _basis_payload(result.best_basis),
    }
    return {"step_tol": cfg.step_tol}, results, 0


def _cmd_certify(args) -> tuple[dict, dict, int]:
    s = _bipartite_from_file(args.state)
    cfg = DiscordConfig(restarts=args.restarts, seed=args.seed)
    tol = args.tol if args.tol is not None else ZERO_DISCORD_TOL
    outcome = certify_classical(s, tol=tol, cfg=cfg)
    tolerances = {"discord_zero_tol": tol}
    if isinstance(outcome, NotClassical):
        results = {
            "classical": False,
            "witness_value_bits": outcome.value,
            "witness_basis": _basis_payload(outcome.basis),
        }
        return tolerances, results, 1
    results = {
        "classical": True,
        "partition": [list(part) for part in outcome.partition],
        "residual": outcome.residual,
        "basis": _basis_payload(outcome.basis),
    }
    return tolerances, results, 0


def _cmd_petz_verify(args) -> tuple[dict, dict, int]:
    s = _bipartite_from_file(args.state)
    basis, _ = read_matrix_file(args.basis)
    reconstruction = reconstruct_cq(s, basis)
    results = {
        "residual_trace_distance": trace_distance(s.mat, reconstruction),
        "reconstruction_frobenius_error": float(
            np.linalg.norm(s.mat - reconstruction)
        ),
        "mutual_information_gap_bits": _exact_gap(s, basis),
    }
    return {"validation_tol": _STATE_TOL}, results, 0


def _cmd_counterexample(args) -> tuple[dict, dict, int]:
    first, second = run_counterexample()
    checks = {
        "original_entropy_matches_reference": bool(
            abs(first.original_entropy - _ENTROPY_REFERENCE) <= _REFERENCE_TOL
        ),
        "zeroed_entropy_matches_reference": bool(
            abs(first.modified_entropy - _ZEROED_REFERENCE) <= _REFERENCE_TOL
        ),
        "both_deltas_negative": bool(
            first.entropy_delta < 0 and second.entropy_delta < 0
        ),
    }
    results = {
        "zeroing_outer_pair": first.to_dict(),
        "zeroing_inner_pair": second.to_dict(),
        "checks": checks,
    }
    return {"reference_tol": _REFERENCE_TOL}, results, 0 if all(checks.values()) else 2


def _cmd_random(args) -> tuple[dict, dict, int]:
    if args.kind == "cq" and args.db is None:
        raise ParseError("--kind cq requires --db")
    dims = [args.da] if args.db is None else [args.da, args.db]
    if min(dims) < 1:
        raise ParseError(f"dimensions must be >= 1, got {dims}")
    dim = math.prod(dims)
    if dim > _RANDOM_MAX_DIM:
        raise ParseError(f"dimensions {dims} give state dimension {dim}, above {_RANDOM_MAX_DIM}")
    if args.kind == "cq":
        mat = random_cq_state(*dims, seed=args.seed).mat
    else:
        mat = random_state(dim, args.rank, seed=args.seed).mat
    write_state_file(args.output, mat, dims)
    results = {
        "written": args.output,
        "dims": dims,
        "sha256": _digest(args.output),
    }
    return {}, results, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordium",
        description="Classical-quantum discord and classicality certification "
        "for bipartite density matrices.",
    )
    parser.add_argument("--version", action="version", version=f"discordium {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--json", action="store_true", help="emit a canonical JSON report")
        if seeded:
            p.add_argument(
                # argparse passes a string default through ``type``: a non-integer exits 2.
                "--seed", type=int, default=os.environ.get("DISCORDIUM_SEED", "0"),
                help="PRNG seed (default: DISCORDIUM_SEED env var or 0)",
            )

    p = sub.add_parser("entropy", help="von Neumann entropy of a state file")
    p.add_argument("state")
    add_common(p, seeded=False)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("discord", help="minimize the dephasing information gap")
    p.add_argument("state")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--enlarge", action="store_true",
                   help="embed A into dimension d_A^2 (rank-one POVM scan)")
    p.add_argument("--tol", type=float, default=DiscordConfig.step_tol,
                   help="optimizer step tolerance")
    add_common(p)
    p.set_defaults(func=_cmd_discord)

    p = sub.add_parser("certify", help="certify classicality or exit 1 with a witness")
    p.add_argument("state")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--tol", type=float, default=None, help="discord-zero threshold in bits")
    add_common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("petz-verify", help="block-reconstruction residual at a basis")
    p.add_argument("state")
    p.add_argument("--basis", required=True, help="JSON file with a d_a x d_a unitary")
    add_common(p, seeded=False)
    p.set_defaults(func=_cmd_petz_verify)

    p = sub.add_parser("counterexample",
                       help="entropy decrease under conjugate-pair zeroing")
    add_common(p, seeded=False)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("random", help="write a random state fixture file")
    p.add_argument("--kind", choices=["haar", "cq"], required=True)
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--db", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        tolerances, results, code = args.func(args)
    except DiscordiumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.subcommand,
        "inputs": {name: {"path": path, "sha256": _digest(path)}
                   for name in ("state", "basis") if (path := getattr(args, name, None))},
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances,
        "results": results,
    }
    _emit(report, args.json, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
