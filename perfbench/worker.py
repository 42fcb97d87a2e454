"""One workload in one process: set up, then run the operation set.

Started by ``run.py``; not a user-facing entry point. Prints ``READY`` once
imports, input generation and one warm-up operation are done, then (unless
``--mode setup``) runs the fixed operation set and prints one JSON line.

``--mode measure`` times every operation with tracing off and checks it.
``--mode trace`` runs an operation set of half the length twice: untraced
for a reference rate, then traced, with spans around every library call and
the eigensolver counters on; then the workload's traced-only extras (see
``Workload.trace_extras``). It reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter

_START = time.perf_counter()
# Operations not started this long after the process began count as failed,
# so a run always ends inside the benchmark's per-run time limit.
_DEADLINE_S = 150.0
# The measured pass starts no new round after OVERRUN x --seconds.
OVERRUN = 1.3

import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

# Per-layer metrics taken from span totals, in ms per operation of the run.
SPAN_METRICS = [
    "discord.search", "discord.oracle", "discord.certify", "discord.certify_search",
    "discord.peel", "states.conditional_ensemble", "linalg.sqrt_on_support",
    "states.bipartite", "measures.mutual_information", "channels.dephase",
    "linalg.trace_distance", "channels.measurement_map", "channels.refine_coarse",
    "channels.is_extremal", "channels.validate", "channels.apply", "petz.build",
    "petz.apply", "petz.recovery_residual", "counterexample.run", "cli.main",
]


def tail(times_ms: list) -> tuple:
    """Highest percentile with at least ten operations above it.

    Returns ``(value_ms, percentile)``. With ten or fewer operations no
    percentile qualifies and the smallest time is returned as percentile 0.
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[0], 0.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_pass(wl, ops, tr, check: bool, on_op=None, first: int = 0,
             budget_s: float = math.inf, clock=None) -> tuple:
    """Closed loop over ``ops``; returns (times_ms, failures, attempted).

    Failures are ``(index, message)``, with indices counted from ``first``.
    Once the pass has run ``budget_s`` seconds it stops at the next round
    boundary, so a slow host shortens a run instead of stretching it; the
    operations left out are not attempted. With a ``clock``, its reference
    block is timed between operations (see ``hostclock.py``).
    """
    times, failures = [], []
    round_len = sum(wl.kinds.values()) or 1
    t_pass = time.perf_counter()
    for i, op in enumerate(ops, first):
        now = time.perf_counter()
        if (i - first) % round_len == 0 and now - t_pass > budget_s:
            return times, failures, i - first
        if clock is not None:
            clock.before_op()
        if now - _START > _DEADLINE_S:
            failures.extend((j, "not started before the time limit")
                            for j in range(i, first + len(ops)))
            break
        tr.begin_op(i)
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = wl.run(op, tr)
        except Exception as exc:  # any library exception is a failed operation
            times.append((time.perf_counter() - t0) * 1e3)
            failures.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        times.append((time.perf_counter() - t0) * 1e3)
        if not check:
            continue
        try:
            wl.check(op, out, tr)
            if on_op is not None:
                on_op(op, out)
        except Exception as exc:  # a check that cannot run also fails the op
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return times, failures, len(ops)


def base_info(wl, ops, times, failures) -> dict:
    value, pct = tail(times) if times else (0.0, 0.0)
    return {
        "workload": wl.name,
        "attempted": len(ops),
        "failed": len(failures),
        "failed_frac": len(failures) / len(ops),
        "kind_share": workloads.share_of_kinds(ops),
        "op_tail_percentile": round(pct, 2),
        "op_tail_value_ms": value,
        "op_count": len(times),
        "failures": [f"op {i} ({ops[i].kind}): {msg}" for i, msg in failures[:5]],
    }


def measure(wl, ops, seconds: float) -> dict:
    """Timed, checked pass; timings are reported at the nominal host speed."""
    clock = HostClock()
    times, failures, attempted = run_pass(wl, ops, NullTracer(), check=True,
                                          budget_s=OVERRUN * seconds, clock=clock)
    clock.tick()
    ops = ops[:attempted]
    good = len(ops) - len(failures)
    scales = clock.scales()
    norm = [t * k for t, k in zip(times, scales)]
    info = base_info(wl, ops, norm, failures)
    info["host"] = {
        "scale_median": round(statistics.median(scales), 4), "blocks": len(clock.samples_ms),
        "block_ms_quartiles": [round(q, 3) for q in statistics.quantiles(clock.samples_ms, n=4)],
        "raw": {"ops_per_s": round(good / (sum(times) / 1e3), 4),
                "op_p50_ms": round(statistics.median(times), 4),
                "op_tail_ms": round(tail(times)[0], 4)},
    }
    metrics = {
        "ops_per_s": (good / (sum(norm) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(norm), "ms"),
        "op_tail_ms": (info["op_tail_value_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"attempted": len(ops), "failed": len(failures), "metrics": metrics, "info": info}


def trace(wl, ops) -> dict:
    """Untraced reference pass, then the traced pass and ``wl.trace_extras()``."""
    ref_times, _, _ = run_pass(wl, ops, NullTracer(), check=False)
    tr = Tracer()
    tr.install_eig_counter()
    per_op: list = []

    def recorder(w):
        def on_op(op, out):
            rec = w.trace_op(op, out, tr)
            rec["kind"] = op.kind
            rec["eig_calls"] = tr.eig_calls - tr.op_eig[0]
            rec["eig_matrices"] = tr.eig_matrices - tr.op_eig[1]
            per_op.append(rec)
        return on_op

    times, failures, _ = run_pass(wl, ops, tr, check=True, on_op=recorder(wl))
    traced_rate = len(times) / sum(times)
    ops, probes = list(ops), wl.probes()
    for extra, extra_ops in wl.trace_extras():
        t, f, _ = run_pass(extra, extra_ops, tr, check=True, on_op=recorder(extra),
                           first=len(ops))
        times, failures, ops = times + t, failures + f, ops + extra_ops
        probes.update(extra.probes())
    info = base_info(wl, ops, times, failures)
    n = len(ops)

    restarts = [rec["restarts"] for rec in per_op if "restarts" in rec]
    partitions = Counter(size for rec in per_op for size in rec.get("partition", []))
    counters = {
        "eig_calls": sum(rec["eig_calls"] for rec in per_op),
        "eig_matrices": sum(rec["eig_matrices"] for rec in per_op),
        "partition_sizes": {str(k): partitions[k] for k in sorted(partitions)},
        "restarts_by_kind": {},
        "eig_calls_by_kind": {},
    }
    for rec in per_op:
        if "restarts" in rec:
            counters["restarts_by_kind"].setdefault(rec["kind"], []).append(rec["restarts"])
        by_kind = counters["eig_calls_by_kind"]
        by_kind[rec["kind"]] = by_kind.get(rec["kind"], 0) + rec["eig_calls"]
    info["counters"] = counters
    info["spans"] = {k: {kk: round(vv, 3) for kk, vv in v.items()}
                     for k, v in sorted(tr.summary().items())}

    metrics = {f"{name}_ms": (tr.total_ms(name) / n, "ms") for name in SPAN_METRICS}
    certify, search = metrics["discord.certify_ms"][0], metrics["discord.certify_search_ms"][0]
    metrics["discord.certify_extract_ms"] = (certify - search if certify else 0.0, "ms")
    metrics["discord.restarts_per_op"] = (
        sum(restarts) / len(restarts) if restarts else 0.0, "count")
    metrics["discord.eig_calls_per_op"] = (counters["eig_calls"] / n, "count")
    metrics["discord.eig_matrices_per_op"] = (counters["eig_matrices"] / n, "count")
    metrics["discord.first_restart_hit_frac"] = (
        sum(r == 1 for r in restarts) / len(restarts) if restarts else 0.0, "fraction")
    for key in ("cli.interpreter_ms", "cli.import_ms"):
        metrics[key] = (probes.get(key, 0.0), "ms")
    ref_rate = len(ref_times) / sum(ref_times)
    metrics["trace_overhead_frac"] = (1.0 - traced_rate / ref_rate, "fraction")
    info["unmeasured"] = sorted(k for k, (v, _) in metrics.items() if v == 0.0)
    return {"attempted": n, "failed": len(failures), "metrics": metrics, "info": info}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N operations (self-test)")
    args = ap.parse_args()

    import discordium  # noqa: F401  (imports are part of set-up)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    # The traced run makes two passes (and replays), so each gets half.
    ops = wl.make_ops(args.seconds / 2 if args.mode == "trace" else args.seconds)[:args.limit]
    wl.warmup()
    # The inputs live for the whole run; keep the collector from rescanning
    # them, so collection pauses come from the library's own garbage.
    gc.collect()
    gc.freeze()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(wl, ops, args.seconds) if args.mode == "measure" else trace(wl, ops)
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
