"""Benchmark self-test: determinism of inputs and counters, metric names.

    python3 perfbench/selftest.py

For every workload it checks that

- the inputs generated for one seed are byte-identical when generated again
  (and differ for another seed);
- two traced runs of a short prefix of the operation set with one seed give
  exactly the same deterministic counters (restarts, eigensolver calls and
  matrices, certificate partition sizes) and no failed operation;
- the traced run reports exactly the per-layer metrics BENCHMARK.json names.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

# Operations per traced run before its extras: enough to reach every code
# path of interest (for certify-cq, plain, near-zero-probability and
# repeated-state cq states; for recovery-measure, every small kind and the
# one 12x12 residual of its round). recovery-measure's extras run each CLI
# command twice.
LIMITS = {"discord-generic": 2, "certify-cq": 23, "recovery-measure": 421}
SEED = 7


def fixtures_digest(name: str, seed: int, workdir: str) -> bytes:
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl.fixture_bytes(wl.make_ops(15))


def traced(name: str, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "15", "--mode", "trace",
         "--workdir", workdir, "--limit", str(LIMITS[name])],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{name}: worker exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    base = os.path.join(run.ROOT, ".perfbench_run", f"selftest-{os.getpid()}")
    problems = []
    try:
        for name in run.WORKLOADS:
            first = fixtures_digest(name, SEED, os.path.join(base, "a"))
            again = fixtures_digest(name, SEED, os.path.join(base, "b"))
            other = fixtures_digest(name, SEED + 1, os.path.join(base, "c"))
            if first != again or first == other:
                problems.append(f"{name}: fixtures are not a function of the seed")
            runs = [traced(name, os.path.join(base, f"t{i}")) for i in range(2)]
            counters = [r["info"]["counters"] for r in runs]
            if counters[0] != counters[1]:
                problems.append(f"{name}: counters differ: {counters[0]} vs {counters[1]}")
            for r in runs:
                if r["failed"]:
                    problems.append(f"{name}: failures {r['info']['failures']}")
                if set(r["metrics"]) != per_layer:
                    problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(r['metrics']) ^ per_layer)}")
            print(f"{name}: counters {json.dumps(counters[0], sort_keys=True)}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
