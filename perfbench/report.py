"""Run every workload once and print one table of its metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs through ``run.py`` in its own process, one after the
other. With ``--trace 0`` the table holds every end-to-end metric plus
``failed_frac``, the operations attempted and the tail percentile; with
``--trace 1`` it holds the per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run


def one(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload}: exit {out.returncode}: {out.stderr[-500:]}")
    lines = out.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, sep, value = line[2:].partition(": ")
        if line.startswith("# ") and sep:
            info[key] = json.loads(value)
    return json.loads(lines[-1]), info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    rows = {w: one(w, args.seed, args.seconds, args.trace) for w in run.WORKLOADS}
    names = sorted({m for result, _ in rows.values() for m in result["metrics"]})
    width = max(map(len, names + ["failed_frac"])) + 2
    print(f"{'metric':{width}s}unit      " + "".join(f"{w:>20s}" for w in rows))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r, _ in rows.values())
        cells = "".join(f"{r['metrics'][name]['value']:20.6g}" for r, _ in rows.values())
        print(f"{name:{width}s}{unit:10s}{cells}")
    for label, unit, get in (
        ("attempted", "count", lambda r, i: f"{r['attempted']:20d}"),
        ("failed_frac", "fraction", lambda r, i: f"{r['failed'] / r['attempted']:20.4g}"),
        ("op_tail_percentile", "%", lambda r, i: f"{i.get('op_tail_percentile', 0.0):20.2f}"),
    ):
        print(f"{label:{width}s}{unit:10s}" + "".join(get(r, i) for r, i in rows.values()))
    for w, (result, info) in rows.items():
        if info.get("failures"):
            print(f"{w} failures: {info['failures']}")
    return 0 if all(r["failed"] == 0 for r, _ in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
