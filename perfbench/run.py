"""discordium benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Workloads: discord-generic, certify-cq and recovery-measure (see
``workloads.py`` and README.md); the CLI round trip runs inside the traced
recovery-measure run.

With ``--trace 0`` the set-up is timed three times (two set-up-only worker
processes, then the measuring worker), and the last stdout line carries the
end-to-end metrics; operation timings there are scaled to a nominal host
speed (``hostclock.py``), with the raw ones on the ``host`` detail line.
With ``--trace 1`` it carries the per-layer metrics of a separate traced
run. Lines before it are ``#``-prefixed human-readable detail: the
environment, failures, operation shares, tail percentile and deterministic
counters.

Only this process and one worker (plus, in the traced recovery-measure
run, one CLI subprocess at a time) run at once, with BLAS limited to one
thread, all pinned to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ["discord-generic", "certify-cq", "recovery-measure"]
SETUP_SAMPLES = 3
# The worker stops starting operations after 150 s; this is the hard stop.
RUN_TIMEOUT_S = 175.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, mode: str, workdir: str, env: dict) -> tuple:
    """Start a worker; return it and the seconds until it printed READY."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not reach READY (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout: float) -> str:
    """Wait for a worker (killing it past ``timeout``); return its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def environment() -> dict:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "missing"

    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS), "machine": platform.machine(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "discordium", "__init__.py")):
        print(f"error: no discordium sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env()
    # Pin to one CPU before starting workers, which inherit it. Unpinned,
    # identical runs on a 2-core VM differed in speed by up to 1.5x as the
    # scheduler moved the worker between CPUs; pinned, by a few percent.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe, ready = start_worker(args, "setup", workdir, env)
                finish(probe, 60)
                setup.append(ready)
        proc, ready = start_worker(args, "trace" if args.trace else "measure", workdir, env)
        setup.append(ready)
        result = json.loads(finish(proc, RUN_TIMEOUT_S).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    info = result["info"]
    info["environment"] = environment()
    if not args.trace:
        info["setup_samples_s"] = [round(s, 4) for s in setup]
    for key in sorted(info):
        print(f"# {key}: {json.dumps(info[key], sort_keys=True)}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
