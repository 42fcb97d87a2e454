"""Re-measure the ROADMAP baseline cases and print them next to its figures.

    python3 perfbench/baseline.py

Cases: ``discord`` with 16 restarts on generic 2x2 and 3x3 states, and
``certify_classical`` on classical-quantum states at 2x2, 3x3, 4x4 and 6x4,
built with the library's own seeded generators. Each case reports the
median wall time over a few seeds and, for ``discord``, the median number of
gap evaluations, counted from outside as ``numpy.linalg.eigvalsh`` calls on
4-d block stacks (only the batched gap makes those). Runs in one process
with BLAS limited to one thread.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import run

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = run.BLAS_THREADS
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402
import numpy.linalg as la  # noqa: E402

from discordium import (  # noqa: E402
    bipartite, certify_classical, discord, random_cq_state, random_state,
)

# (case, ROADMAP time in s, ROADMAP evaluations, seeds)
CASES = [
    ("discord 2x2", 0.9, 9_300, range(3)),
    ("discord 3x3", 9.8, 65_000, range(2)),
    ("certify 2x2", 0.046, None, range(5)),
    ("certify 3x3", 0.38, None, range(5)),
    ("certify 4x4", 0.31, None, range(5)),
    ("certify 6x4", None, None, range(5)),
]

_evals = 0
_eigvalsh = la.eigvalsh


def _counting_eigvalsh(a, *args, **kwargs):
    global _evals
    if np.ndim(a) == 4:
        _evals += 1
    return _eigvalsh(a, *args, **kwargs)


def measure(case: str, seed: int) -> tuple:
    global _evals
    kind, dims = case.split()
    d_a, d_b = (int(x) for x in dims.split("x"))
    if kind == "discord":
        s = bipartite(random_state(d_a * d_b, seed=seed).mat, d_a, d_b)
        fn = discord
    else:
        s = random_cq_state(d_a, d_b, seed=seed)
        fn = certify_classical
    _evals = 0
    t0 = time.perf_counter()
    fn(s)
    return time.perf_counter() - t0, _evals


def main() -> int:
    la.eigvalsh = _counting_eigvalsh
    print(f"{'case':14s}{'ROADMAP s':>11s}{'measured s':>12s}{'ratio':>8s}"
          f"{'ROADMAP evals':>15s}{'measured evals':>16s}  seeds")
    for case, ref_s, ref_evals, seeds in CASES:
        samples = [measure(case, seed) for seed in seeds]
        secs = statistics.median(t for t, _ in samples)
        evals = statistics.median(e for _, e in samples)
        ratio = f"{secs / ref_s:8.2f}" if ref_s else f"{'-':>8s}"
        ref = f"{ref_s:11.3f}" if ref_s else f"{'-':>11s}"
        ref_e = f"{ref_evals:15,d}" if ref_evals else f"{'-':>15s}"
        got_e = f"{int(evals):16,d}" if case.startswith("discord") else f"{'-':>16s}"
        print(f"{case:14s}{ref}{secs:12.3f}{ratio}{ref_e}{got_e}  {list(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
