"""The benchmark's own calls into the library, replayed in-process.

``perfbench/`` drives the public API (``conditional_ensemble``,
``equality_weights`` and ``peel_extremal`` in the certify replay, the
certificate's ``conditional_states[i].mat`` in its check, among others). A
change that breaks one of these calls fails the benchmark run itself; this
replays the warm-up and a short prefix of each workload's operations, with
their checks and traced replays, so such a break shows up here with its
traceback. The benchmark's modules are imported read-only.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

# Operations replayed per workload: the first 23 certify-cq operations hold
# plain, near-zero-probability and repeated-state kinds, and the first 40
# recovery-measure operations every family (Petz, residual, DPI, POVM).
PREFIX = {"discord-generic": 2, "certify-cq": 23, "recovery-measure": 40}


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_workload_calls(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    ops = wl.make_ops(wl.round_seconds)[:PREFIX[name]]
    assert len(ops) == PREFIX[name]
    tr = NullTracer()
    wl.warmup()
    for op in ops:
        out = wl.run(op, tr)
        wl.check(op, out, tr)
        wl.trace_op(op, out, tr)
