"""Entropy counterexample: zeroing conjugate off-diagonal entries.

A natural guess would be that replacing a conjugate pair of off-block-
diagonal entries of a two-qubit density matrix by zeros can only increase
its entropy (it leaves both marginals fixed). The 4x4 matrix below refutes
that: its entropy drops from 1.7555 to 1.7546 bits when the (0,3)/(3,0)
pair is zeroed, and also drops for the other admissible pair (1,2)/(2,1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagonalForbidden, IndexOutOfRange
from .linalg import _require_int, require_hermitian
from .measures import von_neumann_entropy
from .states import validate_density

COUNTEREXAMPLE_MATRIX = np.array(
    [
        [0.25, 0.14, -0.02, -0.01],
        [0.14, 0.25, -0.01, -0.02],
        [-0.02, -0.01, 0.25, 0.14],
        [-0.01, -0.02, 0.14, 0.25],
    ]
)


@dataclass(frozen=True)
class ZeroingReport:
    """Before/after spectra and entropies for one conjugate-pair zeroing."""

    original_spectrum: np.ndarray
    modified_spectrum: np.ndarray
    original_entropy: float
    modified_entropy: float
    zeroed_positions: tuple
    entropy_delta: float

    def to_dict(self) -> dict:
        return {
            "original_spectrum": [float(v) for v in self.original_spectrum],
            "modified_spectrum": [float(v) for v in self.modified_spectrum],
            "original_entropy": self.original_entropy,
            "modified_entropy": self.modified_entropy,
            "zeroed_positions": [list(p) for p in self.zeroed_positions],
            "entropy_delta": self.entropy_delta,
        }


def zero_conjugate_pair(m: np.ndarray, i: int, j: int) -> np.ndarray:
    """Copy of a Hermitian matrix with entries (i, j) and (j, i) set to zero."""
    h = require_hermitian(m)
    for index in (i, j):
        _require_int(index, "pair index", 0, h.shape[0] - 1, IndexOutOfRange)
    if i == j:
        raise DiagonalForbidden(
            f"({i}, {i}) is a diagonal entry, not a conjugate pair"
        )
    out = h.copy()
    out[i, j] = 0.0
    out[j, i] = 0.0
    return out


def zeroing_report(m: np.ndarray, i: int, j: int) -> ZeroingReport:
    """Zero one conjugate pair of a density matrix and compare entropies."""
    original = validate_density(m)
    modified = validate_density(zero_conjugate_pair(m, i, j))
    s0 = von_neumann_entropy(original)
    s1 = von_neumann_entropy(modified)
    return ZeroingReport(
        original_spectrum=original.spectrum,
        modified_spectrum=modified.spectrum,
        original_entropy=s0,
        modified_entropy=s1,
        zeroed_positions=((i, j), (j, i)),
        entropy_delta=s1 - s0,
    )


def run_counterexample() -> tuple[ZeroingReport, ZeroingReport]:
    """Both published zeroings of the counterexample matrix.

    The first report zeroes the (0,3)/(3,0) pair, the second starts from the
    pristine matrix again and zeroes (1,2)/(2,1). Both deltas are negative:
    the entropy strictly decreases each time.
    """
    first = zeroing_report(COUNTEREXAMPLE_MATRIX, 0, 3)
    second = zeroing_report(COUNTEREXAMPLE_MATRIX, 1, 2)
    return first, second
