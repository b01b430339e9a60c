"""Run-wide numeric configuration.

Every tolerance in the package is relative by default: a comparison at scale s
uses ``tol * (1 + s)``.  The default is a constant; a call overrides it with
its ``tol`` argument, the CLI with ``--tol``.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

DEFAULT_TOL = 1e-7

#: Norm of a priced market's nonconvexity measures and imbalances unless set.
DEFAULT_NORM = "l2"

VERSION = "0.1.0"


def resolve_tol(tol: float | None) -> float:
    return DEFAULT_TOL if tol is None else float(tol)


def vector_norm(v, norm: str = DEFAULT_NORM) -> float:
    """Norm of a vector under the injectable norm choice ('l1', 'l2', 'linf')."""
    v = np.asarray(v, dtype=float)
    if norm == "l2":
        return float(np.linalg.norm(v))
    if norm == "l1":
        return float(np.sum(np.abs(v)))
    if norm == "linf":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm {norm!r}")


def ordered_sum(values) -> float:
    """Float sum left to right from +0.0, one rounding per addition: the bits
    of Python 3.11's builtin `sum`, which 3.12 replaced by a compensated sum."""
    return float(reduce(operator.add, values, 0.0))
