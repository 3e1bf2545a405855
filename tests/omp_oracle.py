"""Reference OMP, used by tests only.

Refits every chosen column with one `numpy.linalg.lstsq` call per
iteration, the direct reading of the rule in `cspilot.recovery.omp_recover`.
The deflation of `omp_recover` must choose the same columns, and its
estimate must match this refit to rounding.
"""

from __future__ import annotations

import numpy as np


def omp_lstsq(y, rows, sparsity):
    """Chosen columns in the order chosen, and the lstsq fit on them in that order."""
    selected: list[int] = []
    coef = np.array([], dtype=complex)
    resid = np.asarray(y, dtype=complex)
    for _ in range(sparsity):
        corr = np.abs(rows.conj().T @ resid)
        corr[selected] = -1.0
        selected.append(int(np.argmax(corr)))
        cols = rows[:, selected]
        coef, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < len(selected):
            raise np.linalg.LinAlgError("selected sensing columns are numerically dependent")
        resid = y - cols @ coef
    return selected, coef
