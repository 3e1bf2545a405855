"""Reference stepwise debias, used by tests only.

Scores every drop-one and add-one candidate by a fresh least-squares solve
(``len(K) + 2`` `numpy.linalg.lstsq` calls per pass), the direct reading of
the selection rule in `cspilot.recovery.dantzig_recover`.  The QR-scored
`cspilot.recovery._stepwise_select` must return the same support, and its
estimate must match `ls_refit` on that support.
"""

from __future__ import annotations

import numpy as np


def ls_refit(y, Xs, support):
    """Residual energy and coefficients of the LS fit restricted to `support`."""
    idx = list(support)
    if not idx:
        return float(np.sum(np.abs(y) ** 2)), None
    A = Xs[:, idx]
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(np.sum(np.abs(resid) ** 2)), coef


def stepwise_select_lstsq(y, Xs, candidates, cap, threshold):
    """Prune/extend the candidate support by residual-energy significance."""
    keep = list(candidates)
    for _ in range(4 * cap):
        changed = False
        while keep:
            base, _ = ls_refit(y, Xs, keep)
            rises = [
                ls_refit(y, Xs, keep[:i] + keep[i + 1 :])[0] - base
                for i in range(len(keep))
            ]
            weakest = int(np.argmin(rises))
            if rises[weakest] < threshold:
                keep.pop(weakest)
                changed = True
            else:
                break
        base, coef = ls_refit(y, Xs, keep)
        resid = y - (Xs[:, keep] @ coef if keep else 0.0)
        corr = np.abs(Xs.conj().T @ resid)
        if keep:
            corr[keep] = 0.0
        best = int(np.argmax(corr))
        if len(keep) < cap and base - ls_refit(y, Xs, keep + [best])[0] > threshold:
            keep.append(best)
            changed = True
        if not changed:
            break
    return sorted(keep)
