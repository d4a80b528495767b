"""Compensated accumulation helpers.

Partial-sum traces compare a slowly growing sum against a reference at
geometric checkpoints, and the term-identity checks subtract adjacent means
that agree to many digits.  Plain left-to-right accumulation loses up to
n*eps relative accuracy there, which is visible at the tolerances this
package promises, so running sums are Neumaier-compensated (error stays at a
few ulp of the true prefix regardless of length).

``compensated_cumsum`` runs as a few whole-array numpy passes, and its
output is bit-identical to the textbook per-element Neumaier loop (kept as
the reference in ``tests/test_accumulation.py``): the running sums are
``np.add.accumulate``, which adds strictly left to right as the loop does,
each step's correction is an elementwise function of the previous running
sum, the term and the new running sum, and the loop's compensation is
itself a plain left-to-right sum of those corrections.  NaN outputs sit at
the same indices as the loop's; their sign bit is not part of the contract,
since which operand's NaN an addition propagates varies even within one
numpy call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compensated_cumsum"]


def compensated_cumsum(values) -> np.ndarray:
    """All prefix sums of ``values``, each compensated (Neumaier).

    out[i] = values[0] + ... + values[i] with error O(eps * sum|values|),
    independent of i.  Non-finite input propagates without warnings.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    with np.errstate(invalid="ignore", over="ignore"):
        # running[0] = 0.0 and running[i + 1] = running[i] + arr[i], the
        # loop's `total` before and after step i
        running = np.empty(n + 1)
        running[0] = 0.0
        running[1:] = arr
        np.add.accumulate(running, out=running)
        prev, total = running[:-1], running[1:]

        # Neumaier's correction (big - total) + small, where big is the
        # larger in magnitude of prev and arr (prev on ties, NaN -> arr)
        prev_big = np.abs(prev) >= np.abs(arr)
        comp = np.empty(n + 1)
        comp[0] = 0.0
        err = comp[1:]
        np.copyto(err, arr)
        np.copyto(err, prev, where=prev_big)
        err -= total
        small = np.where(prev_big, arr, prev)
        err += small
        np.add.accumulate(comp, out=comp)

        return np.add(total, err, out=small)
