"""Exact 2-D Pareto frontiers over (time, energy), both minimized.

Point ``i`` is *dominated* by ``j`` when ``t_j <= t_i`` and
``e_j <= e_i`` with at least one inequality strict.  The frontier is the
set of non-dominated points; points that tie a frontier point on BOTH
coordinates are kept (they are alternative configurations with
identical cost, which is exactly what a tuner should surface).

The sweep is O(n log n): lexsort by (time, energy), then walk time
groups left to right tracking the best energy seen at strictly smaller
time.  A group survives iff its minimum energy beats that bound, and
within a surviving group only the minimum-energy members survive.

Chunked tuning relies on the standard merge property:
``frontier(A ∪ B) ⊆ frontier(A) ∪ frontier(B)`` — a point dominated
within its own chunk is dominated in the union — so per-chunk frontiers
merge exactly with one final pass, independent of chunking.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dominates", "pareto_indices"]


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when cost pair ``a`` dominates ``b`` (minimizing both)."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def pareto_indices(times: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated points, in ascending index order.

    ``times`` and ``energies`` are equal-length 1-D arrays.  Exact
    duplicates of a frontier coordinate pair are all returned; the
    ascending-index order makes the result deterministic regardless of
    how the inputs were produced (chunk merges preserve global indices).
    """
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(energies, dtype=np.float64)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError(
            f"times/energies must be equal-length 1-D, got {t.shape} "
            f"and {e.shape}"
        )
    n = t.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((e, t))  # primary: time, secondary: energy
    keep: list[int] = []
    best_e = np.inf
    i = 0
    while i < n:
        j = i
        while j < n and t[order[j]] == t[order[i]]:
            j += 1
        group = order[i:j]                    # one time value, e ascending
        group_min_e = e[group[0]]
        if group_min_e < best_e:
            keep.extend(int(g) for g in group if e[g] == group_min_e)
            best_e = group_min_e
        i = j
    return np.sort(np.asarray(keep, dtype=np.int64))
