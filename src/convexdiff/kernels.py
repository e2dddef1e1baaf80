"""Kernel for the longest-convex-subsequence suffix DP table.

The table is g[a][t] = length of the longest convex subsequence that starts
with elements at positions a < t:

    g[a][t] = 1 + max(g[t][lo:])   lo = first u > t with B[u] - B[t] > B[t] - B[a]
    g[a][t] = 2                    if there is no such u (lo = m)

It is filled column by column, t = m-1 down to 1. Every g[t][u] with u > t
lies in a later column, so row t is complete when column t starts, and one
suffix-maximum vector s of row t, with s[m] = 1, gives the whole column as
1 + s[lo]. The entries are at most m <= MAX_TABLE, so the table is int16.

The two tiers differ only in how they find lo:

  * numpy  - one searchsorted call per column over int64 values; the table
             is returned as the int16 ndarray
  * python - Python ints of any size; within a column the thresholds
             2*B[t] - B[a] grow as a falls, so lo only moves right and a
             two-pointer scan finds it; the table is returned as a list of
             lists

The numpy tier is the default. Inputs whose values exceed the int64 safety
bound always take the python tier, even when numpy is forced, since the
numpy tier would overflow; exactness wins over the selector.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import InvalidInput, TooLarge

KERNEL_CHOICES = ("numpy", "python")

# One dense (m x m) int16 table; 4096 keeps it near 34 MB (the python tier's
# list of lists adds an 8-byte pointer per entry, near 134 MB).
MAX_TABLE = 4096

# Threshold arithmetic computes 2*b[t] - b[a]; 3x headroom below 2^63.
INT64_SAFE = (2**63 - 1) // 4


def _scan_column(values: Sequence[int], t: int) -> list[int]:
    """lo for a = t-1 down to 0, by a two-pointer scan over Python ints."""
    m = len(values)
    twice = 2 * values[t]
    # Rows a < start have 2*b[t] - b[a] >= b[m-1], so lo = m.
    start = bisect_right(values, twice - values[-1], 0, t)
    lo, out = t + 1, []
    for va in reversed(values[start:t]):
        th = twice - va
        while values[lo] <= th:  # stops by m-1, since th < b[m-1]
            lo += 1
        out.append(lo)
    return out + [m] * start


def _table(values: Sequence[int], tier: str) -> np.ndarray:
    m = len(values)
    b = np.asarray(values, dtype=np.int64) if tier == "numpy" else None
    g = np.zeros((m, m), dtype=np.int16)
    s = np.ones(m + 1, dtype=np.int16)  # s[u] = max(g[t][u:]) for u > t; s[m] = 1
    for t in range(m - 1, 0, -1):
        s[t + 1 : m] = np.maximum.accumulate(g[t, :t:-1])[::-1]
        if b is None:
            lo = _scan_column(values, t)
        else:
            # a = t-1 down to 0, so the thresholds reach searchsorted ascending
            lo = np.searchsorted(b, 2 * b[t] - b[t - 1 :: -1], side="right")
        g[t - 1 :: -1, t] = s[lo] + 1
    return g


def compute_table(values: Sequence[int], force: str | None = None):
    """Build the suffix DP table for strictly increasing ints.

    `force` picks a tier ("numpy", the default, or "python"); values beyond
    INT64_SAFE take the python tier regardless. Returns (table, tier). The
    table is an int16 ndarray for the numpy tier and a list of lists for the
    python tier; both index as table[a][t].
    """
    if force is not None and force not in KERNEL_CHOICES:
        raise InvalidInput(f"unknown kernel {force!r}; expected {' or '.join(KERNEL_CHOICES)}")
    m = len(values)
    if m < 2:
        raise InvalidInput("table needs at least 2 elements")
    if m > MAX_TABLE:
        raise TooLarge(f"{m} elements exceeds the table cap {MAX_TABLE}")
    safe = max(abs(values[0]), abs(values[-1])) <= INT64_SAFE
    tier = (force or "numpy") if safe else "python"
    table = _table(values, tier)
    return (table if tier == "numpy" else table.tolist()), tier


def available_tiers() -> tuple[str, ...]:
    """Tiers that can run in this installation: both, always."""
    return KERNEL_CHOICES
