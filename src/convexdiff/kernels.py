"""Kernel for the longest-convex-subsequence suffix DP table.

The table is g[a][t] = length of the longest convex subsequence that starts
with elements at positions a < t:

    g[a][t] = 1 + s[lo]    s[u] = max(g[t][u:]), s[m] = 1
    lo = first u > t with B[u] - B[t] > B[t] - B[a], or m if there is none

It is filled column by column, t = m-1 down to 1. Every g[t][u] with u > t
lies in a later column, so row t and its suffix maximum s are complete when
column t starts. Column t is a step function of a with one step per level
of s: s never increases, and a row a reaches the level ending at q (lo <= q)
exactly when B[a] > 2*B[t] - B[q], that is for every a >= r(q), one binary
search. Placing 1 + s[q] at row r(q) and taking the running maximum down
the rows writes the column once. Only the levels between lo(t-1) and lo(0)
are reached, and the one holding lo(0) covers every row. The entries are at
most m <= MAX_TABLE, so the table is int16.

The two tiers differ only in how they find r(q):

  * numpy  - one searchsorted call per column over int64 values; the table
             is returned as the int16 ndarray
  * python - one bisect_right per level over Python ints of any size; the
             table is returned as a list of lists

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


def _table(values: Sequence[int], tier: str) -> np.ndarray:
    m = len(values)
    b = np.asarray(values, dtype=np.int64) if tier == "numpy" else None
    g = np.zeros((m, m), dtype=np.int16)
    s = np.ones(m + 1, dtype=np.int16)  # s[u] = max(g[t][u:]) for u >= near; s[m] = 1
    col = np.zeros(m, dtype=np.int16)  # 1 + s[q] placed at row r(q)
    for t in range(m - 1, 0, -1):
        twice = 2 * values[t]
        near = bisect_right(values, twice - values[t - 1], t + 1)  # lo of row t-1
        far = bisect_right(values, twice - values[0], near)  # lo of row 0
        np.maximum.accumulate(g[t, : near - 1 : -1], out=s[m - 1 : near - 1 : -1])
        k = (s[near:far] > s[near + 1 : far + 1]).nonzero()[0]  # level ends q = near + k
        if b is None:
            r = [bisect_right(values, twice - values[near + i], 0, t) for i in k.tolist()]
        else:
            r = np.searchsorted(b, 2 * b[t] - b[near:][k], side="right")
        col[:t] = 0
        col[0] = s[far] + 1
        np.maximum.at(col, r, s[near:][k] + 1)
        np.maximum.accumulate(col[:t], out=g[:t, t])
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
