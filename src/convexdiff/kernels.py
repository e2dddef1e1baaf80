"""Kernels for the longest-convex-subsequence suffix DP table.

The table is g[a][t] = length of the longest convex subsequence that starts
with elements at positions a < t, and 0 for a >= t:

    g[a][t] = 1 + s[lo]    s[u] = max(g[t][u:]), s[m] = 1
    lo = first u > t with B[u] - B[t] > B[t] - B[a], or m if there is none

The entries are at most m <= MAX_TABLE, so the table is int16. The two tiers
run two different algorithms and return the same table, entry for entry:

  * numpy  - int64 values, the level pass; the table is the int16 ndarray
  * python - an object array of Python ints of any size, the column pass;
             the table is returned as a list of lists

Level pass. g[a][t] never decreases in a, so column t is fixed by its
steps r_l(t), the first row a with g[a][t] >= l. Let R_l(t) be the last
u > t with g[t][u] >= l (R_2(t) = m-1). Row a reaches level l+1 in column t
exactly when B[a] > 2*B[t] - B[R_l(t)], so one searchsorted over the live
columns gives every r_{l+1}(t); it is a step only where it is < t, and a
column without a step has none at any later level. R_{l+1}(t') =
max{u : r_{l+1}(u) <= t'} is a scatter-max of u at r_{l+1}(u) and a running
maximum, and column t' stays live only where it is > t'. The pass stops
when no column is live, after L levels for an answer L, so the levels take
O(L) numpy calls, not O(m). The table is g[a][t] = 2 + #{l >= 3 : r_l(t) <= a}:
one scatter per level, then a running sum down the rows, one add per row.

Column pass. Columns are filled t = m-1 down to 1. Every g[t][u] with
u > t lies in a later column, so row t and its suffix maximum s are
complete when column t starts. Column t is a step function of a with one
step per level of s: s never increases, and a row a reaches the level
ending at q (lo <= q) exactly when B[a] > 2*B[t] - B[q], that is for every
a >= r(q), one binary search. Placing 1 + s[q] at row r(q) and taking the
running maximum down the rows writes the column once. Only the levels
between lo(t-1) and lo(0) are reached, and the one holding lo(0) covers
every row. It makes about a dozen numpy calls per column.

The level pass does O(L*m) work and the column pass O(m^2) in many more
calls, so the level pass wins where L << m (difference sets, L/m near
0.06) and loses where L is near m (convex or near-convex inputs). The
python tier keeps the column pass: its inputs include convex big-int
windows, where a level pass over object arrays is about 6x slower, and the
tiers then check each other as independent algorithms.

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

# Both passes fill one dense (m x m) int16 table; 4096 keeps it near 34 MB (the
# python tier's list of lists adds an 8-byte pointer per entry, near 134 MB).
MAX_TABLE = 4096

# Threshold arithmetic computes 2*b[t] - b[a]; 3x headroom below 2^63.
INT64_SAFE = (2**63 - 1) // 4


def _level_table(values: Sequence[int]) -> np.ndarray:
    m = len(values)
    b = np.asarray(values, dtype=np.int64)
    g = np.zeros((m, m), dtype=np.int16)
    flat = g.reshape(-1)
    # Column t is 2 on rows [0, t) plus 1 on rows [r_l(t), t) per step, written
    # as differences (+ at the first row, - at row t) until the running sum.
    g[0, 1:] = 2
    flat[m + 1 :: m + 1] = -2
    t, far = np.arange(m - 1), np.full(m - 1, m - 1)  # live columns t and R_l(t)
    while t.size:
        r = np.searchsorted(b, 2 * b[t] - b[far], side="right")  # r_{l+1}(t)
        step = r < t
        r, t = r[step], t[step]
        flat[r * m + t] += 1  # t is distinct within a level
        flat[t * (m + 1)] -= 1
        top = np.full(m, -1)
        np.maximum.at(top, r, t)
        far = np.maximum.accumulate(top)[t]  # R_{l+1}(t)
        live = far > t
        t, far = t[live], far[live]
    # One add per row: numpy's cumsum down axis 0 walks the table a column at
    # a time and is about 10x slower at m = 3000.
    prev = g[0]
    for row in g[1:]:
        row += prev
        prev = row
    return g


def _column_table(values: Sequence[int]) -> np.ndarray:
    m = len(values)
    b = np.asarray(values, dtype=object)
    g = np.zeros((m, m), dtype=np.int16)
    s = np.ones(m + 1, dtype=np.int16)  # s[u] = max(g[t][u:]) for u >= near; s[m] = 1
    col = np.zeros(m, dtype=np.int16)  # 1 + s[q] placed at row r(q)
    for t in range(m - 1, 0, -1):
        twice = 2 * values[t]
        near = bisect_right(values, twice - values[t - 1], t + 1)  # lo of row t-1
        far = bisect_right(values, twice - values[0], near)  # lo of row 0
        np.maximum.accumulate(g[t, : near - 1 : -1], out=s[m - 1 : near - 1 : -1])
        k = (s[near:far] > s[near + 1 : far + 1]).nonzero()[0]  # level ends q = near + k
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
    if tier == "numpy":
        return _level_table(values), tier
    # perfbench tells the tiers apart by the table's type, so the python tier stays a list.
    return _column_table(values).tolist(), tier


def available_tiers() -> tuple[str, ...]:
    """Tiers that can run in this installation: both, always."""
    return KERNEL_CHOICES
