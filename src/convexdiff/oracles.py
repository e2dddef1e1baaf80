"""Exact oracles for the extremal quantities, independent of the constructions.

Every oracle returns an OracleResult carrying the exact value, a witness that
is re-validated before returning, and an exhaustiveness flag. Witnesses are
the lexicographically smallest optimizers, so results are stable across runs
and across the two LCS kernel tiers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Union

from . import kernels
from .errors import InvalidInput, TooLarge
from .exact import Matching, RealSet, gaps_increase, is_convex, restricted_difference_set


@dataclass(frozen=True)
class OracleResult:
    """An extremal value, an optimizer achieving it, and an exhaustiveness flag."""

    value: int
    witness: Union[RealSet, Matching]
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "exhaustive": self.exhaustive,
            "witness": self.witness.to_json(),
        }


def lcs_convex(b: RealSet) -> OracleResult:
    """Size of the largest convex subset of B, by the suffix DP over last-two states.

    `kernels.compute_table` builds the table for ints of any size. Its int64
    tier runs the level pass and its big-int tier the column pass; both return
    the same table, so the value and the witness do not depend on the tier.
    """
    m = len(b)
    if m == 0:
        raise InvalidInput("lcs_convex needs a nonempty set")
    if m <= 2:
        return OracleResult(m, b, True)
    scaled = b.ints
    g, _tier = kernels.compute_table(scaled)
    # One pass for the row maxima (entries g[a][t<=a] are 0). The witness
    # starts at the first row reaching the maximum; each step then takes the
    # first r at or past the kernel's threshold whose entry is still needed.
    row_best = [max(row) for row in g] if isinstance(g, list) else g.max(axis=1).tolist()
    total = max(row_best)
    seq = [row_best.index(total)]
    lo, need = seq[0] + 1, total
    while need > 1:
        q = seq[-1]
        r = next((r for r in range(lo, m) if g[q][r] == need), None)
        if r is None:
            raise AssertionError(f"table inconsistent: no entry {need} in row {q} from {lo}")
        seq.append(r)
        lo, need = bisect_right(scaled, 2 * scaled[r] - scaled[q], r + 1), need - 1
    witness = RealSet([scaled[t] for t in seq], den=b.den)
    assert len(witness) == total and is_convex(witness)
    return OracleResult(total, witness, True)


# The brute force tries up to 2^m subsets; above this m it is refused.
LCS_BRUTE_MAX_N = 20


def lcs_convex_bruteforce(b: RealSet) -> OracleResult:
    """Reference oracle: enumerate subsets largest-first, lexicographic within a size."""
    m = len(b)
    if m == 0:
        raise InvalidInput("lcs_convex_bruteforce needs a nonempty set")
    if m > LCS_BRUTE_MAX_N:
        raise TooLarge(f"{m} elements exceeds the brute-force guard {LCS_BRUTE_MAX_N}")
    vals = b.ints
    for size in range(m, 0, -1):
        for combo in itertools.combinations(range(m), size):
            chosen = [vals[t] for t in combo]
            if gaps_increase(chosen):
                return OracleResult(size, RealSet(chosen, den=b.den), True)
    raise AssertionError("unreachable: every singleton is convex")


def _sorted_pairs(a: RealSet) -> tuple[list[tuple[int, int]], list[int]]:
    """All index pairs sorted by (difference, lo, hi), plus their differences over a.den."""
    e = a.ints
    n = len(e)
    pairs = sorted(
        ((lo, hi) for lo in range(1, n + 1) for hi in range(lo + 1, n + 1)),
        key=lambda p: (e[p[1] - 1] - e[p[0] - 1], p[0], p[1]),
    )
    return pairs, [e[hi - 1] - e[lo - 1] for lo, hi in pairs]


def _convex_matchings(a: RealSet) -> Iterator[list[tuple[int, int]]]:
    """Every matching on A whose restricted difference set is convex, once each.

    Depth-first search over pairs in increasing difference order. A branch
    adds a pair only when its difference either repeats the last distinct
    value or exceeds it by more than the previous distinct gap, which is
    exactly the condition keeping the distinct-value set convex. Yields the
    live list of chosen pairs at every node, the empty matching first; a
    caller that keeps one must copy it.
    """
    n = len(a)
    pairs, diffs = _sorted_pairs(a)
    used = [False] * (n + 1)
    chosen: list[tuple[int, int]] = []
    distinct: list[int] = []

    def dfs(pos: int) -> Iterator[list[tuple[int, int]]]:
        yield chosen
        for idx in range(pos, len(pairs)):
            lo, hi = pairs[idx]
            if used[lo] or used[hi]:
                continue
            d = diffs[idx]
            fresh = not distinct or d != distinct[-1]
            if (
                fresh
                and len(distinct) >= 2
                and d - distinct[-1] <= distinct[-1] - distinct[-2]
            ):
                continue
            used[lo] = used[hi] = True
            chosen.append((lo, hi))
            if fresh:
                distinct.append(d)
            yield from dfs(idx + 1)
            if fresh:
                distinct.pop()
            chosen.pop()
            used[lo] = used[hi] = False

    yield from dfs(0)


# The matching DFS visits every convex matching; above this size it is refused.
CM_MAX_N = 12


def max_convex_matching(a: RealSet) -> OracleResult:
    """Largest matching on A whose restricted difference set is convex.

    |M| counts pairs, so repeated difference values still count. Ties go to
    the lexicographically smallest sorted pair list.
    """
    if not is_convex(a):
        raise InvalidInput("max_convex_matching is defined for convex base sets")
    n = len(a)
    if n > CM_MAX_N:
        raise TooLarge(f"{n} elements exceeds the exhaustive guard {CM_MAX_N}")
    best_size = -1
    best: tuple[tuple[int, int], ...] = ()
    for chosen in _convex_matchings(a):
        if len(chosen) >= best_size:
            canon = tuple(sorted(chosen))
            if len(chosen) > best_size or canon < best:
                best_size, best = len(chosen), canon
    witness = Matching(base_size=n, pairs=best)
    assert len(witness) == best_size
    assert is_convex(restricted_difference_set(a, witness))
    return OracleResult(best_size, witness, True)


def iter_convex_matchings(a: RealSet) -> Iterator[Matching]:
    """Every matching on convex A whose restricted difference set is convex,
    the empty matching included."""
    if not is_convex(a):
        raise InvalidInput("iter_convex_matchings is defined for convex base sets")
    for chosen in _convex_matchings(a):
        yield Matching(base_size=len(a), pairs=tuple(chosen))


# The no-4-AP table has (n + 1)(n + 2) entries; above this n it is refused.
NO4AP_MAX_N = 2000


def max_weakly_convex_no4ap(n: int) -> OracleResult:
    """Largest weakly convex K in {1..n} with no four consecutive elements in AP.

    Four consecutive elements in AP means three consecutive equal gaps. Let
    h[x][g] be the most elements that can follow x when every later gap is
    >= g and the first of them starts a new run. The gap g may then be taken
    once or twice, so h[x][g] = max(h[x][g+1], 1 + after(x+g, g, 2)), a
    suffix maximum over g; the table is filled in O(n^2) and the result is
    exhaustive for every n. The witness is the lexicographically smallest.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInput(f"n must be an int >= 1, got {n!r}")
    if n > NO4AP_MAX_N:
        raise TooLarge(f"n = {n} exceeds the no4ap table guard {NO4AP_MAX_N}")
    h = [[0] * (n + 2) for _ in range(n + 1)]

    def after(y: int, g: int, run: int) -> int:
        """Most elements after y, reached by gap g at the end of a run of
        `run` (2 or 3) elements in AP."""
        if run == 3 or y + g > n:
            return h[y][g + 1]
        return max(h[y][g + 1], 1 + h[y + g][g + 1])

    for x in range(n - 1, 0, -1):
        row = h[x]
        for g in range(n - x, 0, -1):
            row[g] = max(row[g + 1], 1 + after(x + g, g, 2))
    total = 1 + max(h[x][1] for x in range(1, n + 1))
    seq = [next(x for x in range(1, n + 1) if 1 + h[x][1] == total)]
    # The first gap is free: gap 0 with a full run admits every g2 >= 1.
    gap, run, need = 0, 3, total - 1
    while need > 0:
        last = seq[-1]
        for g2 in range(gap, n - last + 1):
            nrun = 3 if g2 == gap else 2
            if nrun == run == 3:
                continue
            if 1 + after(last + g2, g2, nrun) == need:
                break
        else:
            raise AssertionError("DP inconsistent: no extension found")
        seq.append(last + g2)
        gap, run, need = g2, nrun, need - 1
    witness = RealSet(seq, den=1)
    assert len(witness) == total
    return OracleResult(total, witness, True)


def enumerate_convex_subsets(b: RealSet) -> Iterator[RealSet]:
    """Convex subsets of B with at least three elements, depth first, so in
    lexicographic order of their index tuples. Cap with itertools.islice."""
    e, den = b.ints, b.den
    seq: list[int] = []

    def extend(start: int) -> Iterator[RealSet]:
        for idx in range(start, len(e)):
            if len(seq) >= 2 and e[idx] - e[seq[-1]] <= e[seq[-1]] - e[seq[-2]]:
                continue
            seq.append(idx)
            if len(seq) >= 3:
                yield RealSet([e[t] for t in seq], den=den)
            yield from extend(idx + 1)
            seq.pop()

    yield from extend(0)
