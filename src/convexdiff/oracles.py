"""Exact oracles for the extremal quantities, independent of the constructions.

Every oracle returns an OracleResult carrying the exact value, a witness that
is re-validated before returning, and an exhaustiveness flag. Witnesses are
the lexicographically smallest optimizers, so results are stable across runs
and kernel tiers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

from . import kernels
from .errors import InvalidInput, InvalidParams, TooLarge
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
    """Size of the largest convex subset of B, by the suffix DP over last-two states."""
    m = len(b)
    if m == 0:
        raise InvalidInput("lcs_convex needs a nonempty set")
    if m <= 2:
        return OracleResult(m, b, True)
    scaled = b.ints
    g, _tier = kernels.compute_table(scaled)
    # One pass for the row maxima (entries g[a][t<=a] are 0); the witness
    # starts at the first row reaching the maximum, at its first such column.
    if isinstance(g, list):
        row_best = [max(row) for row in g]
    else:
        row_best = g.max(axis=1).tolist()
    total = max(row_best)
    a1 = row_best.index(total)
    t1 = next(t for t in range(a1 + 1, m) if g[a1][t] == total)
    seq = [a1, t1]
    p, q, need = a1, t1, total
    while need > 2:
        thr = 2 * scaled[q] - scaled[p]
        for r in range(q + 1, m):
            if scaled[r] > thr and int(g[q][r]) == need - 1:
                seq.append(r)
                p, q, need = q, r, need - 1
                break
        else:
            raise AssertionError("table inconsistent: no continuation found")
    witness = RealSet([scaled[t] for t in seq], den=b.den)
    assert len(witness) == total and is_convex(witness)
    return OracleResult(total, witness, True)


def lcs_convex_bruteforce(b: RealSet, limit: int = 20) -> OracleResult:
    """Reference oracle: enumerate subsets largest-first, lexicographic within a size."""
    m = len(b)
    if m == 0:
        raise InvalidInput("lcs_convex_bruteforce needs a nonempty set")
    if m > limit:
        raise TooLarge(f"{m} elements exceeds the brute-force guard {limit}")
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


def max_convex_matching(a: RealSet, limit: int = 12) -> OracleResult:
    """Largest matching on A whose restricted difference set is convex.

    Depth-first search over pairs in increasing difference order. A branch
    adds a pair only when its difference either repeats the last distinct
    value or exceeds it by more than the previous distinct gap, which is
    exactly the condition keeping the distinct-value set convex. |M| counts
    pairs, so repeated difference values still count.
    """
    if limit < 0:
        raise InvalidParams(f"limit must be >= 0, got {limit}")
    if not is_convex(a):
        raise InvalidInput("max_convex_matching is defined for convex base sets")
    n = len(a)
    if n > limit:
        raise TooLarge(f"{n} elements exceeds the exhaustive guard {limit}")
    pairs, diffs = _sorted_pairs(a)
    used = [False] * (n + 1)
    chosen: list[tuple[int, int]] = []
    distinct: list[int] = []
    best_size = -1
    best_canon: tuple[tuple[int, int], ...] = ()

    def consider() -> None:
        nonlocal best_size, best_canon
        canon = tuple(sorted(chosen))
        if len(chosen) > best_size or (
            len(chosen) == best_size and canon < best_canon
        ):
            best_size, best_canon = len(chosen), canon

    def dfs(pos: int, free: int) -> None:
        consider()
        # Even pairing every free element cannot beat the best: cut. Ties
        # must be explored for the lexicographic winner.
        if len(chosen) + free // 2 < best_size:
            return
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
            dfs(idx + 1, free - 2)
            if fresh:
                distinct.pop()
            chosen.pop()
            used[lo] = used[hi] = False

    dfs(0, n)
    witness = Matching(base_size=n, pairs=best_canon)
    assert len(witness) == best_size
    assert is_convex(restricted_difference_set(a, witness))
    return OracleResult(best_size, witness, True)


def iter_convex_matchings(a: RealSet) -> Iterator[Matching]:
    """Every matching on convex A whose restricted difference set is convex.

    Enumerated without value pruning (the harness for the block-index claims
    needs all of them, including the empty matching).
    """
    if not is_convex(a):
        raise InvalidInput("iter_convex_matchings is defined for convex base sets")
    n = len(a)
    pairs, diffs = _sorted_pairs(a)
    used = [False] * (n + 1)
    chosen: list[tuple[int, int]] = []
    distinct: list[int] = []

    def dfs(pos: int) -> Iterator[Matching]:
        yield Matching(base_size=n, pairs=tuple(chosen))
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


def max_weakly_convex_no4ap(n: int) -> OracleResult:
    """Largest weakly convex K in {1..n} with no four consecutive elements in AP.

    Four consecutive elements in AP means three consecutive equal gaps, so
    the DP state is (last element, last gap, trailing AP length capped at 3)
    and the search is polynomial; results are exhaustive for every n.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidInput(f"n must be an int >= 1, got {n!r}")
    if n == 1:
        return OracleResult(1, RealSet([1], den=1), True)

    memo: dict[tuple[int, int, int], int] = {}

    def best(last: int, gap: int, run: int) -> int:
        key = (last, gap, run)
        got = memo.get(key)
        if got is not None:
            return got
        res = 0
        for g2 in range(gap, n - last + 1):
            if g2 == gap:
                if run == 3:
                    continue
                cand = 1 + best(last + g2, g2, 3)
            else:
                cand = 1 + best(last + g2, g2, 2)
            if cand > res:
                res = cand
        memo[key] = res
        return res

    total = max(
        2 + best(b, b - a, 2) for a in range(1, n) for b in range(a + 1, n + 1)
    )
    a1 = next(
        a
        for a in range(1, n)
        if any(2 + best(b, b - a, 2) == total for b in range(a + 1, n + 1))
    )
    b1 = next(b for b in range(a1 + 1, n + 1) if 2 + best(b, b - a1, 2) == total)
    seq = [a1, b1]
    last, gap, run, need = b1, b1 - a1, 2, total - 2
    while need > 0:
        for g2 in range(gap, n - last + 1):
            if g2 == gap and run == 3:
                continue
            nrun = 3 if g2 == gap else 2
            if 1 + best(last + g2, g2, nrun) == need:
                seq.append(last + g2)
                last, gap, run, need = last + g2, g2, nrun, need - 1
                break
        else:
            raise AssertionError("DP inconsistent: no extension found")
    witness = RealSet(seq, den=1)
    assert len(witness) == total
    return OracleResult(total, witness, True)


class ConvexSubsetStream:
    """Iterates convex subsets of size >= 3 in lexicographic index order.

    size_cap bounds subset size, count_cap bounds the number of yields;
    `truncated` reports whether the count cap cut the enumeration short.
    """

    def __init__(
        self,
        base: RealSet,
        size_cap: int | None = None,
        count_cap: int | None = None,
    ) -> None:
        self.base = base
        self.size_cap = len(base) if size_cap is None else size_cap
        self.count_cap = count_cap
        self.truncated = False
        self.yielded = 0

    def __iter__(self) -> Iterator[RealSet]:
        e, den = self.base.ints, self.base.den
        m = len(e)
        if self.size_cap < 3:
            return
        seq: list[int] = []

        def extend(start: int) -> Iterator[RealSet]:
            for idx in range(start, m):
                if len(seq) >= 2 and e[idx] - e[seq[-1]] <= e[seq[-1]] - e[seq[-2]]:
                    continue
                seq.append(idx)
                capped = False
                if len(seq) >= 3:
                    if self.count_cap is not None and self.yielded >= self.count_cap:
                        self.truncated = True
                        capped = True
                    else:
                        self.yielded += 1
                        yield RealSet([e[t] for t in seq], den=den)
                if not capped and len(seq) < self.size_cap:
                    yield from extend(idx + 1)
                seq.pop()
                if self.truncated:
                    return

        yield from extend(0)


def enumerate_convex_subsets(
    b: RealSet, size_cap: int | None = None, count_cap: int | None = None
) -> ConvexSubsetStream:
    """Stream of convex subsets of B (size >= 3), lexicographic, cap-aware."""
    return ConvexSubsetStream(b, size_cap, count_cap)
