"""Generators for the convex-subset constructions and their gluing.

The cubic family a_i = i + c1*i^2 + c2*i^3 (c1 = 75/n^2, c2 = 1/n^5) is handled
internally as integers scaled by n^5, so every value, block difference, and
comparison is exact. Thm1Params owns the scaled closed form of the block
differences d_i^(k) = a_{i+k} - a_i; the glue and the claim checks read it
from there. Blocks D_k = {a_{i+k} - a_i} for k in [ceil(0.009n),
floor(0.01n)] are glued left to right through interleaving splices: whenever
b_i <= a_j < a_{j+1} <= b_{i+1}, the set {a_1..a_j, b_{i+1}..b_m} is convex.

The other families: the sqrt(n)-size matching with pairs
(k+1-i, k+1+i(i+1)/2), the base-(2n) digit set a_j = j(2n)^n + (j-1)(2n)^{n-1}
+ ... + (2n)^{n-j+1} with its digit-decoding inverse, and the half-offset sum
matching (t, n/2+t).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .errors import InsufficientN, InvalidInput, InvalidParams, NoSplice
from .exact import (
    ExactScalar,
    Matching,
    RealSet,
    as_exact,
    gaps_increase,
    is_convex,
)


@dataclass(frozen=True)
class Thm1Params:
    """Resolved parameters of the cubic construction at a given n."""

    n: int
    k_min: int
    k_max: int
    i_max: int

    @classmethod
    def for_n(cls, n: int, strict: bool = False) -> "Thm1Params":
        """Validate n and resolve the index ranges.

        Strict mode enforces the multiple-of-100, n >= 1000 hypothesis.
        Lenient mode accepts any n >= 100 whose offset window
        [ceil(0.009n), floor(0.01n)] contains an integer.
        """
        if not isinstance(n, int):
            raise InvalidParams(f"n must be an int, got {type(n).__name__}")
        if strict:
            if n < 1000 or n % 100 != 0:
                raise InvalidParams(
                    f"strict mode needs a multiple of 100 with n >= 1000, got {n}"
                )
        elif n < 100:
            raise InvalidParams(f"n must be >= 100, got {n}")
        k_min = -((-9 * n) // 1000)
        k_max = n // 100
        i_max = (99 * n) // 100
        if k_min > k_max:
            raise InvalidParams(
                f"no integer offset lies in [0.009n, 0.01n] = "
                f"[{Fraction(9 * n, 1000)}, {Fraction(n, 100)}] for n={n}"
            )
        assert i_max + k_max <= n
        return cls(n=n, k_min=k_min, k_max=k_max, i_max=i_max)

    def coeffs(self, k: int) -> tuple[int, int, int]:
        """(const, lin, quad) with d_i^(k) * n^5 = const + (lin + quad*i)*i."""
        n3 = self.n**3
        return k * self.n**5 + 75 * n3 * k * k + k**3, 150 * n3 * k + 3 * k * k, 3 * k

    def gap(self, k: int, i: int) -> int:
        """d_i^(k) = a_{i+k} - a_i scaled by n^5, for any k and i."""
        const, lin, quad = self.coeffs(k)
        return const + (lin + quad * i) * i

    def block(self, k: int) -> list[int]:
        """All d_i^(k) scaled by n^5 for i = 1..i_max."""
        const, lin, quad = self.coeffs(k)
        return [const + (lin + quad * i) * i for i in range(1, self.i_max + 1)]


def _scaled_set_values(n: int) -> list[int]:
    """All a_i scaled by n^5, coefficients hoisted out of the loop."""
    n5, c = n**5, 75 * n**3
    return [((i + c) * i + n5) * i for i in range(1, n + 1)]


def thm1_set(n: int, strict: bool = False) -> RealSet:
    """The convex set {a_i = i + c1*i^2 + c2*i^3 : 1 <= i <= n}."""
    params = Thm1Params.for_n(n, strict)
    return RealSet(_scaled_set_values(params.n), den=n**5)


def thm1_block(n: int, k: int, strict: bool = False) -> RealSet:
    """The difference block D_k = {a_{i+k} - a_i : 1 <= i <= floor(0.99n)}."""
    params = Thm1Params.for_n(n, strict)
    if not (params.k_min <= k <= params.k_max):
        raise InvalidParams(
            f"offset k={k} outside [{params.k_min}, {params.k_max}] for n={n}"
        )
    return RealSet(params.block(k), den=n**5)


@dataclass(frozen=True)
class SpliceRecord:
    """One glue step: block k was attached via prefix end j, suffix start i."""

    k: int
    j: int
    i: int


@dataclass(frozen=True)
class GlueTrace:
    """Reproducibility record of a glue chain, one splice per attached block."""

    splices: tuple[SpliceRecord, ...]

    def to_json(self) -> dict:
        return {"splices": [{"k": r.k, "j": r.j, "i": r.i} for r in self.splices]}


def _best_splice(ea: Sequence, eb: Sequence) -> Optional[tuple[int, int]]:
    """The splice (i, j) glue_pair picks for sorted ea, eb, or None if none exists.

    Only comparisons are made, so ea and eb may be any two sorted sequences
    of ints over one denominator.
    """
    n, m = len(ea), len(eb)
    if n < 2 or m < 2:
        return None
    # A valid j needs b_1 <= a_j and a_(j+1) <= b_m: bisect to that range,
    # then one pass over j. Both scan positions are monotone because A increases.
    j_start = bisect_left(ea, eb[0])
    j_stop = bisect_right(ea, eb[-1]) - 1
    if j_start >= j_stop:
        return None
    best_size = -1
    best_i = best_j = 0
    num_le = bisect_right(eb, ea[j_start])  # 1-based count of b-elements <= a_j
    first_ge = bisect_left(eb, ea[j_start + 1])  # 0-based position of first b >= a_(j+1)
    for j_idx in range(j_start, j_stop):
        while num_le < m and eb[num_le] <= ea[j_idx]:
            num_le += 1
        while first_ge < m and eb[first_ge] < ea[j_idx + 1]:
            first_ge += 1
        i_lo = max(1, first_ge)  # i+1 must reach the first b >= a_{j+1}
        i_hi = min(num_le, m - 1)  # b_i <= a_j and b_{i+1} must exist
        if i_lo <= i_hi:
            size = (j_idx + 1) + (m - i_lo)
            if size > best_size:  # an equal size at a later j has a larger i_lo
                best_size, best_i, best_j = size, i_lo, j_idx + 1
    return (best_i, best_j) if best_size >= 0 else None


def _splice(ea: Sequence, eb: Sequence) -> tuple[Sequence, tuple[int, int]]:
    """Splice sorted convex sequences as glue_pair does, checking only the seam.

    The caller checks that ea and eb are convex. Given that, the result is
    convex exactly when its gaps increase across the join, so only the <= 4
    elements a_(j-1), a_j, b_(i+1), b_(i+2) are read. The interleaving makes
    that hold for every splice _best_splice may return, so a seam that fails
    is a fault in the program and raises AssertionError.
    """
    found = _best_splice(ea, eb)
    if found is None:
        raise NoSplice(
            f"no interleaving b_i <= a_j < a_(j+1) <= b_(i+1) between the sets "
            f"(|A|={len(ea)}, |B|={len(eb)})"
        )
    i, j = found
    if not gaps_increase([*ea[max(j - 2, 0) : j], *eb[i : i + 2]]):
        raise AssertionError(f"splice (i, j) = {found} leaves a non-convex seam")
    return ea[:j] + eb[i:], found


def glue_pair(a: RealSet, b: RealSet) -> tuple[RealSet, tuple[int, int]]:
    """Glue convex B onto convex A across an interleaving splice.

    Searches for 1-based indices with b_i <= a_j < a_{j+1} <= b_{i+1} and
    returns ({a_1..a_j, b_{i+1}..b_m}, (i, j)). Among valid splices the
    output-size-maximizing one is chosen, ties broken by smallest i, which
    makes the result a deterministic function of (A, B).

    Both inputs are checked convex (InvalidInput otherwise) and the seam of
    the result is checked; with the RealSet's own order check, the glued set
    returned is verified convex.
    """
    if not is_convex(a):
        raise InvalidInput("glue_pair: first argument is not convex")
    if not is_convex(b):
        raise InvalidInput("glue_pair: second argument is not convex")
    den = math.lcm(a.den, b.den)
    merged, ij = _splice(a.over(den), b.over(den))
    return RealSet(merged, den=den), ij


def _convex_block(params: Thm1Params, k: int) -> list[int]:
    """params.block(k), checked convex: the one check glue_chain makes on D_k."""
    block = params.block(k)
    if not gaps_increase(block):
        raise InvalidInput(f"glue_chain: block D_{k} is not convex for n={params.n}")
    return block


def glue_chain(n: int, strict: bool = False) -> tuple[RealSet, GlueTrace]:
    """Glue the blocks D_{k_min}, ..., D_{k_max} into one convex set.

    Returns the running set and the trace of splices. The blocks are spliced
    as ints scaled by n^5, with the same choices as glue_pair on thm1_block
    values; the result becomes a RealSet once, at the end. Each block is
    checked convex once, when it is built (InvalidInput otherwise), and each
    splice checks its seam. A convex set spliced to a convex block across a
    convex seam is convex, so by induction the finished set, its last seam
    included, is verified convex without re-reading the running set. A
    NoSplice from any step propagates; for valid n that would contradict the
    interleaving claim and is treated as a verification failure by callers.
    """
    params = Thm1Params.for_n(n, strict)
    running = _convex_block(params, params.k_min)
    records = []
    for k in range(params.k_min + 1, params.k_max + 1):
        running, (i, j) = _splice(running, _convex_block(params, k))
        records.append(SpliceRecord(k=k, j=j, i=i))
    return RealSet(running, den=n**5), GlueTrace(tuple(records))


def thm2_matching(a: RealSet) -> Matching:
    """The ceil(sqrt(n))-pair matching (k+1-i, k+1+i(i+1)/2), i = 1..k.

    Its restricted difference set telescopes into sums of consecutive gaps
    whose second differences are positive for convex A, so the restricted
    difference set is convex.
    """
    if not is_convex(a):
        raise InvalidInput("thm2_matching: base set is not convex")
    n = len(a)
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    need = k + 1 + k * (k + 1) // 2
    if need > n:
        raise InsufficientN(
            f"need k+1+k(k+1)/2 = {need} <= n = {n} for k = ceil(sqrt(n)) = {k}"
        )
    pairs = tuple((k + 1 - i, k + 1 + i * (i + 1) // 2) for i in range(1, k + 1))
    return Matching(base_size=n, pairs=pairs)


def thm3_set(n: int) -> RealSet:
    """The base-(2n) digit set a_j = j(2n)^n + (j-1)(2n)^{n-1} + ... + (2n)^{n-j+1}."""
    if not isinstance(n, int) or n < 2:
        raise InvalidParams(f"n must be an int >= 2, got {n!r}")
    # a_1 = (2n)^n and a_{j+1} - a_j = (2n)^n + ... + (2n)^{n-j}: partial sums of partial sums.
    steps = accumulate((2 * n) ** e for e in range(n, 0, -1))
    return RealSet(list(accumulate(steps)), den=1)


def thm3_block_of(n: int, x: ExactScalar) -> tuple[int, int] | None:
    """Decode which block difference of thm3_set(n) the value x is.

    If x = a_{j+k} - a_j, its base-(2n) digits are k repeated j+1 times,
    then k-1, k-2, ..., 1, then zeros; no carries occur since every digit
    stays below 2n. Returns the unique (k, j), or None when x is not a
    positive difference of the set.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParams(f"n must be an int >= 2, got {n!r}")
    q = as_exact(x)
    if q.denominator != 1 or q <= 0:
        return None
    v = q.numerator
    base = 2 * n
    digits = []
    while v:
        digits.append(v % base)
        v //= base
    if len(digits) > n + 1:
        return None
    digits += [0] * (n + 1 - len(digits))
    k = digits[n]
    if not 1 <= k <= n - 1:
        return None
    e = n
    while e >= 0 and digits[e] == k:
        e -= 1
    j = (n - e) - 1  # leading run has length j+1
    if j < 1 or j > n - k:
        return None
    for expect in range(k - 1, 0, -1):
        if e < 0 or digits[e] != expect:
            return None
        e -= 1
    if any(digits[t] != 0 for t in range(e + 1)):
        return None
    return (k, j)


def thm4_matching(a: RealSet) -> Matching:
    """The half-offset sum matching (t, n/2+t); for odd n the top element is unused.

    Consecutive restricted sums differ by d_t + d_{n/2+t}, which strictly
    increases in t for convex A, so the restricted sum set is convex.
    """
    n = len(a)
    if n < 2:
        raise InvalidParams(f"need at least 2 elements, got {n}")
    if not is_convex(a):
        raise InvalidInput("thm4_matching: base set is not convex")
    h = n // 2
    pairs = tuple((t, h + t) for t in range(1, h + 1))
    return Matching(base_size=n, pairs=pairs)


def squares_set(n: int) -> RealSet:
    """The first n squares {i^2 : 1 <= i <= n}; convex since gaps are 2i+1."""
    if not isinstance(n, int) or n < 1:
        raise InvalidParams(f"n must be an int >= 1, got {n!r}")
    return RealSet([i * i for i in range(1, n + 1)], den=1)
