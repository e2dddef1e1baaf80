"""Exact scalars, finite real sets, matchings, and elementary set operators.

All arithmetic is exact: scalars are rationals, set elements are kept sorted,
and every comparison is performed without rounding. Matching indices are
1-based, matching the usual way indexed families a_1 < ... < a_n are written.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise, starmap
from typing import Iterable, Iterator, Literal, Sequence, Union

from .errors import InvalidInput, InvalidMatching

ExactScalar = Fraction

ScalarLike = Union[Fraction, int, str, tuple]


def as_exact(value: ScalarLike) -> Fraction:
    """Coerce an int, "p/q" string, (num, den) pair, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, tuple):
            num, den = value
            return Fraction(num, den)
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInput(f"not an exact scalar: {value!r}") from exc
    raise InvalidInput(f"unsupported scalar type: {type(value).__name__}")


def scalar_to_json(value: Fraction) -> dict[str, str]:
    """Serialize to {"num": ..., "den": ...} decimal strings, den "1" for integers."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def scalar_from_json(obj: object) -> Fraction:
    """Parse a scalar payload, requiring canonical lowest terms and den >= 1."""
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise InvalidInput(f"scalar payload must have exactly num/den keys: {obj!r}")
    num_s, den_s = obj["num"], obj["den"]
    if not isinstance(num_s, str) or not isinstance(den_s, str):
        raise InvalidInput("scalar num/den must be decimal strings")
    stripped = num_s[1:] if num_s.startswith("-") else num_s
    # isdigit() alone admits non-ASCII digits such as "²" or "١".
    if not (stripped.isascii() and stripped.isdigit() and den_s.isascii() and den_s.isdigit()):
        raise InvalidInput(f"malformed scalar strings: num={num_s!r} den={den_s!r}")
    num, den = int(num_s), int(den_s)
    if den < 1:
        raise InvalidInput(f"scalar denominator must be >= 1, got {den}")
    if math.gcd(num, den) != 1:
        raise InvalidInput(f"scalar {num}/{den} is not in lowest terms")
    return Fraction(num, den)


@dataclass(frozen=True)
class RealSet:
    """A finite set of rationals stored as a strictly increasing tuple."""

    elements: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coerced = tuple(as_exact(x) for x in self.elements)
        object.__setattr__(self, "elements", coerced)
        for t in range(1, len(coerced)):
            if coerced[t] <= coerced[t - 1]:
                raise InvalidInput(
                    f"elements must strictly increase: "
                    f"{coerced[t - 1]} followed by {coerced[t]}"
                )

    @classmethod
    def from_values(cls, values: Iterable[ScalarLike]) -> "RealSet":
        """Build from arbitrary values with set semantics (sort, drop duplicates)."""
        return cls(tuple(sorted({as_exact(v) for v in values})))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __getitem__(self, idx: int) -> Fraction:
        return self.elements[idx]

    def __contains__(self, value: object) -> bool:
        probe = as_exact(value)  # type: ignore[arg-type]
        pos = bisect_left(self.elements, probe)
        return pos < len(self.elements) and self.elements[pos] == probe

    def to_json(self) -> dict:
        return {"elements": [scalar_to_json(x) for x in self.elements]}

    @classmethod
    def from_json(cls, obj: object) -> "RealSet":
        if not isinstance(obj, dict) or "elements" not in obj:
            raise InvalidInput("set payload must be an object with an elements list")
        items = obj["elements"]
        if not isinstance(items, list):
            raise InvalidInput("elements must be a list")
        return cls(tuple(scalar_from_json(it) for it in items))


@dataclass(frozen=True)
class Matching:
    """Pairwise element-disjoint index pairs (lo, hi), 1-based, over a base set."""

    base_size: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if type(self.base_size) is not int or self.base_size < 0:
            raise InvalidMatching(f"base_size must be a nonnegative int: {self.base_size!r}")
        if not isinstance(self.pairs, (tuple, list)):
            raise InvalidMatching(f"pairs must be a tuple of pairs, got {self.pairs!r}")
        for p in self.pairs:
            if (
                not isinstance(p, (tuple, list))
                or len(p) != 2
                or any(type(x) is not int for x in p)
            ):
                raise InvalidMatching(f"each pair must be two int indices, got {p!r}")
        norm = tuple(tuple(p) for p in self.pairs)
        object.__setattr__(self, "pairs", norm)
        seen: set[int] = set()
        for lo, hi in norm:
            if not (1 <= lo < hi <= self.base_size):
                raise InvalidMatching(
                    f"pair ({lo}, {hi}) out of range for base size {self.base_size}"
                )
            if lo in seen or hi in seen:
                raise InvalidMatching(f"index reused by pair ({lo}, {hi})")
            seen.add(lo)
            seen.add(hi)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"base_size": self.base_size, "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, obj: object) -> "Matching":
        if not isinstance(obj, dict) or set(obj) != {"base_size", "pairs"}:
            raise InvalidInput("matching payload must have base_size and pairs")
        base_size, pairs = obj["base_size"], obj["pairs"]
        if type(base_size) is not int or not isinstance(pairs, list):
            raise InvalidInput("matching payload types: base_size int, pairs list")
        for p in pairs:
            if not isinstance(p, list) or len(p) != 2 or any(type(x) is not int for x in p):
                raise InvalidInput(f"each pair must be a list of two int indices, got {p!r}")
        return cls(base_size, tuple((lo, hi) for lo, hi in pairs))


@dataclass(frozen=True)
class DifferenceBlock:
    """Differences at a fixed index offset k: values a_{i+k} - a_i for i = first_index.."""

    k: int
    values: RealSet
    first_index: int
    count: int

    def __post_init__(self) -> None:
        if self.count != len(self.values):
            raise InvalidInput(
                f"block count {self.count} != number of values {len(self.values)}"
            )


def gaps_increase(values: Sequence, strict: bool = True) -> bool:
    """True when the consecutive gaps of a sorted sequence increase.

    Strictly when `strict`, else never decreasing; sequences of length <= 2
    qualify. Works on any exactly subtractable values: Fractions, or the
    scaled ints of the cubic family.
    """
    gaps = map(operator.sub, islice(values, 1, None), values)
    return all(starmap(operator.lt if strict else operator.le, pairwise(gaps)))


def is_convex(s: RealSet) -> bool:
    """True when consecutive gaps strictly increase; sets of size <= 2 qualify."""
    return gaps_increase(s.elements)


def is_weakly_convex(s: RealSet) -> bool:
    """True when consecutive gaps never decrease."""
    return gaps_increase(s.elements, strict=False)


def scaled_ints(elements: Sequence[Fraction]) -> tuple[list[int], int]:
    """The elements as ints over their least common denominator, and that denominator.

    Multiplying by a positive constant keeps order, ties and convexity.
    """
    den = math.lcm(*(x.denominator for x in elements))
    return [x.numerator * (den // x.denominator) for x in elements], den


def _pairwise(a: RealSet, op) -> RealSet:
    # Computed and sorted as ints over a common denominator, not as Fractions.
    vals, den = scaled_ints(a.elements)
    out = sorted({op(x, y) for x in vals for y in vals})
    return RealSet(tuple(Fraction(v, den) for v in out))


def difference_set(a: RealSet) -> RealSet:
    """All pairwise differences x - y, including 0 and negatives."""
    if len(a) == 0:
        raise InvalidInput("difference set of the empty set is undefined here")
    return _pairwise(a, operator.sub)


def sum_set(a: RealSet) -> RealSet:
    """All pairwise sums x + y (x = y allowed)."""
    if len(a) == 0:
        raise InvalidInput("sum set of the empty set is undefined here")
    return _pairwise(a, operator.add)


def restricted_difference_set(a: RealSet, m: Matching) -> RealSet:
    """Differences a_hi - a_lo over the matching's pairs (larger minus smaller)."""
    if m.base_size != len(a):
        raise InvalidMatching(
            f"matching base size {m.base_size} != set size {len(a)}"
        )
    e = a.elements
    return RealSet(tuple(sorted({e[hi - 1] - e[lo - 1] for lo, hi in m.pairs})))


def restricted_sum_set(a: RealSet, m: Matching) -> RealSet:
    """Sums a_lo + a_hi over the matching's pairs."""
    if m.base_size != len(a):
        raise InvalidMatching(
            f"matching base size {m.base_size} != set size {len(a)}"
        )
    e = a.elements
    return RealSet(tuple(sorted({e[lo - 1] + e[hi - 1] for lo, hi in m.pairs})))


def count_representations(
    a: RealSet, x: ScalarLike, op: Literal["difference", "sum"]
) -> int:
    """Number of ordered pairs (p, q) in A x A with p - q = x (or p + q = x)."""
    if op not in ("difference", "sum"):
        raise InvalidInput(f"op must be 'difference' or 'sum', got {op!r}")
    target = as_exact(x)
    if op == "difference":
        return sum(1 for q in a.elements if (q + target) in a)
    return sum(1 for q in a.elements if (target - q) in a)


def gen_convex_random(n: int, seed: int) -> RealSet:
    """A random convex set of n integers, deterministic for a given seed.

    Elements are cumulative sums of strictly increasing positive integer gaps,
    so the result is convex by construction and stays small enough for the
    fast integer kernels.
    """
    if n < 1:
        raise InvalidInput(f"size must be >= 1, got {n}")
    rng = random.Random(seed)
    vals = [rng.randrange(-20, 21)]
    gap = rng.randrange(1, 8)
    for _ in range(n - 1):
        vals.append(vals[-1] + gap)
        gap += rng.randrange(1, 10)
    return RealSet(tuple(Fraction(v) for v in vals))
