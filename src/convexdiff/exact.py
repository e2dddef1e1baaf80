"""Exact scalars, finite real sets, matchings, and elementary set operators.

All arithmetic is exact. A set stores its elements as strictly increasing
ints over one common denominator, so every comparison, gap and difference
is an int operation; single scalars are Fractions. Matching indices are
1-based, matching the usual way indexed families a_1 < ... < a_n are written.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, pairwise, starmap
from typing import Iterable, Iterator, Literal, Optional, Sequence, Union

from .errors import InvalidInput, InvalidMatching, TooLarge

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


def _scalar_json(num: int, den: int) -> dict[str, str]:
    try:
        return {"num": str(num), "den": str(den)}
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise TooLarge(f"scalar too long to write in decimal: {exc}") from exc


def scalar_to_json(value: Fraction) -> dict[str, str]:
    """Serialize to {"num": ..., "den": ...} decimal strings, den "1" for integers."""
    return _scalar_json(value.numerator, value.denominator)


def _scalar_pair(obj: object) -> tuple[int, int]:
    """The (num, den) of a scalar payload, in canonical lowest terms with den >= 1."""
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise InvalidInput(f"scalar payload must have exactly num/den keys: {obj!r}")
    num_s, den_s = obj["num"], obj["den"]
    if not isinstance(num_s, str) or not isinstance(den_s, str):
        raise InvalidInput("scalar num/den must be decimal strings")
    try:
        num, den = int(num_s), int(den_s)
    except ValueError as exc:  # not an integer, or too long to read
        raise InvalidInput(f"scalar strings not integers or too long to read: {exc}") from exc
    # Canonical: only str(n) is written, so signs other than "-", spaces, underscores,
    # leading zeros, "-0" and non-ASCII digits are refused.
    if str(num) != num_s or str(den) != den_s:
        raise InvalidInput(f"non-canonical scalar strings: num={num_s!r} den={den_s!r}")
    if den < 1:
        raise InvalidInput(f"scalar denominator must be >= 1, got {den}")
    if math.gcd(num, den) != 1:
        raise InvalidInput(f"scalar {num}/{den} is not in lowest terms")
    return num, den


def scalar_from_json(obj: object) -> Fraction:
    """Parse a scalar payload, requiring canonical lowest terms and den >= 1."""
    return Fraction(*_scalar_pair(obj))


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Values num/den as ints over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


@dataclass(frozen=True, init=False)
class RealSet:
    """A finite set of rationals: element t is ints[t] / den.

    `ints` strictly increase and den >= 1, kept canonical with
    gcd(den, *ints) == 1, so equal sets have equal fields and hashes.
    `elements`, the same values as Fractions, is derived on first use.
    """

    ints: tuple[int, ...]
    den: int

    def __init__(self, elements: Iterable[ScalarLike] = (), *, den: Optional[int] = None) -> None:
        """RealSet(values) coerces each value with as_exact; RealSet(ints, den=d)
        takes ints over d as they are. Either way they must strictly increase."""
        if den is None:
            elements, den = _over_lcm([as_exact(x).as_integer_ratio() for x in elements])
        ints = tuple(elements)
        if type(den) is not int or den < 1 or not set(map(type, ints)) <= {int}:
            raise InvalidInput(f"RealSet(ints, den=d) needs ints and an int d >= 1, got d={den!r}")
        if not all(map(operator.lt, ints, islice(ints, 1, None))):
            t = next(t for t in range(1, len(ints)) if ints[t] <= ints[t - 1])
            a, b = Fraction(ints[t - 1], den), Fraction(ints[t], den)
            raise InvalidInput(f"elements must strictly increase: {a} followed by {b}")
        g = math.gcd(den, *ints)
        if g > 1:
            ints, den = tuple(x // g for x in ints), den // g
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_values(cls, values: Iterable[ScalarLike]) -> "RealSet":
        """Build from arbitrary values with set semantics (sort, drop duplicates)."""
        ints, den = _over_lcm([as_exact(v).as_integer_ratio() for v in values])
        return cls(sorted(set(ints)), den=den)

    @cached_property
    def elements(self) -> tuple[Fraction, ...]:
        """The elements as Fractions, built on first use."""
        return tuple(Fraction(x, self.den) for x in self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __getitem__(self, idx: int) -> Fraction:
        return self.elements[idx]

    def __contains__(self, value: object) -> bool:
        probe = as_exact(value)  # type: ignore[arg-type]
        v, r = divmod(probe.numerator * self.den, probe.denominator)
        pos = bisect_left(self.ints, v)
        return not r and pos < len(self.ints) and self.ints[pos] == v

    def over(self, den: int) -> tuple[int, ...]:
        """The elements as ints over den, a multiple of self.den."""
        q, r = divmod(den, self.den)
        if r:
            raise InvalidInput(f"{den} is not a multiple of the denominator {self.den}")
        return self.ints if q == 1 else tuple(x * q for x in self.ints)

    def reduced(self) -> Iterator[tuple[int, int]]:
        """Each element as (num, den) in lowest terms, one gcd each, no Fractions."""
        den = self.den
        for x in self.ints:
            g = math.gcd(x, den)
            yield x // g, den // g

    def to_json(self) -> dict:
        return {"elements": [_scalar_json(p, q) for p, q in self.reduced()]}

    @classmethod
    def from_json(cls, obj: object) -> "RealSet":
        if not isinstance(obj, dict) or set(obj) != {"elements"}:
            raise InvalidInput("set payload must be an object whose only key is elements")
        items = obj["elements"]
        if not isinstance(items, list):
            raise InvalidInput("elements must be a list")
        ints, den = _over_lcm([_scalar_pair(it) for it in items])
        return cls(ints, den=den)


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


def gaps_increase(values: Sequence, strict: bool = True) -> bool:
    """True when the consecutive gaps of a sorted sequence increase.

    Strictly when `strict`, else never decreasing; sequences of length <= 2
    qualify. Works on any exactly subtractable values: the ints of a
    RealSet, or Fractions.
    """
    gaps = map(operator.sub, islice(values, 1, None), values)
    return all(starmap(operator.lt if strict else operator.le, pairwise(gaps)))


def is_convex(s: RealSet) -> bool:
    """True when consecutive gaps strictly increase; sets of size <= 2 qualify."""
    return gaps_increase(s.ints)


def is_weakly_convex(s: RealSet) -> bool:
    """True when consecutive gaps never decrease."""
    return gaps_increase(s.ints, strict=False)


def _pairwise(a: RealSet, op) -> RealSet:
    e = a.ints
    return RealSet(sorted({op(x, y) for x in e for y in e}), den=a.den)


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


def _restricted(a: RealSet, m: Matching, op) -> RealSet:
    if m.base_size != len(a):
        raise InvalidMatching(
            f"matching base size {m.base_size} != set size {len(a)}"
        )
    e = a.ints
    return RealSet(sorted({op(e[hi - 1], e[lo - 1]) for lo, hi in m.pairs}), den=a.den)


def restricted_difference_set(a: RealSet, m: Matching) -> RealSet:
    """Differences a_hi - a_lo over the matching's pairs (larger minus smaller)."""
    return _restricted(a, m, operator.sub)


def restricted_sum_set(a: RealSet, m: Matching) -> RealSet:
    """Sums a_lo + a_hi over the matching's pairs."""
    return _restricted(a, m, operator.add)


def count_representations(
    a: RealSet, x: ScalarLike, op: Literal["difference", "sum"]
) -> int:
    """Number of ordered pairs (p, q) in A x A with p - q = x (or p + q = x)."""
    if op not in ("difference", "sum"):
        raise InvalidInput(f"op must be 'difference' or 'sum', got {op!r}")
    target = as_exact(x)
    v, r = divmod(target.numerator * a.den, target.denominator)
    present, sign = set(a.ints), 1 if op == "difference" else -1
    return 0 if r else sum(v + sign * q in present for q in a.ints)


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
    return RealSet(vals, den=1)
