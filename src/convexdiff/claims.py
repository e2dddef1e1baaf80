"""Mechanized verification of the counting claims behind the constructions.

The block-interleaving, interval-count and size claims are checked with exact
integer arithmetic on values scaled by n^5 (one common denominator for the
whole cubic family, so every comparison is an int comparison). The block
values come from the d_i^(k) closed form that constructions.Thm1Params owns.
Membership of the glued set in A - A is checked by definition instead, against
the differences of the elements of thm1_set(n), so an error in either closed
form shows up as a non-member. The digit-set claims are checked structurally:
block membership is re-derived purely by digit decoding, never by remembering
where a value came from, so a decoding bug cannot confirm itself. Growth
tables back the quantitative conclusions.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import sub
from typing import Optional, Sequence

from .constructions import (
    Thm1Params,
    glue_chain,
    squares_set,
    thm1_set,
    thm3_block_of,
    thm3_set,
)
from .errors import InvalidInput, InvalidParams, TooLarge
from .exact import (
    RealSet,
    difference_set,
    gaps_increase,
    restricted_difference_set,
)
from .oracles import (
    CM_MAX_N,
    enumerate_convex_subsets,
    iter_convex_matchings,
    lcs_convex,
    max_convex_matching,
    max_weakly_convex_no4ap,
)


@dataclass(frozen=True)
class Report:
    """Outcome envelope: pass/fail with a counterexample iff failed."""

    claim_id: str
    params: dict
    passed: bool
    counterexample: Optional[dict]
    counts: dict

    def __post_init__(self) -> None:
        if self.passed != (self.counterexample is None):
            raise InvalidInput("passed must mirror the absence of a counterexample")

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "counts": self.counts,
        }


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def verify_claim_2_1(n: int) -> Report:
    """Interleaving claim: each consecutive block pair (D_k, D_{k+1}) admits
    indices with d_i^(k+1) <= d_j^(k) < d_{j+1}^(k) <= d_{i+1}^(k+1).

    Checked for every k in [k_min, k_max - 1]; the found (i, j) per k is
    recorded. Exact integer comparisons throughout.
    """
    p = Thm1Params.for_n(n)
    counts: dict[str, int] = {}
    counterexample = None
    cur = p.block(p.k_min)
    for k in range(p.k_min, p.k_max):
        nxt = p.block(k + 1)
        hit = None
        for i_idx in range(p.i_max - 1):
            j0 = bisect_left(cur, nxt[i_idx])
            if j0 + 1 < p.i_max and cur[j0 + 1] <= nxt[i_idx + 1]:
                hit = (i_idx + 1, j0 + 1)
                break
        if hit is None:
            counterexample = {"k": k, "reason": "no interleaving (i, j) found"}
            break
        counts[f"i_at_k{k}"] = hit[0]
        counts[f"j_at_k{k}"] = hit[1]
        cur = nxt
    return Report(
        claim_id="claim21",
        params={"n": n, "k_min": p.k_min, "k_max": p.k_max},
        passed=counterexample is None,
        counterexample=counterexample,
        counts=counts,
    )


def verify_claim_2_2(n: int) -> Report:
    """Interval-count claim: every block D_k keeps at least ceil(151n/540)
    elements strictly between d_max^(k-1) and d_min^(k+1).

    The neighbour extrema are closed-form values, defined even when k-1 or
    k+1 falls outside the glue range, so all k in [k_min, k_max] are checked.
    """
    p = Thm1Params.for_n(n)
    bound = _ceil_div(151 * n, 540)
    counts: dict[str, int] = {"bound": bound}
    counterexample = None
    for k in range(p.k_min, p.k_max + 1):
        dk = p.block(k)
        lo = p.gap(k - 1, p.i_max)  # d_max^(k-1)
        hi = p.gap(k + 1, 1)  # d_min^(k+1)
        cnt = bisect_left(dk, hi) - bisect_right(dk, lo)
        counts[f"count_at_k{k}"] = cnt
        if counterexample is None and cnt < bound:
            counterexample = {"k": k, "count": cnt, "bound": bound}
    return Report(
        claim_id="claim22",
        params={"n": n, "k_min": p.k_min, "k_max": p.k_max},
        passed=counterexample is None,
        counterexample=counterexample,
        counts=counts,
    )


def _non_differences(n: int, values: Sequence[int]) -> list[int]:
    """The values that are not differences of thm1_set(n), in input order.

    Values are ints over n^5. Membership is read from the definition of A - A,
    with A built by thm1_set from the a_i closed form: for each offset k, the
    differences a_{i+k} - a_i are struck from the magnitudes still unmatched.
    Block k spans [a_{1+k} - a_1, a_n - a_{n-k}] and both ends increase with
    k, so the walk stops at the first block above the largest magnitude and
    skips the blocks below the smallest. Zero is always a difference.
    """
    a = thm1_set(n).over(n**5)
    missing = set(map(abs, values))
    missing.discard(0)
    if missing:
        low, high = min(missing), max(missing)
        for k in range(1, len(a)):
            if a[k] - a[0] > high:
                break
            if a[-1] - a[-1 - k] >= low:
                missing.difference_update(map(sub, a[k:], a[:-k]))
    return [x for x in values if abs(x) in missing]


def verify_thm1_size(n: int) -> Report:
    """Run the glue chain and re-verify convexity, membership, and the size bound.

    The set glue_chain returns is checked on its ints over n^5: convex, and
    every element a difference of thm1_set(n), found by subtracting its
    elements. members_verified counts the elements that are differences; a
    failure lists the first three that are not. The size must reach both the
    per-block count times the number of interior blocks and the quadratic
    floor n^2/4000.
    """
    p = Thm1Params.for_n(n)
    s, trace = glue_chain(n)
    ints = s.over(n**5)
    per_block = _ceil_div(151 * n, 540)
    interior = max(p.k_max - p.k_min - 1, 0)
    required = max(per_block * interior, _ceil_div(n * n, 4000))
    counts = {
        "size": len(ints),
        "per_block_bound": per_block,
        "interior_blocks": interior,
        "required": required,
        "splices": len(trace.splices),
        "members_verified": 0,
    }
    counterexample = None
    if not gaps_increase(ints):
        counterexample = {"reason": "glued set is not convex"}
    else:
        bad = _non_differences(n, ints)
        counts["members_verified"] = len(ints) - len(bad)
        if bad:
            counterexample = {
                "reason": "element outside the difference set",
                "elements": _element_strs(RealSet(bad[:3], den=n**5)),
            }
        elif len(ints) < required:
            counterexample = {
                "reason": "size below bound",
                "size": len(ints),
                "required": required,
            }
    return Report(
        claim_id="thm1size",
        params={"n": n, "k_min": p.k_min, "k_max": p.k_max},
        passed=counterexample is None,
        counterexample=counterexample,
        counts=counts,
    )


def _element_strs(s: RealSet) -> list[str]:
    return [str(x) for x in s]


def _subset_violation(s: RealSet, blocks: dict[int, tuple[int, int]]) -> Optional[dict]:
    """Check one convex subset of the positive differences against the
    block-structure claims: at most one block holds >= 2 elements and it is
    the lowest occupied one; no block holds > 2; the occupied block indices
    are weakly convex; |S| <= #occupied blocks + 1. `blocks` maps each
    positive difference of the digit set, an int like every element of s,
    to its decoded (k, j)."""
    decoded = []
    for v in s.ints:
        kj = blocks.get(v)
        if kj is None:
            return {"claim": "decode", "element": str(v), "set": _element_strs(s)}
        decoded.append(kj)
    per_block = Counter(k for k, _ in decoded)
    over = sorted(k for k, c in per_block.items() if c > 2)
    if over:
        return {"claim": "3.3", "block": over[0], "set": _element_strs(s)}
    heavy = sorted(k for k, c in per_block.items() if c >= 2)
    if len(heavy) >= 2:
        return {"claim": "3.1", "heavy_blocks": heavy, "set": _element_strs(s)}
    if heavy and heavy[0] != min(per_block):
        return {
            "claim": "3.1",
            "heavy_block": heavy[0],
            "lower_occupied": min(per_block),
            "set": _element_strs(s),
        }
    if not gaps_increase(sorted(per_block), strict=False):
        return {
            "claim": "3.2",
            "block_indices": sorted(per_block),
            "set": _element_strs(s),
        }
    if len(s) > len(per_block) + 1:
        return {
            "claim": "size_bound",
            "size": len(s),
            "blocks": len(per_block),
            "set": _element_strs(s),
        }
    return None


def _ap_violation(
    s: RealSet, blocks: dict[int, tuple[int, int]], matching_json: dict
) -> Optional[dict]:
    """Check Claim 3.4 on a matching-derived set that _subset_violation
    passed: the occupied block indices must not contain four consecutive
    entries in arithmetic progression."""
    kl = sorted({blocks[v][0] for v in s.ints})
    for t in range(len(kl) - 3):
        if kl[t + 1] - kl[t] == kl[t + 2] - kl[t + 1] == kl[t + 3] - kl[t + 2]:
            return {
                "claim": "3.4",
                "block_indices": kl[t : t + 4],
                "matching": matching_json,
            }
    return None


def verify_claims_3(n: int) -> Report:
    """Structural claims of the digit-set construction.

    Every convex subset of the positive differences is checked against
    Claims 3.1-3.3 and the size bound. Every matching with a convex
    restricted difference set is checked against the same and against the
    consecutive-AP Claim 3.4.
    """
    if not isinstance(n, int) or not 2 <= n <= 8:
        raise InvalidParams(f"claims-3 harness supports 2 <= n <= 8, got {n!r}")
    a = thm3_set(n)
    d = difference_set(a)
    pos = RealSet(d.ints[bisect_right(d.ints, 0) :], den=d.den)
    # Each subset draws on these n(n-1)/2 values, so decode each one once.
    blocks = {v: thm3_block_of(n, v) for v in pos.over(1)}
    counts = {"subsets_checked": 0, "matchings_checked": 0}
    counterexample = None
    for s in enumerate_convex_subsets(pos):
        counts["subsets_checked"] += 1
        counterexample = _subset_violation(s, blocks)
        if counterexample is not None:
            break
    if counterexample is None:
        for m in iter_convex_matchings(a):
            counts["matchings_checked"] += 1
            if len(m) == 0:
                continue
            s_m = restricted_difference_set(a, m)
            counterexample = _subset_violation(s_m, blocks) or _ap_violation(
                s_m, blocks, m.to_json()
            )
            if counterexample is not None:
                break
    return Report(
        claim_id="claims3",
        params={"n": n},
        passed=counterexample is None,
        counterexample=counterexample,
        counts=counts,
    )


GROWTH_FAMILIES = ("thm1_S_size", "thm3_cm", "squares_C", "no4ap_max")


def _growth_cell(family: str, n: int):
    """One growth value, or skipped when n is outside the family's range or an oracle's guard."""
    try:
        if family == "thm1_S_size":
            s, _ = glue_chain(n)
            return len(s), True
        if family == "thm3_cm":
            # Before thm3_set(n): its n values have n + 1 base-2n digits each.
            if n > CM_MAX_N:
                return "skipped", False
            res = max_convex_matching(thm3_set(n))
        elif family == "squares_C":
            res = lcs_convex(difference_set(squares_set(n)))
        else:
            res = max_weakly_convex_no4ap(n)
        return res.value, res.exhaustive
    except (InvalidParams, TooLarge):
        return "skipped", False


def growth_table(family: str, n_list: Sequence[int]) -> list[tuple]:
    """Rows (family, n, value, exhaustive); value is "skipped" when infeasible.

    Every n must be >= 1: a meaningless n is an error, not a skipped row.
    """
    if family not in GROWTH_FAMILIES:
        raise InvalidParams(
            f"unknown family {family!r}; expected one of {', '.join(GROWTH_FAMILIES)}"
        )
    low = min(n_list, default=1)
    if low < 1:
        raise InvalidParams(f"every n must be >= 1, got {low}")
    rows = []
    for n in n_list:
        value, exhaustive = _growth_cell(family, n)
        rows.append((family, n, value, exhaustive))
    return rows


def growth_csv(rows: Sequence[tuple], path: str) -> None:
    """Write growth rows as CSV with header family,n,value,exhaustive."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "n", "value", "exhaustive"])
        for family, n, value, exhaustive in rows:
            writer.writerow([family, n, value, "true" if exhaustive else "false"])
