"""The benchmark's workloads: seeded inputs and the CLI calls made on them.

A workload is a fixed list of operations (one pass). Each operation is one
in-process `convexdiff.cli.main(argv)` call. Inputs are generated here, in
the benchmark's own integer arithmetic, and written as RealSet JSON files;
the program sees only those files and its argv. The seed changes which sets
are drawn, never their sizes, so the work in a pass does not depend on it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from convexdiff.exact import gen_convex_random

GLUE_N = 10000
GLUE_SIZE = 80812  # |S(10000)|, the golden size of the glued set
GLUE_SPLICES = 10  # one splice per block k = 91..100 after the first


@dataclass(frozen=True)
class Op:
    """One CLI call. `{dir}` in argv is replaced by the pass's output directory."""

    key: str
    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)

    def argv_for(self, out_dir: str) -> list[str]:
        return [a.replace("{dir}", out_dir) for a in self.argv]


def _write_set(path: str, values: list[Fraction]) -> None:
    payload = {
        "elements": [
            {"num": str(v.numerator), "den": str(v.denominator)} for v in values
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _difference_set(vals: list[int]) -> list[Fraction]:
    return [Fraction(d) for d in sorted({x - y for x in vals for y in vals})]


def _thm3_values(n: int) -> list[int]:
    base = 2 * n
    return [sum((j - r) * base ** (n - r) for r in range(j)) for j in range(1, n + 1)]


def scaled_gap(n: int, k: int, i: int) -> int:
    """d_i^(k) = a_{i+k} - a_i of the cubic family, scaled by n^5."""
    n5, n3 = n**5, n**3
    return k * n5 + 75 * n3 * (2 * k * i + k * k) + 3 * i * i * k + 3 * i * k * k + k**3


def _thm1_block(n: int, k: int) -> list[int]:
    """The block D_k scaled by n^5: d_i^(k) for i = 1..floor(0.99n)."""
    return [scaled_gap(n, k, i) for i in range(1, 99 * n // 100 + 1)]


def _lcs_op(key: str, path: str, **expect) -> Op:
    return Op(key, "lcs", ("oracle", "lcs", "--in", path), {"input": path, **expect})


def cubic(seed: int, in_dir: str) -> list[Op]:
    """The Fraction-heavy cubic family at n = 10000; it takes no input files."""
    n = str(GLUE_N)
    return [
        Op(
            "glue n=10000",
            "glue",
            ("glue", "--n", n, "--out", "{dir}/glue.json", "--trace", "{dir}/trace.json"),
            {"n": GLUE_N, "size": GLUE_SIZE, "splices": GLUE_SPLICES},
        ),
        Op(
            "verify thm1size n=10000",
            "thm1size",
            ("verify", "thm1size", "--n", n),
            {"size": GLUE_SIZE, "splices": GLUE_SPLICES},
        ),
        Op("verify claim21 n=10000", "claim21", ("verify", "claim21", "--n", n), {"n": GLUE_N}),
        Op("verify claim22 n=10000", "claim22", ("verify", "claim22", "--n", n), {"n": GLUE_N}),
    ]


# A5 covers n = 5..40; the sizes run a little beyond. Three inputs are the
# central 3000 elements of the difference set of a random 62-element convex
# set (which has >= 3291 distinct differences), so the DP tables reach peak
# RSS at the same m for every seed.
LCS_INT64_SIZES = range(5, 45)
LCS_INT64_RANDOM_PER_SIZE = 2
LCS_INT64_LARGE_N = 62
LCS_INT64_LARGE_M = 3000
LCS_INT64_LARGE_COUNT = 3


def lcs_int64(seed: int, in_dir: str) -> list[Op]:
    """Difference sets of squares and of seeded random convex sets (int64 DP)."""
    rng = random.Random(f"lcs_int64:{seed}")
    ops = []

    def add(key: str, values: list[Fraction], **expect) -> None:
        path = os.path.join(in_dir, key.replace(" ", "_").replace("=", "") + ".json")
        _write_set(path, values)
        ops.append(_lcs_op(key, path, **expect))

    def random_base(n: int) -> list[int]:
        return [int(x) for x in gen_convex_random(n, rng.randrange(10**9))]

    for n in LCS_INT64_SIZES:
        add(f"lcs squares n={n}", _difference_set([i * i for i in range(1, n + 1)]), min_value=n)
        for j in range(LCS_INT64_RANDOM_PER_SIZE):
            add(f"lcs random n={n} j={j} seed={seed}", _difference_set(random_base(n)), min_value=n)
    m = LCS_INT64_LARGE_M
    for j in range(LCS_INT64_LARGE_COUNT):
        diffs = _difference_set(random_base(LCS_INT64_LARGE_N))
        if len(diffs) < m:
            raise ValueError(f"only {len(diffs)} distinct differences, need {m}")
        mid = len(diffs) // 2
        add(f"lcs random window m={m} j={j} seed={seed}", diffs[mid - m // 2 : mid + m - m // 2])
    return ops


# Every value here exceeds kernels.INT64_SAFE once scaled to integers, so the
# DP runs on Python big ints: thm3 digit sets from n = 13 on, and windows of
# a thm1 block at n = 10000 (denominator n^5).
LCS_BIGINT_THM3 = range(13, 29)
LCS_BIGINT_WIDTHS = (100, 200, 400, 800)
LCS_BIGINT_WINDOWS_PER_WIDTH = 10


def lcs_bigint(seed: int, in_dir: str) -> list[Op]:
    """Difference sets of the digit set and windows of cubic blocks (big-int DP)."""
    rng = random.Random(f"lcs_bigint:{seed}")
    ops = []
    for n in LCS_BIGINT_THM3:
        path = os.path.join(in_dir, f"thm3_diff_n{n}.json")
        _write_set(path, _difference_set(_thm3_values(n)))
        ops.append(_lcs_op(f"lcs thm3 n={n}", path))
    n5 = GLUE_N**5
    blocks: dict[int, list[int]] = {}
    for w in LCS_BIGINT_WIDTHS:
        for _ in range(LCS_BIGINT_WINDOWS_PER_WIDTH):
            k = rng.randrange(90, 101)
            block = blocks.setdefault(k, _thm1_block(GLUE_N, k))
            start = rng.randrange(len(block) - w + 1)
            key = f"lcs thm1 k={k} start={start} w={w}"
            path = os.path.join(in_dir, f"thm1_k{k}_s{start}_w{w}.json")
            _write_set(path, [Fraction(v, n5) for v in block[start : start + w]])
            # A window of a convex block is itself convex: the answer is w.
            ops.append(_lcs_op(key, path, value=w))
    return ops


NO4AP_N = (10, 25, 50, 100, 200, 400)
THM3_CM_N = tuple(range(4, 13))
CLAIMS3_N = tuple(range(4, 9))
ORACLE_CM_N = tuple(range(4, 10))


def search(seed: int, in_dir: str) -> list[Op]:
    """Exhaustive searches: no4ap memo DP, matching DFS, digit decoding."""
    ops = [
        Op(
            "growth no4ap_max",
            "growth",
            ("bench", "growth", "--family", "no4ap_max",
             "--n-list", ",".join(map(str, NO4AP_N)), "--csv", "{dir}/no4ap.csv"),
            {"family": "no4ap_max", "n_list": NO4AP_N, "csv": "{dir}/no4ap.csv"},
        ),
        Op(
            "growth thm3_cm",
            "growth",
            ("bench", "growth", "--family", "thm3_cm",
             "--n-list", ",".join(map(str, THM3_CM_N)), "--csv", "{dir}/thm3_cm.csv"),
            {"family": "thm3_cm", "n_list": THM3_CM_N, "csv": "{dir}/thm3_cm.csv"},
        ),
    ]
    for n in CLAIMS3_N:
        ops.append(Op(f"verify claims3 n={n}", "claims3",
                      ("verify", "claims3", "--n", str(n)), {"n": n}))
    for n in ORACLE_CM_N:
        path = os.path.join(in_dir, f"thm3_n{n}.json")
        _write_set(path, [Fraction(v) for v in _thm3_values(n)])
        ops.append(Op(f"oracle cm thm3 n={n}", "cm",
                      ("oracle", "cm", "--in", path), {"input": path}))
    return ops


WORKLOADS = {
    "cubic": cubic,
    "lcs_int64": lcs_int64,
    "lcs_bigint": lcs_bigint,
    "search": search,
}
