"""Acceptance checklist: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. A1 is
split: the desk-scale bound, the 1000/2000 regression sizes, and the
quadratic trend, which checks on the doubling ladder n = 1000, 2000, 4000
that |S(n)| lies between the documented size floor and the block-capacity
cap, both of order n^2.
"""

import hashlib
import math
import random
import time

import convexdiff as cd
from convexdiff import Matching, RealSet


def _line(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_a1_gluing_desk_scale():
    t0 = time.time()
    s, trace = cd.glue_chain(10000, strict=True)
    report = cd.verify_thm1_size(10000)
    elapsed = time.time() - t0
    ok = (
        report.passed
        and cd.is_convex(s)
        and len(s) == report.counts["size"] == 80812
        and report.counts["members_verified"] == len(s)
        and len(s) >= 25173
        and elapsed < 120
    )
    _line(
        "A1 gluing at n=10000 (strict)",
        ok,
        f"|S|={len(s)} >= 25173, convex, {report.counts['members_verified']} members checked, {elapsed:.1f}s",
    )
    assert ok


def test_a1_gluing_regression_sizes():
    sizes = {}
    for n in (1000, 2000):
        s, _ = cd.glue_chain(n, strict=True)
        report = cd.verify_thm1_size(n)
        assert report.passed and cd.is_convex(s)
        assert report.counts["members_verified"] == len(s)
        sizes[n] = len(s)
    ok = sizes == {1000: 1756, 2000: 4921}
    _line("A1 regression sizes", ok, f"|S(1000)|={sizes[1000]}, |S(2000)|={sizes[2000]}")
    assert ok


def test_a1_quadratic_trend():
    # Both bounds are Theta(n^2) and come from Thm1Params alone. The floor is
    # the size bound of verify_thm1_size: ceil(151n/540) per interior block
    # (Claim 2.2) or ceil(n^2/4000), whichever is larger. The cap holds for
    # any splice rule: S lies in the union of the k_max - k_min + 1 window
    # blocks of i_max values each. A fixed ratio is not a stated bound:
    # |S(2000)| >= 3.5|S(1000)| = 6146 exceeds the cap 3 * 1980 = 5940.
    # At n = 4000 a single block (3960 values) is below the floor (4000), so
    # that rung catches a glue that loses blocks.
    rows = []
    ok = True
    for n in (1000, 2000, 4000):
        p = cd.Thm1Params.for_n(n, strict=True)
        blocks = p.k_max - p.k_min + 1
        interior = max(blocks - 2, 0)
        floor = max(-(-151 * n // 540) * interior, -(-n * n // 4000))
        cap = blocks * p.i_max
        size = len(cd.glue_chain(n, strict=True)[0])
        rows.append(f"n={n}: |S|={size}, floor {floor}, cap {cap}")
        ok = ok and floor <= size <= cap
    _line("A1 quadratic trend", ok, "; ".join(rows))
    assert ok, "|S(n)| outside [floor, cap]: " + "; ".join(rows)


def test_a2_interleaving_and_interval_counts():
    t0 = time.time()
    results = {}
    for n in (1000, 2000, 10000):
        r1 = cd.verify_claim_2_1(n)
        r2 = cd.verify_claim_2_2(n)
        results[n] = (r1.passed, r2.passed)
    elapsed = time.time() - t0
    ok = all(all(pair) for pair in results.values()) and elapsed < 120
    _line("A2 block claims at 1000/2000/10000", ok, f"all exact checks pass, {elapsed:.1f}s")
    assert ok


def test_a3_sqrt_matching_random_sets():
    rng = random.Random(33000)
    good = 0
    for _ in range(200):
        n = rng.randrange(25, 501)
        while n in (26, 27):  # the only sizes in range failing the precondition
            n = rng.randrange(25, 501)
        a = cd.gen_convex_random(n, rng.randrange(10**9))
        m = cd.thm2_matching(a)
        k = math.isqrt(n)
        k += 0 if k * k == n else 1
        if len(m) == k and k * k >= n and cd.is_convex(cd.restricted_difference_set(a, m)):
            good += 1
    ok = good == 200
    _line("A3 sqrt-size matchings", ok, f"{good}/200 random sets")
    assert ok


def test_a4_digit_set_matchings_and_block_claims():
    t0 = time.time()
    golden = {4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 4, 10: 5}
    got = {}
    envelope = True
    for n in range(4, 11):
        r = cd.max_convex_matching(cd.thm3_set(n))
        assert r.exhaustive
        got[n] = r.value
        envelope = envelope and r.value <= 3 * math.sqrt(n)
    c3 = {n: cd.verify_claims_3(n) for n in range(4, 9)}
    claims_hold = all(rep.passed for rep in c3.values())
    elapsed = time.time() - t0
    ok = got == golden and envelope and claims_hold and elapsed < 300
    _line(
        "A4 digit-set matchings + structure claims",
        ok,
        f"values {[got[n] for n in range(4, 11)]} <= 3*sqrt(n), claims exhaustive at n=4..8, {elapsed:.1f}s",
    )
    assert ok


# Digest of every exact A5 value and witness, in A5's order; the values sum to 67786.
A5_DIGEST = "bdf1ddd6e0170d97"


def test_a5_difference_set_lower_bound():
    failures = 0
    checked = 0
    total = 0
    digest = hashlib.sha256()
    for n in range(5, 41):
        sets = [cd.squares_set(n)] + [cd.gen_convex_random(n, 5000 + 97 * n + j) for j in range(50)]
        for a in sets:
            r = cd.lcs_convex(cd.difference_set(a))
            if r.value < n:
                failures += 1
            checked += 1
            total += r.value
            digest.update(repr((r.value, r.witness.ints, r.witness.den)).encode())
    pinned = (total, digest.hexdigest()[:16]) == (67786, A5_DIGEST)
    ok = failures == 0 and pinned
    _line(
        "A5 difference-set bound",
        ok,
        f"{checked} sets, {failures} below |A|, values sum {total}, digest pinned: {pinned}",
    )
    assert ok


def test_a6_oracle_equivalence():
    rng = random.Random(66000)
    agree = 0
    for t in range(500):
        size = rng.randrange(1, 13)
        if t % 5 == 4:
            den = rng.choice((2, 3, 5, 7))
            b = RealSet.from_values([(v, den) for v in rng.sample(range(90), size)])
        else:
            b = RealSet.from_values(rng.sample(range(120), size))
        fast = cd.lcs_convex(b)
        slow = cd.lcs_convex_bruteforce(b)
        if fast.value == slow.value and fast.witness == slow.witness:
            agree += 1
    ok = agree == 500
    _line("A6 oracle equivalence", ok, f"{agree}/500 agree (values and witnesses)")
    assert ok


def test_a7_halving_sum_matchings():
    rng = random.Random(77000)
    sizes = [2, 3, 300, 301] + [rng.randrange(2, 302) for _ in range(196)]
    good = 0
    for n in sizes:
        a = cd.gen_convex_random(n, rng.randrange(10**9))
        m = cd.thm4_matching(a)
        if len(m) == n // 2 and cd.is_convex(cd.restricted_sum_set(a, m)):
            good += 1
    parities = {n % 2 for n in sizes}
    ok = good == 200 and parities == {0, 1}
    _line("A7 halving sum matchings", ok, f"{good}/200 sets, both parities")
    assert ok


def test_a8_no4ap_growth():
    golden = [1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8,
              9, 9, 9, 9, 9, 10, 10, 10, 10, 10, 11, 11, 11, 11, 11, 11,
              12, 12, 12, 12]
    results = [cd.max_weakly_convex_no4ap(n) for n in range(1, 41)]
    vals = [r.value for r in results]
    ok = (
        vals == golden
        and all(r.exhaustive for r in results)
        and all(a <= b for a, b in zip(vals, vals[1:]))
        and vals[3] == 3
        and vals[39] <= 2 * vals[9] + 2
    )
    _line(
        "A8 weakly-convex no-4AP growth",
        ok,
        f"v(4)={vals[3]}, v(10)={vals[9]}, v(40)={vals[39]} <= 2*v(10)+2",
    )
    assert ok


def test_a9_representation_counts():
    unique = True
    max_sum_rep = 0
    for n in range(2, 11):
        a = cd.thm3_set(n)
        for x in cd.difference_set(a):
            if x != 0 and cd.count_representations(a, x, "difference") != 1:
                unique = False
        # sum-side maximum is recorded only; no bound is asserted
        for x in cd.sum_set(a):
            max_sum_rep = max(max_sum_rep, cd.count_representations(a, x, "sum"))
    ok = unique
    _line(
        "A9 representation counts",
        ok,
        f"all nonzero differences unique; max sum representations observed = {max_sum_rep}",
    )
    assert ok
