"""Ground-truth searches: largest convex subset, best matching, no-4-AP DP."""

import itertools
import random
from fractions import Fraction as F

import pytest

import convexdiff as cd
from convexdiff import InvalidInput, Matching, RealSet, TooLarge


def test_lcs_examples():
    r = cd.lcs_convex(RealSet((1, 2, 3, 5)))
    assert r.value == 3 and r.exhaustive
    assert list(r.witness) == [1, 2, 5]
    assert cd.lcs_convex(RealSet((0, 1, 2, 3, 4))).value == 3
    with pytest.raises(InvalidInput):
        cd.lcs_convex(RealSet(()))


def test_lcs_whole_set_when_convex():
    rng = random.Random(41)
    for _ in range(10):
        b = cd.gen_convex_random(rng.randrange(1, 30), rng.randrange(10**6))
        r = cd.lcs_convex(b)
        assert r.value == len(b)
        assert r.witness == b


def test_lcs_witness_revalidated():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 15)
        vals = sorted(rng.sample(range(200), n))
        r = cd.lcs_convex(RealSet.from_values(vals))
        assert cd.is_convex(r.witness)
        assert len(r.witness) == r.value
        assert all(x in RealSet.from_values(vals) for x in r.witness)


def test_lcs_bruteforce_examples():
    assert cd.lcs_convex_bruteforce(RealSet((1, 2, 3, 5))).value == 3
    assert cd.lcs_convex_bruteforce(RealSet((5,))).value == 1
    assert cd.oracles.LCS_BRUTE_MAX_N == 20
    with pytest.raises(TooLarge, match="brute-force guard 20"):
        cd.lcs_convex_bruteforce(RealSet.from_values(range(21)))


def test_lcs_agrees_with_bruteforce():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randrange(1, 13)
        vals = sorted(rng.sample(range(120), n))
        b = RealSet.from_values(vals)
        fast, slow = cd.lcs_convex(b), cd.lcs_convex_bruteforce(b)
        assert fast.value == slow.value
        assert fast.witness == slow.witness  # identical lexicographic tie-break


def test_lcs_big_int_table_gives_the_same_witness():
    # Shifted past the int64 bound, the DP runs on the python tier's list
    # table; value and lexicographically first witness must not change.
    rng = random.Random(46)
    shift = 10**30
    for _ in range(60):
        n = rng.randrange(3, 13)
        b = RealSet.from_values(rng.sample(range(120), n))
        big = cd.lcs_convex(RealSet.from_values([x + shift for x in b]))
        slow = cd.lcs_convex_bruteforce(b)
        assert big.value == slow.value
        assert [x - shift for x in big.witness] == list(slow.witness)


def test_lcs_agrees_on_rational_sets():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randrange(2, 11)
        den = rng.choice((2, 3, 5, 7))
        vals = sorted(rng.sample(range(90), n))
        b = RealSet.from_values([F(v, den) for v in vals])
        assert cd.lcs_convex(b).value == cd.lcs_convex_bruteforce(b).value


def test_lcs_difference_set_bound():
    # C(A-A) >= |A| for every A: the positive translate witnesses it
    rng = random.Random(45)
    for _ in range(10):
        a = cd.gen_convex_random(rng.randrange(2, 12), rng.randrange(10**6))
        d = cd.difference_set(a)
        assert cd.lcs_convex(d).value >= len(a)


def test_lcs_deterministic():
    b = RealSet.from_values(sorted(random.Random(46).sample(range(300), 40)))
    r1, r2 = cd.lcs_convex(b), cd.lcs_convex(b)
    assert r1.value == r2.value and r1.witness == r2.witness


def test_max_convex_matching_examples():
    r = cd.max_convex_matching(RealSet((1, 4, 9, 16)))
    assert r.value == 2 and r.exhaustive
    assert r.witness.pairs == ((1, 2), (3, 4))
    assert cd.max_convex_matching(RealSet((3, 10))).value == 1
    with pytest.raises(InvalidInput):
        cd.max_convex_matching(RealSet((0, 1, 2)))
    with pytest.raises(TooLarge):
        cd.max_convex_matching(cd.gen_convex_random(13, 0))


def test_max_convex_matching_witness_revalidated():
    rng = random.Random(51)
    for _ in range(15):
        a = cd.gen_convex_random(rng.randrange(2, 9), rng.randrange(10**6))
        r = cd.max_convex_matching(a)
        assert isinstance(r.witness, Matching)
        assert len(r.witness) == r.value
        assert cd.is_convex(cd.restricted_difference_set(a, r.witness))


def _all_matchings(n):
    """Every matching on {1..n} as sorted pairs: the lowest free index is
    either left out or paired with each later free index."""

    def build(free):
        if not free:
            yield ()
            return
        lo, rest = free[0], free[1:]
        yield from build(rest)
        for j, hi in enumerate(rest):
            for m in build(rest[:j] + rest[j + 1 :]):
                yield ((lo, hi),) + m

    return build(tuple(range(1, n + 1)))


def test_all_matchings_reference_counts():
    # the number of matchings on n points: 1, 1, 2, 4, 10, 26, 76, 232, 764
    counts = [sum(1 for _ in _all_matchings(n)) for n in range(9)]
    assert counts == [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_max_convex_matching_equals_enumeration():
    # Both matching oracles against every matching of the base set that
    # has a convex restricted difference set, found without the DFS.
    rng = random.Random(52)
    bases = [cd.gen_convex_random(rng.randrange(2, 8), rng.randrange(10**6)) for _ in range(12)]
    bases += [cd.squares_set(n) for n in range(1, 8)]
    bases += [cd.thm3_set(n) for n in range(2, 8)]
    bases.append(RealSet((0, 1, 3, 6, 10)))  # 3 = 3 - 0 = 6 - 3, 4 = 10 - 6, ...
    for a in bases:
        n = len(a)
        ref = {
            m
            for m in _all_matchings(n)
            if cd.is_convex(cd.restricted_difference_set(a, Matching(n, m)))
        }
        got = [tuple(sorted(m.pairs)) for m in cd.iter_convex_matchings(a)]
        assert len(got) == len(set(got))
        assert set(got) == ref
        best = max(len(m) for m in ref)
        r = cd.max_convex_matching(a)
        assert r.value == best
        assert r.witness.pairs == min(m for m in ref if len(m) == best)


def test_iter_convex_matchings_yields_valid_matchings():
    a = RealSet((1, 2, 4, 8))
    seen = list(cd.iter_convex_matchings(a))
    assert Matching(4, ()) in seen
    for m in seen:
        assert cd.is_convex(cd.restricted_difference_set(a, m)) or len(m) == 0
    # all six single pairs are valid, plus empty and the valid 2-matchings
    assert sum(1 for m in seen if len(m) == 1) == 6


def test_max_convex_matching_thm3_regression():
    import math

    r = cd.max_convex_matching(cd.thm3_set(6))
    assert r.value == 3
    assert r.value <= 3 * math.isqrt(6) + 3  # 3 * ceil(sqrt 6)
    assert r.witness.pairs == ((1, 2), (3, 6), (4, 5))


def test_thm2_witness_lower_bounds_matching_number():
    # a valid thm2 matching certifies cm(A) >= ceil(sqrt(n)) without search
    a = cd.gen_convex_random(15, 77)
    m = cd.thm2_matching(a)
    assert cd.is_convex(cd.restricted_difference_set(a, m))
    assert len(m) == 4


def _no4ap_brute(n):
    def ok(seq):
        gaps = [b - a for a, b in zip(seq, seq[1:])]
        if any(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])):
            return False
        return not any(
            gaps[i] == gaps[i + 1] == gaps[i + 2] for i in range(len(gaps) - 2)
        )

    # the first hit is the lexicographically smallest set of the largest size
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if ok(combo):
                return list(combo)
    return []


def test_no4ap_examples():
    assert cd.max_weakly_convex_no4ap(1).value == 1
    r = cd.max_weakly_convex_no4ap(4)
    assert r.value == 3 and r.exhaustive
    assert list(r.witness) == [1, 2, 3]


def test_no4ap_matches_bruteforce():
    for n in range(1, 14):
        r = cd.max_weakly_convex_no4ap(n)
        witness = _no4ap_brute(n)
        assert r.value == len(witness)
        assert list(r.witness) == witness


def test_no4ap_witness_revalidated():
    for n in (5, 12, 25):
        r = cd.max_weakly_convex_no4ap(n)
        w = list(r.witness)
        assert len(w) == r.value
        assert all(1 <= x <= n for x in w)
        assert cd.is_weakly_convex(r.witness)
        gaps = [b - a for a, b in zip(w, w[1:])]
        assert not any(
            gaps[i] == gaps[i + 1] == gaps[i + 2] for i in range(len(gaps) - 2)
        )


def test_no4ap_monotone():
    vals = [cd.max_weakly_convex_no4ap(n).value for n in range(1, 26)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_enumerate_convex_subsets_singleton():
    out = list(cd.enumerate_convex_subsets(RealSet((1, 2, 4))))
    assert out == [RealSet((1, 2, 4))]


def test_enumerate_convex_subsets_ap_skips():
    b = RealSet.from_values(range(1, 8))
    for s in cd.enumerate_convex_subsets(b):
        assert cd.is_convex(s) and len(s) >= 3
        vals = list(s)
        gaps = [y - x for x, y in zip(vals, vals[1:])]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))  # skips forced


def test_enumerate_convex_subsets_lexicographic_and_capped():
    b = RealSet.from_values(range(10))
    capped = itertools.islice(cd.enumerate_convex_subsets(b), 5)
    got = [tuple(int(x) for x in s) for s in capped]
    assert len(got) == 5
    assert got[0] == (0, 1, 3)
    alls = [tuple(int(x) for x in s) for s in cd.enumerate_convex_subsets(b)]
    # depth-first lexicographic order by element indices
    assert alls == sorted(alls)
    assert len(alls) > 5
    assert alls[:5] == got


def test_enumerate_thm3_positive_part_respects_block_bound():
    # every convex subset hits each digit block at most twice
    a = cd.thm3_set(4)
    pos = RealSet(tuple(x for x in cd.difference_set(a) if x > 0))
    for s in itertools.islice(cd.enumerate_convex_subsets(pos), 200):
        per_block = {}
        for x in s:
            kj = cd.thm3_block_of(4, x)
            assert kj is not None
            per_block[kj[0]] = per_block.get(kj[0], 0) + 1
        assert all(c <= 2 for c in per_block.values())
