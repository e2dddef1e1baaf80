"""Generators: cubic set and blocks, gluing, matchings, digit set."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexdiff as cd
from convexdiff import (
    InsufficientN,
    InvalidInput,
    InvalidParams,
    NoSplice,
    RealSet,
    Thm1Params,
    constructions,
)


def test_thm1_params_fields():
    p = Thm1Params.for_n(1000, strict=True)
    assert (p.k_min, p.k_max, p.i_max) == (9, 10, 990)
    assert p.i_max + p.k_max <= p.n


@pytest.mark.parametrize("n", [999, 1050, 1234])
def test_thm1_params_strict_rejects(n):
    with pytest.raises(InvalidParams):
        Thm1Params.for_n(n, strict=True)


@pytest.mark.parametrize("n", [99, 150, 250])
def test_thm1_params_lenient_rejects(n):
    # 150 and 250 leave the k-window [0.009n, 0.01n] empty of integers
    with pytest.raises(InvalidParams):
        Thm1Params.for_n(n, strict=False)


def test_thm1_params_lenient_range():
    for n in (100, 200, 300, 316, 417, 1100):
        p = Thm1Params.for_n(n, strict=False)
        assert p.k_min <= p.k_max
        assert p.i_max + p.k_max <= p.n


def test_thm1_set_small_values():
    a = cd.thm1_set(100)
    assert a[0] == 1 + F(75, 10**4) + F(1, 10**10)
    assert a[1] == 2 + F(300, 10**4) + F(8, 10**10)
    assert len(a) == 100


def test_thm1_set_convex_and_gap_identity():
    for n in (100, 300, 1000):
        a = cd.thm1_set(n)
        assert cd.is_convex(a)
        c1, c2 = F(75, n * n), F(1, n**5)
        for i in range(1, len(a)):
            gap = a[i] - a[i - 1]
            assert gap == 1 + c1 * (2 * i + 1) + c2 * (3 * i * i + 3 * i + 1)


def test_thm1_set_strict_mode_gate():
    with pytest.raises(InvalidParams):
        cd.thm1_set(950, strict=True)
    assert len(cd.thm1_set(1000, strict=True)) == 1000


def test_thm1_block_example():
    blk = cd.thm1_block(100, 1)
    assert blk[0] == 1 + F(225, 10**4) + F(7, 10**10)
    assert len(blk) == 99


def test_thm1_block_matches_set_differences():
    for n, k in ((100, 1), (300, 3), (1000, 9), (1000, 10)):
        a = cd.thm1_set(n)
        blk = cd.thm1_block(n, k)
        assert cd.is_convex(blk)
        for pos, v in enumerate(blk):
            i = pos + 1
            assert v == a[i + k - 1] - a[i - 1]


def test_thm1_block_gap_identity():
    n, k = 300, 3
    c1, c2 = F(75, n * n), F(1, n**5)
    blk = cd.thm1_block(n, k)
    for pos in range(1, len(blk)):
        i = pos  # gap between entries at i and i+1
        gap = blk[pos] - blk[pos - 1]
        assert gap == 2 * c1 * k + 3 * c2 * k * k + 3 * c2 * k + 6 * c2 * k * i


@pytest.mark.parametrize("n", [100, 200])
def test_thm1_params_closed_form_matches_the_set(n):
    # Every offset k = 1..n-1, not only the glue window, against a_{i+k} - a_i.
    p = Thm1Params.for_n(n)
    a = cd.thm1_set(n).over(n**5)
    for k in range(1, n):
        for i in range(1, n - k + 1):
            assert p.gap(k, i) == a[i + k - 1] - a[i - 1], (k, i)
    for k in range(p.k_min, p.k_max + 1):
        assert p.block(k) == list(cd.thm1_block(n, k).over(n**5))


def test_thm1_block_k_out_of_range():
    with pytest.raises(InvalidParams):
        cd.thm1_block(1000, 8)
    with pytest.raises(InvalidParams):
        cd.thm1_block(1000, 11)


def test_glue_pair_examples():
    g, (i, j) = cd.glue_pair(RealSet((0, 10, 30)), RealSet((-1, 25, 60)))
    assert list(g) == [0, 25, 60] and (i, j) == (1, 1)
    g2, (i2, j2) = cd.glue_pair(RealSet((0, 1, 3)), RealSet((0, 1, 3)))
    assert list(g2) == [0, 1, 3] and (i2, j2) == (1, 1)
    with pytest.raises(NoSplice):
        cd.glue_pair(RealSet((0, 1, 3)), RealSet((F(7, 2), 4, 5)))


def test_glue_pair_requires_convex_inputs():
    with pytest.raises(InvalidInput):
        cd.glue_pair(RealSet((0, 1, 2, 3)), RealSet((0, 1, 3)))
    with pytest.raises(InvalidInput):
        cd.glue_pair(RealSet((0, 1, 3)), RealSet((0, 1, 2, 3)))


def test_glue_pair_output_always_convex():
    rng = random.Random(7)
    glued = 0
    for _ in range(60):
        a = cd.gen_convex_random(rng.randrange(3, 12), rng.randrange(10**6))
        shift = rng.randrange(-5, 40)
        b = RealSet(tuple(x + shift for x in cd.gen_convex_random(rng.randrange(3, 12), rng.randrange(10**6))))
        try:
            g, (i, j) = cd.glue_pair(a, b)
        except NoSplice:
            continue
        glued += 1
        assert cd.is_convex(g)
        # spliced set is the stated prefix/suffix union
        assert list(g) == list(a)[:j] + list(b)[i:]
        assert b[i - 1] <= a[j - 1] < a[j] <= b[i]
    assert glued >= 10


def test_glue_chain_frozen_n1000():
    s, trace = cd.glue_chain(1000)
    assert len(s) == 1756
    assert [(r.k, r.j, r.i) for r in trace.splices] == [(10, 983, 217)]
    assert cd.is_convex(s)
    p = Thm1Params.for_n(1000, strict=False)
    assert len(trace.splices) == p.k_max - p.k_min


def test_glue_chain_reads_each_block_and_seam_once(monkeypatch):
    # Work-count pin: convexity is read once per block, when it is built, and
    # once per seam (<= 4 elements), never by re-reading the running set.
    read = []
    gaps_increase = constructions.gaps_increase

    def counted(values, *args, **kwargs):
        read.append(len(values))
        return gaps_increase(values, *args, **kwargs)

    monkeypatch.setattr(constructions, "gaps_increase", counted)
    s, trace = cd.glue_chain(10000)
    p = Thm1Params.for_n(10000)
    blocks = p.k_max - p.k_min + 1
    assert (len(s), len(trace.splices), blocks) == (80812, 10, 11)
    assert sum(read) <= blocks * p.i_max + 4 * len(trace.splices) == 108940


def test_glue_chain_single_block():
    # n=400 has k-window [4, 4]: no splices, S is D_4 itself
    s, trace = cd.glue_chain(400)
    assert trace.splices == ()
    assert s == cd.thm1_block(400, 4)
    assert len(s) == 396


def test_glue_chain_membership():
    n = 300
    s, _ = cd.glue_chain(n)
    d = cd.difference_set(cd.thm1_set(n))
    assert all(x in d for x in s)


def test_glue_chain_block_survival():
    # every block keeps at least one element inside its own value range
    n = 1000
    s, _ = cd.glue_chain(n)
    p = Thm1Params.for_n(n, strict=False)
    sv = list(s)
    for k in range(p.k_min, p.k_max + 1):
        blk = cd.thm1_block(n, k)
        lo, hi = blk[0], blk[-1]
        assert any(lo <= x <= hi for x in sv)


def test_glue_chain_runs_where_claim21_passes():
    for n in (300, 1000, 1100):
        assert cd.verify_claim_2_1(n).passed
        s, _ = cd.glue_chain(n)  # must not raise NoSplice
        assert cd.is_convex(s)


def test_lenient_glue_chain_every_n_below_400():
    # Every n in [100, 400) whose offset window holds an integer.
    ns = []
    for n in range(100, 400):
        try:
            p = Thm1Params.for_n(n)
        except InvalidParams:
            continue
        ns.append(n)
        s, trace = cd.glue_chain(n)
        assert cd.is_convex(s), n
        # x = t / s.den equals a_j - a_i = d / a.den exactly when t * a.den == d * s.den.
        a = cd.thm1_set(n)
        diffs = {(hi - lo) * s.den for lo, hi in combinations(a.ints, 2)}
        assert all(t * a.den in diffs for t in s.ints), n
        assert len(trace.splices) == p.k_max - p.k_min, n
        assert cd.verify_thm1_size(n).passed, n
    assert len(ns) == 69


def _reference_glue_chain(n, strict):
    """The slow check: fold glue_pair over the Fraction blocks thm1_block(n, k)."""
    p = Thm1Params.for_n(n, strict)
    running = cd.thm1_block(n, p.k_min, strict)
    splices = []
    for k in range(p.k_min + 1, p.k_max + 1):
        running, (i, j) = cd.glue_pair(running, cd.thm1_block(n, k, strict))
        splices.append((k, j, i))
    return running, splices


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("n", [300, 400, 1000, 1100, 2000])
def test_glue_chain_equals_glue_pair_fold(n, strict):
    if strict and n < 1000:
        with pytest.raises(InvalidParams):
            cd.glue_chain(n, strict)
        with pytest.raises(InvalidParams):
            _reference_glue_chain(n, strict)
        return
    s, trace = cd.glue_chain(n, strict)
    ref, ref_splices = _reference_glue_chain(n, strict)
    assert s == ref
    assert [(r.k, r.j, r.i) for r in trace.splices] == ref_splices


def test_glue_trace_json():
    _, trace = cd.glue_chain(1000)
    assert trace.to_json() == {"splices": [{"k": 10, "j": 983, "i": 217}]}


def test_thm2_matching_example_n36():
    a = cd.gen_convex_random(36, 0)
    m = cd.thm2_matching(a)
    assert m.pairs == ((6, 8), (5, 10), (4, 13), (3, 17), (2, 22), (1, 28))
    assert m.base_size == 36


def test_thm2_matching_insufficient():
    with pytest.raises(InsufficientN):
        cd.thm2_matching(cd.gen_convex_random(17, 3))


def test_thm2_matching_rejects_nonconvex():
    with pytest.raises(InvalidInput):
        cd.thm2_matching(RealSet(tuple(range(40))))


def test_thm2_matching_shape():
    import math

    for n in (22, 36, 81, 100, 250):
        a = cd.gen_convex_random(n, n)
        m = cd.thm2_matching(a)
        k = len(m)
        assert k == math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
        assert k * k >= n
        assert sorted(lo for lo, _ in m.pairs) == list(range(1, k + 1))
        tri = [k + 1 + i * (i + 1) // 2 for i in range(1, k + 1)]
        assert sorted(hi for _, hi in m.pairs) == tri


def test_thm2_restricted_diff_convex():
    rng = random.Random(21)
    for _ in range(15):
        a = cd.gen_convex_random(100, rng.randrange(10**6))
        m = cd.thm2_matching(a)
        assert cd.is_convex(cd.restricted_difference_set(a, m))


def test_thm2_telescoping_identity():
    # e_{i+1} - e_i = d_{k-i} + sum_{j=T_i+1}^{T_{i+1}} d_{k+j}, with T_i = i(i+1)/2
    for n, seed in ((36, 2), (81, 9), (100, 5)):
        a = cd.gen_convex_random(n, seed)
        m = cd.thm2_matching(a)
        k = len(m)
        e = [a[hi - 1] - a[lo - 1] for lo, hi in m.pairs]
        d = [a[t + 1] - a[t] for t in range(n - 1)]  # d[t-1] = a_{t+1} - a_t
        for i in range(1, k):
            ti, ti1 = i * (i + 1) // 2, (i + 1) * (i + 2) // 2
            rhs = d[k - i - 1] + sum(d[k + j - 1] for j in range(ti + 1, ti1 + 1))
            assert e[i] - e[i - 1] == rhs
        for i in range(1, k - 1):
            assert e[i + 1] - e[i] > e[i] - e[i - 1]


def test_thm3_set_examples():
    assert [int(x) for x in cd.thm3_set(2)] == [16, 36]
    assert [int(x) for x in cd.thm3_set(3)] == [216, 468, 726]
    assert int(cd.thm3_set(4)[3]) == 18056
    with pytest.raises(InvalidParams):
        cd.thm3_set(1)


def test_thm3_set_convex_with_integer_digits():
    for n in (2, 3, 5, 8):
        a = cd.thm3_set(n)
        assert cd.is_convex(a)
        base = 2 * n
        for j, v in enumerate(a, start=1):
            x = int(v)
            assert v == x  # denominator 1
            digits = []
            while x:
                digits.append(x % base)
                x //= base
            digits.reverse()
            # base-2n digits are j, j-1, ..., 1 then zeros; no carries
            assert digits == list(range(j, 0, -1)) + [0] * (n + 1 - j)


def test_thm3_block_of_examples():
    assert cd.thm3_block_of(3, 252) == (1, 1)
    assert cd.thm3_block_of(3, 510) == (2, 1)
    assert cd.thm3_block_of(3, 1) is None
    assert cd.thm3_block_of(3, -252) is None
    assert cd.thm3_block_of(3, F(1, 2)) is None
    assert cd.thm3_block_of(3, 0) is None


def test_thm3_block_of_round_trip():
    for n in (2, 3, 4, 6):
        a = cd.thm3_set(n)
        for j in range(1, n + 1):
            for k in range(1, n - j + 1):
                x = a[j + k - 1] - a[j - 1]
                assert cd.thm3_block_of(n, x) == (k, j)
                assert cd.thm3_block_of(n, x + 1) is None


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    digit=st.integers(0, 12),
    step=st.integers(-2, 2),
    frac=st.builds(F, st.integers(-10**6, 10**6), st.integers(2, 50)).filter(
        lambda q: q.denominator != 1
    ),
)
def test_thm3_block_of_decodes_exactly_the_differences(n, digit, step, frac):
    a = cd.thm3_set(n).ints
    pos = {a[j + k - 1] - a[j - 1]: (k, j) for j in range(1, n) for k in range(1, n - j + 1)}
    nudge = step * (2 * n) ** min(digit, n)  # moves one base-2n digit of x
    for x, kj in pos.items():
        assert cd.thm3_block_of(n, x) == kj
        for y in [*range(x - 3, x + 4), x + nudge]:
            assert cd.thm3_block_of(n, y) == pos.get(y)
        assert cd.thm3_block_of(n, -x) is None
        assert cd.thm3_block_of(n, x + frac) is None
        assert cd.thm3_block_of(n, F(x, x + 1)) is None  # numerator x, not an integer
    assert cd.thm3_block_of(n, 0) is None
    assert cd.thm3_block_of(n, frac) is None


def test_thm4_matching_example():
    a = RealSet((1, 2, 4, 8))
    m = cd.thm4_matching(a)
    assert m.pairs == ((1, 3), (2, 4))
    assert [int(x) for x in cd.restricted_sum_set(a, m)] == [5, 10]


def test_thm4_matching_odd_omits_last():
    a = cd.gen_convex_random(5, 4)
    m = cd.thm4_matching(a)
    assert len(m) == 2
    assert all(5 not in pair for pair in m.pairs)
    with pytest.raises(InvalidParams):
        cd.thm4_matching(RealSet((3,)))


def test_thm4_restricted_sum_convex_and_gap_identity():
    rng = random.Random(31)
    for n in (4, 9, 20, 101):
        a = cd.gen_convex_random(n, rng.randrange(10**6))
        m = cd.thm4_matching(a)
        h = n // 2
        assert len(m) == h
        sums = [a[lo - 1] + a[hi - 1] for lo, hi in m.pairs]
        assert cd.is_convex(cd.restricted_sum_set(a, m))
        d = [a[t + 1] - a[t] for t in range(n - 1)]
        for t in range(1, h):
            assert sums[t] - sums[t - 1] == d[t - 1] + d[h + t - 1]


def test_squares_set():
    s = cd.squares_set(5)
    assert [int(x) for x in s] == [1, 4, 9, 16, 25]
    assert cd.is_convex(s)
