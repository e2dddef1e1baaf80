"""Kernel tier selection and cross-tier agreement for the subset table."""

import random
from functools import lru_cache

import pytest

import convexdiff as cd
from convexdiff import InvalidInput, TooLarge
from convexdiff.kernels import (
    INT64_SAFE,
    MAX_TABLE,
    available_tiers,
    compute_table,
)


def _random_scaled(rng, n):
    vals = [rng.randrange(0, 5)]
    for _ in range(n - 1):
        vals.append(vals[-1] + rng.randrange(1, 50))
    return vals


def _ties(m):
    """Inputs where b[u] - b[t] == b[t] - b[a] for many triples: such a u must not extend."""
    squares = [i * i for i in range(1, m + 1)]
    return [
        list(range(0, 3 * m, 3)),  # arithmetic progression
        list(range(-m, m)),
        sorted({x - y for x in squares for y in squares}),
        sorted({x + y for x in squares for y in squares}),
    ]


def _thm1_window(n, k, w):
    """w consecutive values of a thm1 block, as ints over n^5."""
    block = cd.thm1_block(n, k).elements[:w]
    return [int(x * n**5) for x in block]


def test_available_tiers_always_has_fallbacks():
    assert available_tiers() == ("numpy", "python")


def test_compute_table_guards():
    with pytest.raises(InvalidInput):
        compute_table([5])
    with pytest.raises(TooLarge):
        compute_table(list(range(MAX_TABLE + 1)))


def test_force_bad_name_rejected():
    for name in ("turbo", "numba"):
        with pytest.raises(InvalidInput):
            compute_table([1, 2, 4], force=name)


def test_int64_guard_forces_python_tier():
    big = [0, INT64_SAFE // 2, INT64_SAFE + 7]
    _, tier = compute_table(big, force="numpy")
    assert tier == "python"
    _, tier = compute_table(big)
    assert tier == "python"
    assert compute_table([1, 2, 4, 8])[1] == "numpy"  # the default below the bound


def test_tiers_agree_on_random_tables():
    # The numpy tier runs the level pass and the python tier the column pass,
    # so this compares two algorithms. Beyond the random inputs: a convex
    # window (L = m, the most levels), the same window made near-convex by a
    # midpoint, tie-heavy sets, and a large difference set (L << m).
    rng = random.Random(99)
    inputs = [_random_scaled(rng, rng.randrange(2, 30)) for _ in range(40)]
    window = _thm1_window(300, 3, 400)
    near_convex = window[:200] + [(window[199] + window[200]) // 2] + window[200:]
    diffs = cd.difference_set(cd.gen_convex_random(62, 62)).ints
    mid = (len(diffs) - 3000) // 2
    inputs += [window, near_convex, *_ties(40), diffs[mid : mid + 3000]]
    for vals in inputs:
        fast, tier = compute_table(vals, force="numpy")
        slow, slow_tier = compute_table(vals, force="python")
        assert (tier, slow_tier) == ("numpy", "python")
        assert fast.tolist() == slow


def test_python_tier_handles_big_integers_exactly():
    # values from the digit construction overflow int64 quickly
    a = cd.thm3_set(13)
    scaled = [int(x) for x in cd.difference_set(a) if x > 0]
    assert max(scaled) > INT64_SAFE
    table, tier = compute_table(scaled)
    assert tier == "python"
    assert max(max(row) for row in table) >= 13


def test_table_entries_are_suffix_lengths():
    # g[a][t] = longest convex subset of B starting with (B[a], B[t]), on every tier
    rng = random.Random(5)
    inputs = [_random_scaled(rng, rng.randrange(2, 12)) for _ in range(20)]
    inputs += _ties(2) + _ties(3) + _ties(5)
    for vals in inputs:
        m = len(vals)

        @lru_cache(maxsize=None)
        def best(a, t):
            out = 2
            for u in range(t + 1, m):
                if vals[u] - vals[t] > vals[t] - vals[a]:
                    out = max(out, 1 + best(t, u))
            return out

        for tier in available_tiers():
            table, used = compute_table(vals, force=tier)
            assert used == tier
            for a in range(m):
                for t in range(a + 1, m):
                    assert int(table[a][t]) == best(a, t), (tier, vals, a, t)


def test_int64_boundary_routes_to_python_with_identical_table():
    # Translation keeps every gap comparison, so the big-int copy of an input
    # must give the same table on the python tier as the input on numpy.
    rng = random.Random(6)
    inputs = [_random_scaled(rng, rng.randrange(2, 40)) for _ in range(20)]
    inputs += _ties(8) + [_thm1_window(300, 3, 40)]
    for vals in inputs:
        assert max(abs(vals[0]), abs(vals[-1])) <= INT64_SAFE
        table, tier = compute_table(vals)
        shifted, big_tier = compute_table([x + 10**30 for x in vals])
        assert (tier, big_tier) == ("numpy", "python")
        assert isinstance(shifted, list)
        assert table.tolist() == shifted
