"""Property tests of the suffix DP kernel: both tiers, the int64 routing, DP = brute force.

The inputs are strictly increasing ints where the exact comparisons of the
kernel can go wrong: arithmetic progressions (every middle triple is a tie),
symmetric sets (difference sets are symmetric), and progressions nudged by
one (near-ties on both sides).
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from convexdiff import RealSet, lcs_convex, lcs_convex_bruteforce
from convexdiff.kernels import INT64_SAFE, compute_table


def _from_gaps(start, gaps):
    out = [start]
    for d in gaps:
        out.append(out[-1] + d)
    return out


random_sets = st.builds(
    _from_gaps, st.integers(-100, 100), st.lists(st.integers(1, 30), min_size=1, max_size=40)
)
progressions = st.builds(
    lambda a, d, m: [a + d * i for i in range(m)],
    st.integers(-50, 50),
    st.integers(1, 9),
    st.integers(2, 40),
)
symmetric_sets = st.lists(st.integers(1, 120), min_size=1, max_size=20).map(
    lambda xs: sorted({0} | set(xs) | {-x for x in xs})
)
near_ties = st.builds(
    lambda d, nudges: [d * i + e for i, e in enumerate(nudges)],
    st.integers(3, 12),
    st.lists(st.integers(-1, 1), min_size=2, max_size=40),
)
increasing_ints = st.one_of(random_sets, progressions, symmetric_sets, near_ties)


@settings(deadline=None)
@given(increasing_ints)
def test_tiers_build_the_same_table(vals):
    fast, tier = compute_table(vals, force="numpy")
    slow, slow_tier = compute_table(vals, force="python")
    assert (tier, slow_tier) == ("numpy", "python")
    assert isinstance(slow, list)
    assert fast.tolist() == slow


SHIFTS = ("none", "top", "above top", "bottom", "below bottom", "far")


@settings(deadline=None)
@given(increasing_ints, st.sampled_from(SHIFTS))
def test_shifted_input_gives_the_same_table_on_the_routed_tier(vals, where):
    # A translation keeps every gap comparison, so it keeps the table. The
    # shifts put an end value exactly at, or one past, the int64 safety bound.
    shift = {
        "none": 0,
        "top": INT64_SAFE - vals[-1],
        "above top": INT64_SAFE + 1 - vals[-1],
        "bottom": -INT64_SAFE - vals[0],
        "below bottom": -INT64_SAFE - 1 - vals[0],
        "far": 10**30,
    }[where]
    moved = [x + shift for x in vals]
    table, tier = compute_table(vals)
    moved_table, moved_tier = compute_table(moved)
    assert tier == "numpy"
    fits = max(abs(moved[0]), abs(moved[-1])) <= INT64_SAFE
    assert moved_tier == ("numpy" if fits else "python")
    assert moved_tier == ("numpy" if where in ("none", "top", "bottom") else "python")
    rows = moved_table.tolist() if moved_tier == "numpy" else moved_table
    assert rows == table.tolist()


rationals = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 7]))


@settings(deadline=None)
@given(
    st.one_of(
        st.lists(rationals, min_size=1, max_size=12, unique=True),
        progressions.map(lambda v: [F(x, 3) for x in v[:12]]),
        near_ties.map(lambda v: [F(x, 2) for x in v[:12]]),
    ),
    st.sampled_from([0, 10**30]),
)
def test_lcs_convex_equals_bruteforce_on_rationals(values, shift):
    # The shift sends the same set through the big-int tier.
    b = RealSet.from_values(x + shift for x in values)
    assert len(b) <= 12
    assert lcs_convex(b) == lcs_convex_bruteforce(b)
