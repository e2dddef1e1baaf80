"""Core types, predicates, and set operators."""

import random
from fractions import Fraction as F

import pytest

import convexdiff as cd
from convexdiff import (
    InvalidInput,
    InvalidMatching,
    Matching,
    RealSet,
    as_exact,
    scalar_from_json,
    scalar_to_json,
)


def test_as_exact_coercions():
    assert as_exact(3) == F(3)
    assert as_exact("3/4") == F(3, 4)
    assert as_exact("-2") == F(-2)
    assert as_exact((6, 8)) == F(3, 4)
    q = F(5, 7)
    assert as_exact(q) is q


@pytest.mark.parametrize("bad", ["x", "1/0", (1, 0), 1.5, None, [1, 2]])
def test_as_exact_rejects(bad):
    with pytest.raises(InvalidInput):
        as_exact(bad)


def test_scalar_json_round_trip():
    for q in (F(0), F(-3), F(22, 7), F(10**30, 3), F(-5, 9)):
        payload = scalar_to_json(q)
        assert set(payload) == {"num", "den"}
        assert scalar_from_json(payload) == q
    assert scalar_to_json(F(4))["den"] == "1"


@pytest.mark.parametrize(
    "payload",
    [
        {"num": "2", "den": "4"},  # not lowest terms
        {"num": "1", "den": "0"},
        {"num": "1.5", "den": "1"},
        {"num": "1", "den": "-2"},
        {"num": 1, "den": "1"},
        {"num": "1"},
        {"num": "1", "den": "1", "extra": "x"},
        "3/4",
        {"num": "\u00b2", "den": "1"},  # superscript two: isdigit() but not int()-able
        {"num": "\u0661", "den": "1"},  # Arabic-Indic one: int() would read it as 1
        # Not canonical: int() reads each of these, but only "0" or str(n) is written.
        {"num": "-0", "den": "1"},
        {"num": "007", "den": "1"},
        {"num": "-07", "den": "1"},
        {"num": "7", "den": "01"},
        {"num": "-0", "den": "001"},
        {"num": "00", "den": "1"},
        {"num": "+7", "den": "1"},
        {"num": " 7", "den": "1"},
        {"num": "7_0", "den": "1"},
        {"num": "\uff17", "den": "1"},  # full-width seven: int() reads it as 7
    ],
)
def test_scalar_json_rejects(payload):
    with pytest.raises(InvalidInput):
        scalar_from_json(payload)


def test_realset_basics():
    s = RealSet((0, 1, 3))
    assert len(s) == 3
    assert list(s) == [F(0), F(1), F(3)]
    assert s[2] == 3
    assert 1 in s and F(1, 2) not in s and 2 not in s


def test_realset_rejects_unsorted_and_duplicates():
    with pytest.raises(InvalidInput):
        RealSet((1, 1, 2))
    with pytest.raises(InvalidInput):
        RealSet((2, 1))


def test_realset_from_values_sorts_and_dedups():
    s = RealSet.from_values([3, "1/2", 0, 3, F(1, 2)])
    assert s.elements == (F(0), F(1, 2), F(3))


def test_realset_json_round_trip():
    s = RealSet((F(-7, 2), 0, F(22, 7), 10**25))
    assert RealSet.from_json(s.to_json()) == s
    with pytest.raises(InvalidInput):
        RealSet.from_json({"elements": [scalar_to_json(F(2)), scalar_to_json(F(1))]})
    with pytest.raises(InvalidInput):
        RealSet.from_json([1, 2])


def test_realset_from_json_rejects_extra_keys():
    # A stray key is more likely a writer's mistake than a comment: "den" here
    # probably meant every element over 7.
    with pytest.raises(InvalidInput):
        RealSet.from_json({"elements": [{"num": "1", "den": "1"}], "den": "7"})
    with pytest.raises(InvalidInput):
        RealSet.from_json({"elements": [], "note": None})


def test_matching_validation():
    m = Matching(4, ((1, 3), (2, 4)))
    assert len(m) == 2
    with pytest.raises(InvalidMatching):
        Matching(4, ((1, 5),))
    with pytest.raises(InvalidMatching):
        Matching(4, ((3, 3),))
    with pytest.raises(InvalidMatching):
        Matching(4, ((0, 2),))
    with pytest.raises(InvalidMatching):
        Matching(4, ((1, 2), (2, 3)))
    with pytest.raises(InvalidMatching):
        Matching(-1, ())
    # Entries are never coerced: floats, strings and bools are rejected.
    for base_size, pairs in (
        (4, ((1.9, 3.2),)),
        (4, ((1.0, 3),)),
        (4, (("1", "3"),)),
        (4, ((True, 3),)),
        (4, ((1, 2, 3),)),
        (4, (1, 2)),
        (4, 5),
        (True, ()),
        (4.0, ()),
    ):
        with pytest.raises(InvalidMatching):
            Matching(base_size, pairs)


def test_matching_json_round_trip():
    m = Matching(6, ((1, 4), (2, 6)))
    assert Matching.from_json(m.to_json()) == m
    with pytest.raises(InvalidInput):
        Matching.from_json({"base_size": 4, "pairs": [[1]]})
    with pytest.raises(InvalidInput):
        Matching.from_json({"base_size": 4})
    for pairs in ([[1.9, 3.2]], [["1", "3"]], [[True, 3]]):
        with pytest.raises(InvalidInput):
            Matching.from_json({"base_size": 4, "pairs": pairs})
    with pytest.raises(InvalidInput):
        Matching.from_json({"base_size": True, "pairs": []})


def test_is_convex_examples():
    assert cd.is_convex(RealSet((1, 2, 4, 8)))
    assert not cd.is_convex(RealSet((0, 1, 2, 3)))
    assert cd.is_convex(RealSet(()))
    assert cd.is_convex(RealSet((5,)))
    assert cd.is_convex(RealSet((3, 10)))
    assert cd.is_convex(RealSet((0, F(1, 2), F(3, 2))))
    assert not cd.is_convex(RealSet((0, F(1, 2), 1)))


def test_is_weakly_convex_examples():
    assert cd.is_weakly_convex(RealSet((0, 1, 2, 3)))
    assert cd.is_weakly_convex(RealSet((1, 2, 4, 8)))
    assert not cd.is_weakly_convex(RealSet((0, 2, 3)))


def test_difference_set_example():
    d = cd.difference_set(RealSet((0, 1, 3)))
    assert [int(x) for x in d] == [-3, -2, -1, 0, 1, 2, 3]


def test_sum_set_example():
    s = cd.sum_set(RealSet((1, 2)))
    assert [int(x) for x in s] == [2, 3, 4]


def test_pairwise_sets_match_fraction_sort():
    # Mixed denominators: the int-keyed sets equal the sorted Fraction sets.
    rng = random.Random(17)
    for _ in range(30):
        a = RealSet.from_values(
            [F(rng.randrange(-60, 60), rng.choice((1, 2, 3, 4, 6, 7, 9, 10))) for _ in range(12)]
        )
        e = a.elements
        assert cd.difference_set(a).elements == tuple(sorted({x - y for x in e for y in e}))
        assert cd.sum_set(a).elements == tuple(sorted({x + y for x in e for y in e}))


def test_empty_set_operators_rejected():
    with pytest.raises(InvalidInput):
        cd.difference_set(RealSet(()))
    with pytest.raises(InvalidInput):
        cd.sum_set(RealSet(()))


def test_restricted_sets():
    a = RealSet((1, 2, 4, 8))
    m = Matching(4, ((1, 3), (2, 4)))
    assert [int(x) for x in cd.restricted_difference_set(a, m)] == [3, 6]
    assert [int(x) for x in cd.restricted_sum_set(a, m)] == [5, 10]
    with pytest.raises(InvalidMatching):
        cd.restricted_difference_set(RealSet((1, 2, 4)), m)
    with pytest.raises(InvalidMatching):
        cd.restricted_sum_set(RealSet((1, 2, 4)), m)


def test_restricted_difference_collapses_equal_values():
    # pairs (1,2) and (3,4) of an AP share the difference value
    a = RealSet((0, 1, 2, 3))
    m = Matching(4, ((1, 2), (3, 4)))
    assert len(cd.restricted_difference_set(a, m)) == 1 < len(m)


def test_count_representations():
    a = RealSet((0, 1, 3))
    assert cd.count_representations(a, 1, "difference") == 1
    assert cd.count_representations(a, 0, "difference") == 3
    assert cd.count_representations(a, 2, "difference") == 1
    assert cd.count_representations(a, -3, "difference") == 1
    assert cd.count_representations(a, 5, "difference") == 0
    assert cd.count_representations(a, 1, "sum") == 2
    assert cd.count_representations(a, 0, "sum") == 1
    assert cd.count_representations(a, 4, "sum") == 2
    with pytest.raises(InvalidInput):
        cd.count_representations(a, 1, "product")


def test_gen_convex_random_contract():
    a = cd.gen_convex_random(50, 123)
    assert len(a) == 50
    assert cd.is_convex(a)
    assert a == cd.gen_convex_random(50, 123)
    assert a != cd.gen_convex_random(50, 124)
    assert len(cd.gen_convex_random(1, 0)) == 1
    with pytest.raises(InvalidInput):
        cd.gen_convex_random(0, 1)


def test_translate_lies_in_difference_set():
    # every translate A - a sits inside A - A, the bound-(1.1) argument
    rng = random.Random(11)
    for _ in range(20):
        a = cd.gen_convex_random(rng.randrange(2, 15), rng.randrange(10**6))
        d = cd.difference_set(a)
        for base in a:
            shifted = RealSet(tuple(x - base for x in a))
            assert cd.is_convex(shifted)
            assert all(x in d for x in shifted)


def test_convex_implies_weakly_convex():
    rng = random.Random(12)
    for _ in range(25):
        a = cd.gen_convex_random(rng.randrange(1, 20), rng.randrange(10**6))
        assert cd.is_convex(a) and cd.is_weakly_convex(a)


def test_restricted_diff_values_are_differences():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(4, 12)
        a = cd.gen_convex_random(n, rng.randrange(10**6))
        idx = list(range(1, n + 1))
        rng.shuffle(idx)
        pairs = tuple(
            tuple(sorted(idx[2 * t : 2 * t + 2])) for t in range(n // 3)
        )
        m = Matching(n, pairs)
        rd = cd.restricted_difference_set(a, m)
        assert len(rd) <= len(m)
        d = cd.difference_set(a)
        assert all(x in d and x > 0 for x in rd)
