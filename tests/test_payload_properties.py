"""Property tests of the JSON payload readers, RealSet.from_json and Matching.from_json.

A malformed payload raises a ConvexDiffError subclass, never a bare
TypeError, KeyError or ValueError, and a valid payload round-trips.
"""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexdiff import ConvexDiffError, Matching, RealSet, scalar_to_json

keys = st.text(max_size=8)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=8,
)

rationals = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
sorted_sets = st.lists(rationals, unique=True, max_size=12).map(sorted)


def _not_decimal(pattern):
    return st.one_of(
        json_values.filter(lambda v: not isinstance(v, str)),
        st.text(max_size=6).filter(lambda t: not re.fullmatch(pattern, t)),
    )


def _scalar(p, q, g=1):
    return {"num": str(p * g), "den": str(q * g)}


bad_scalars = st.one_of(
    json_values.filter(lambda v: not isinstance(v, dict)),
    st.builds(lambda num: {"num": num, "den": "1"}, _not_decimal(r"-?[0-9]+")),
    st.builds(lambda den: {"num": "1", "den": den}, _not_decimal(r"[0-9]+")),
    # zero and negative denominators, then p/q not in lowest terms
    st.builds(_scalar, st.integers(-50, 50), st.integers(-50, 0)),
    st.builds(_scalar, st.integers(-50, 50), st.integers(1, 50), st.integers(2, 50)),
    st.builds(
        lambda q, k, v: {**scalar_to_json(q), k: v},
        rationals,
        keys.filter(lambda k: k not in ("num", "den")),
        json_values,
    ),
)


@st.composite
def malformed_sets(draw):
    values = draw(sorted_sets)
    items = [scalar_to_json(q) for q in values]
    at = draw(st.integers(0, len(items)))
    cases = [
        json_values.filter(lambda v: not isinstance(v, dict)),
        st.dictionaries(keys.filter(lambda k: k != "elements"), json_values, max_size=3),
        json_values.filter(lambda v: not isinstance(v, list)).map(lambda v: {"elements": v}),
        st.builds(
            lambda k, v: {"elements": items, k: v},
            keys.filter(lambda k: k != "elements"),
            json_values,
        ),
        bad_scalars.map(lambda b: {"elements": items[:at] + [b] + items[at:]}),
    ]
    if items:
        # A copy of any element, anywhere: a duplicate or out of order.
        dup = draw(st.integers(0, len(items) - 1))
        cases.append(st.just({"elements": items[:at] + [items[dup]] + items[at:]}))
    if len(items) >= 2:
        positions = st.lists(st.integers(0, len(items) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(positions))
        swapped = items[:i] + [items[j]] + items[i + 1 : j] + [items[i]] + items[j + 1 :]
        cases.append(st.just({"elements": swapped}))
    return draw(st.one_of(cases))


@st.composite
def matchings(draw):
    base_size = draw(st.integers(0, 12))
    order = draw(st.permutations(range(1, base_size + 1)))
    count = draw(st.integers(0, base_size // 2))
    pairs = [sorted(order[2 * t : 2 * t + 2]) for t in range(count)]
    return {"base_size": base_size, "pairs": pairs}


def _two_ints(p):
    return isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)


@st.composite
def malformed_matchings(draw):
    good = draw(matchings())
    base_size, pairs = good["base_size"], good["pairs"]
    at = draw(st.integers(0, len(pairs)))

    def with_pair(p):
        return {"base_size": base_size, "pairs": pairs[:at] + [p] + pairs[at:]}

    cases = [
        json_values.filter(lambda v: not isinstance(v, dict)),
        st.builds(lambda k, v: {**good, k: v}, keys.filter(lambda k: k not in good), json_values),
        st.sampled_from(["base_size", "pairs"]).map(lambda k: {k: good[k]}),
        json_values.filter(lambda v: type(v) is not int).map(lambda v: {**good, "base_size": v}),
        st.integers(-(10**6), -1).map(lambda v: {**good, "base_size": v}),
        json_values.filter(lambda v: not isinstance(v, list)).map(lambda v: {**good, "pairs": v}),
        json_values.filter(lambda p: not _two_ints(p)).map(with_pair),
        st.lists(st.integers(-3, base_size + 3), min_size=2, max_size=2)
        .filter(lambda p: not 1 <= p[0] < p[1] <= base_size)
        .map(with_pair),
    ]
    if pairs:
        # A pair in range that reuses an index of an existing pair.
        used = draw(st.sampled_from([x for p in pairs for x in p]))
        other = draw(st.integers(1, base_size).filter(lambda y: y != used))
        cases.append(st.just(with_pair(sorted((used, other)))))
    return draw(st.one_of(cases))


def _via_json(payload):
    return json.loads(json.dumps(payload))


@settings(deadline=None)
@given(sorted_sets)
def test_valid_set_payloads_round_trip(values):
    payload = _via_json({"elements": [scalar_to_json(q) for q in values]})
    s = RealSet.from_json(payload)
    assert s == RealSet(values) and s.to_json() == payload


@settings(deadline=None)
@given(malformed_sets())
def test_malformed_set_payloads_raise_package_errors(payload):
    with pytest.raises(ConvexDiffError):
        RealSet.from_json(_via_json(payload))


@settings(deadline=None)
@given(matchings())
def test_valid_matching_payloads_round_trip(payload):
    payload = _via_json(payload)
    assert Matching.from_json(payload).to_json() == payload


@settings(deadline=None)
@given(malformed_matchings())
def test_malformed_matching_payloads_raise_package_errors(payload):
    with pytest.raises(ConvexDiffError):
        Matching.from_json(_via_json(payload))
