"""Property tests of the scaled-integer RealSet against plain sorted Fractions."""

import contextlib
import io
import json
import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from convexdiff import RealSet, scalar_to_json
from convexdiff.cli import _emit_set
from convexdiff.kernels import INT64_SAFE

# Mixed denominators share factors; the primes are pairwise coprime.
DENOMINATORS = (1, 2, 4, 6, 12, 10**6, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

numerators = st.one_of(
    st.integers(-60, 60),
    st.integers(INT64_SAFE - 3, INT64_SAFE + 3),
    st.integers(-INT64_SAFE - 3, -INT64_SAFE + 3),
)
rationals = st.builds(F, numerators, st.sampled_from(DENOMINATORS))
# Every form RealSet accepts that Fraction() also parses: ints, "p/q" strings, Fractions.
values = st.one_of(
    rationals,
    numerators,
    rationals.map(lambda q: f"{q.numerator}/{q.denominator}"),
)
value_lists = st.lists(values, max_size=25)


def _expected(xs):
    return tuple(sorted(set(map(F, xs))))


@settings(deadline=None)
@given(value_lists)
def test_from_values_matches_sorted_fractions(xs):
    s = RealSet.from_values(xs)
    assert s.elements == _expected(xs)
    assert s.den >= 1 and math.gcd(s.den, *s.ints) == 1
    assert all(a < b for a, b in zip(s.ints, s.ints[1:]))
    assert RealSet(_expected(xs)) == s


@settings(deadline=None)
@given(value_lists, st.sampled_from((2, 3, 10, 77, 2**70)))
def test_non_minimal_denominator_is_the_same_set(xs, k):
    s = RealSet.from_values(xs)
    rebuilt = RealSet([x * k for x in s.ints], den=s.den * k)
    assert rebuilt == s and hash(rebuilt) == hash(s)
    assert (rebuilt.ints, rebuilt.den) == (s.ints, s.den)


@settings(deadline=None)
@given(value_lists)
def test_json_round_trip_and_writer(xs):
    s = RealSet.from_values(xs)
    payload = s.to_json()
    assert payload == {"elements": [scalar_to_json(q) for q in _expected(xs)]}
    assert RealSet.from_json(json.loads(json.dumps(payload))) == s
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_set(s, None)
    assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"


@settings(deadline=None)
@given(value_lists, st.lists(values, max_size=10))
def test_membership_agrees_with_fractions(xs, probes):
    s = RealSet.from_values(xs)
    members = set(_expected(xs))
    # Just above a member, at a finer denominator than the set's own.
    nudged = [q + F(1, k) for q in members for k in (2, 3 * s.den)]
    for p in list(xs) + probes + nudged:
        assert (p in s) == (F(p) in members)
