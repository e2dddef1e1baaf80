"""Claim verifiers and growth tables."""

import math
from fractions import Fraction as F

import pytest

import convexdiff as cd
from convexdiff import InvalidInput, InvalidParams, RealSet, Report
from convexdiff import claims
from convexdiff.claims import _non_differences


def test_report_invariant():
    r = Report(claim_id="x", params={}, passed=True, counterexample=None, counts={})
    assert r.to_json()["passed"] is True
    with pytest.raises(InvalidInput):
        Report(claim_id="x", params={}, passed=True, counterexample={"bad": 1}, counts={})
    with pytest.raises(InvalidInput):
        Report(claim_id="x", params={}, passed=False, counterexample=None, counts={})


def test_claim21_frozen_n1000():
    r = cd.verify_claim_2_1(1000)
    assert r.passed and r.counterexample is None
    assert r.counts == {"i_at_k9": 1, "j_at_k9": 743}
    assert r.params == {"n": 1000, "k_min": 9, "k_max": 10}
    # re-check the recorded interleaving against the raw block values
    i, j = r.counts["i_at_k9"], r.counts["j_at_k9"]
    cur = cd.thm1_block(1000, 9)
    nxt = cd.thm1_block(1000, 10)
    assert nxt[i - 1] <= cur[j - 1] < cur[j] <= nxt[i]


def test_claim21_vacuous_single_block():
    # n=300 has a one-block window, so there is no consecutive pair to check
    r = cd.verify_claim_2_1(300)
    assert r.passed and r.counts == {}


def test_claim21_n2000():
    r = cd.verify_claim_2_1(2000)
    assert r.passed
    assert set(r.counts) == {"i_at_k18", "j_at_k18", "i_at_k19", "j_at_k19"}


def test_claim22_frozen():
    r = cd.verify_claim_2_2(1000)
    assert r.passed
    assert r.counts == {"bound": 280, "count_at_k9": 604, "count_at_k10": 445}
    r2 = cd.verify_claim_2_2(2000)
    assert r2.passed
    assert r2.counts == {
        "bound": 560,
        "count_at_k18": 1096,
        "count_at_k19": 934,
        "count_at_k20": 789,
    }


def test_claim22_counts_bounded_by_block_size():
    for n in (1000, 2000):
        r = cd.verify_claim_2_2(n)
        i_max = (99 * n) // 100
        for key, c in r.counts.items():
            if key.startswith("count_at_"):
                assert 0 <= c <= i_max


def test_claim22_count_matches_direct_interval():
    # independent recount of one block against closed-form neighbor extrema
    n = 1000
    d9 = cd.thm1_block(n, 9)
    d10 = cd.thm1_block(n, 10)
    i_max = cd.Thm1Params.for_n(n, strict=False).i_max
    c1, c2 = F(75, n * n), F(1, n**5)

    def gap(k, i):
        return k + c1 * (2 * k * i + k * k) + c2 * (3 * i * i * k + 3 * i * k * k + k**3)

    lo = gap(8, i_max)  # max of the k-1 block
    hi = d10[0]  # min of the k+1 block
    cnt = sum(1 for x in d9 if lo < x < hi)
    assert cnt == cd.verify_claim_2_2(n).counts["count_at_k9"]


def test_thm1_size_frozen():
    r = cd.verify_thm1_size(400)
    assert r.passed
    assert r.counts == {
        "size": 396,
        "per_block_bound": 112,
        "interior_blocks": 0,
        "required": 40,
        "splices": 0,
        "members_verified": 396,
    }
    r2 = cd.verify_thm1_size(1000)
    assert r2.passed
    assert r2.counts["size"] == 1756
    assert r2.counts["required"] == 250
    assert r2.counts["members_verified"] == 1756


def _glue_with(monkeypatch, edit):
    """Make verify_thm1_size see the glued ints of n = 1000 changed by `edit`."""
    s, trace = cd.glue_chain(1000)
    edited = edit(list(s.over(1000**5)))
    glued = RealSet(edited, den=1000**5)
    monkeypatch.setattr(claims, "glue_chain", lambda n: (glued, trace))
    return edited


def test_thm1_size_reports_non_member(monkeypatch):
    def bump_last(ints):
        ints[-1] += 1  # only the last gap grows: still increasing and convex
        return ints

    ints = _glue_with(monkeypatch, bump_last)
    r = cd.verify_thm1_size(1000)
    assert not r.passed
    assert r.counterexample == {
        "reason": "element outside the difference set",
        "elements": [str(F(ints[-1], 1000**5))],
    }
    assert r.counts["size"] == 1756
    assert r.counts["members_verified"] == 1755


def test_thm1_size_counts_every_non_member(monkeypatch):
    # Every element moved by 1/n^5: still convex, and none is a difference.
    ints = _glue_with(monkeypatch, lambda ints: [v + 1 for v in ints])
    r = cd.verify_thm1_size(1000)
    assert r.counterexample == {
        "reason": "element outside the difference set",
        "elements": [str(F(v, 1000**5)) for v in ints[:3]],
    }
    assert r.counts["size"] == 1756
    assert r.counts["members_verified"] == 0


def test_thm1_size_catches_planted_closed_form_fault(monkeypatch):
    # The glue reads Thm1Params.coeffs; membership must not trust it.
    coeffs = cd.Thm1Params.coeffs

    def planted(self, k):
        const, lin, quad = coeffs(self, k)
        return const + (k == self.k_max), lin, quad

    monkeypatch.setattr(cd.Thm1Params, "coeffs", planted)
    r = cd.verify_thm1_size(1000)
    assert not r.passed
    assert r.counterexample["reason"] == "element outside the difference set"
    assert r.counts["members_verified"] == 1756 - 773


def _flatten_at_101(ints):
    # Still increasing, but the two gaps around ints[101] become equal.
    assert (ints[100] + ints[102]) % 2 == 0
    ints[101] = (ints[100] + ints[102]) // 2
    return ints


def test_thm1_size_reports_non_convex(monkeypatch):
    _glue_with(monkeypatch, _flatten_at_101)
    r = cd.verify_thm1_size(1000)
    assert r.counterexample == {"reason": "glued set is not convex"}
    assert r.counts["members_verified"] == 0


def test_thm1_size_reports_size_below_bound(monkeypatch):
    _glue_with(monkeypatch, lambda ints: ints[:249])
    r = cd.verify_thm1_size(1000)
    assert r.counterexample == {"reason": "size below bound", "size": 249, "required": 250}
    assert r.counts["members_verified"] == 249


def test_membership_check_catches_alien_elements():
    n = 300
    s, _ = cd.glue_chain(n)
    ints = list(s.over(n**5))
    assert _non_differences(n, ints) == []
    shifted = [v + 1 for v in ints]  # every element moved by 1/n^5
    diffs = set(cd.difference_set(cd.thm1_set(n)).over(n**5))
    expected = [v for v in shifted if v not in diffs]
    assert expected
    assert _non_differences(n, shifted) == expected


@pytest.mark.parametrize("n", [100, 300])
def test_membership_check_agrees_with_difference_set(n):
    n5 = n**5
    d = cd.difference_set(cd.thm1_set(n))
    vals = d.over(n5)
    nonzero = [v for v in vals if v != 0]
    assert _non_differences(n, nonzero) == []
    assert _non_differences(n, [0]) == []
    positive = [v for v in vals if v > 0]
    for shift in (-1, 1):  # by 1/n^5
        shifted = [v + shift for v in positive]
        assert _non_differences(n, shifted) == shifted
    # A denominator that does not divide n^5 is never a difference: such a
    # set has no ints over n^5 to check.
    alien = RealSet((d[-1] + F(1, 7 * n5),))
    assert n5 % alien.den != 0
    with pytest.raises(InvalidInput):
        alien.over(n5)


def test_claims3_exhaustive_frozen():
    reports = {n: cd.verify_claims_3(n) for n in range(2, 9)}
    assert all(r.passed for r in reports.values())
    assert reports[4].counts == {"subsets_checked": 16, "matchings_checked": 10}
    assert reports[5].counts == {"subsets_checked": 121, "matchings_checked": 26}
    # Every convex subset of the positive differences, at every n the harness takes.
    checked = {n: r.counts["subsets_checked"] for n, r in reports.items()}
    assert checked == {2: 0, 3: 1, 4: 16, 5: 121, 6: 645, 7: 2856, 8: 11341}


def test_claims3_sampled():
    full = cd.verify_claims_3(6)
    assert full.passed
    assert full.counts == {"subsets_checked": 645, "matchings_checked": 69}
    assert full.to_json()["params"] == {"n": 6}


def test_claims3_param_gate():
    with pytest.raises(InvalidParams):
        cd.verify_claims_3(1)
    with pytest.raises(InvalidParams):
        cd.verify_claims_3(9)


def test_claims3_size_bound_holds_by_hand():
    # |S| <= #occupied blocks + 1 re-derived outside the verifier
    n = 4
    a = cd.thm3_set(n)
    pos = RealSet(tuple(x for x in cd.difference_set(a) if x > 0))
    for s in cd.enumerate_convex_subsets(pos):
        ks = {cd.thm3_block_of(n, x)[0] for x in s}
        assert len(s) <= len(ks) + 1


def test_claims3_undecodable_value_is_a_counterexample(monkeypatch):
    # A positive difference the decoder rejects must surface as a "decode"
    # counterexample in the first subset that holds it.
    n = 4
    pos = [x for x in cd.difference_set(cd.thm3_set(n)).ints if x > 0]
    missing = pos[len(pos) // 2]
    real = claims.thm3_block_of
    monkeypatch.setattr(claims, "thm3_block_of", lambda n, x: None if x == missing else real(n, x))
    report = claims.verify_claims_3(n)
    assert not report.passed
    assert report.counterexample["claim"] == "decode"
    assert report.counterexample["element"] == str(missing)
    assert str(missing) in report.counterexample["set"]


def test_growth_table_thm3_cm_envelope():
    rows = cd.growth_table("thm3_cm", list(range(4, 11)))
    vals = [v for _, _, v, _ in rows]
    assert vals == [2, 2, 3, 3, 4, 4, 5]
    assert all(ex for _, _, _, ex in rows)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    for _, n, v, _ in rows:
        assert v <= 3 * math.sqrt(n)


def test_growth_table_squares_bound():
    for _, n, v, _ in cd.growth_table("squares_C", [5, 10, 17]):
        assert v >= n


def test_growth_table_thm1_trend():
    rows = cd.growth_table("thm1_S_size", [200, 400, 1000])
    by_n = {n: v for _, n, v, _ in rows}
    assert by_n == {200: 198, 400: 396, 1000: 1756}
    assert by_n[1000] >= 4 * by_n[400]
    (_, _, mid, _), = cd.growth_table("thm1_S_size", [316])
    assert by_n[1000] >= 4 * mid


def test_growth_table_skips_infeasible():
    rows = cd.growth_table("thm1_S_size", [250, 400])
    assert rows[0] == ("thm1_S_size", 250, "skipped", False)
    assert rows[1][2] == 396
    big = cd.growth_table("no4ap_max", [10, 500, cd.oracles.NO4AP_MAX_N + 1])
    assert big == [
        ("no4ap_max", 10, 6, True),
        ("no4ap_max", 500, 44, True),
        ("no4ap_max", 2001, "skipped", False),
    ]


def test_growth_table_thm3_cm_guard_precedes_the_build(monkeypatch):
    real = claims.thm3_set

    def small_only(n):
        if n > 12:
            raise AssertionError(f"thm3_set({n}) built past the matching guard")
        return real(n)

    monkeypatch.setattr(claims, "thm3_set", small_only)
    assert cd.oracles.CM_MAX_N == 12
    assert cd.growth_table("thm3_cm", [12, 13, 10**6]) == [
        ("thm3_cm", 12, 6, True),
        ("thm3_cm", 13, "skipped", False),
        ("thm3_cm", 10**6, "skipped", False),
    ]


def test_growth_table_broken_construction_raises(monkeypatch):
    # Only the oracles' guards and out-of-range parameters make a skipped row;
    # a construction that is not convex is an error.
    monkeypatch.setattr(claims, "thm3_set", lambda n: RealSet(range(n)))
    with pytest.raises(InvalidInput):
        cd.growth_table("thm3_cm", [4])


def test_growth_table_family_gate():
    with pytest.raises(InvalidParams):
        cd.growth_table("bogus", [4])


def test_growth_csv_exact_text(tmp_path):
    out = tmp_path / "growth.csv"
    cd.growth_csv(cd.growth_table("no4ap_max", [4, 10, 500, 2001]), str(out))
    assert out.read_text().splitlines() == [
        "family,n,value,exhaustive",
        "no4ap_max,4,3,true",
        "no4ap_max,10,6,true",
        "no4ap_max,500,44,true",
        "no4ap_max,2001,skipped,false",
    ]


def test_reports_reproducible():
    a = cd.verify_claim_2_2(1000).to_json()
    b = cd.verify_claim_2_2(1000).to_json()
    assert a == b
