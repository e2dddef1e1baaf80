"""End-to-end command-line behavior: formats, exit codes, determinism."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import convexdiff as cd
from convexdiff import Matching, RealSet, Report
from convexdiff.cli import _emit_set, build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def _write_set(path, values):
    path.write_text(json.dumps(RealSet.from_values(values).to_json()))
    return str(path)


def test_construct_thm3_file(tmp_path):
    out = tmp_path / "a.json"
    assert main(["construct", "thm3", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload == {
        "elements": [
            {"num": "216", "den": "1"},
            {"num": "468", "den": "1"},
            {"num": "726", "den": "1"},
        ]
    }


def test_construct_thm1_round_trips_exactly(tmp_path):
    out = tmp_path / "a.json"
    assert main(["construct", "thm1", "--n", "100", "--out", str(out)]) == 0
    assert RealSet.from_json(json.loads(out.read_text())) == cd.thm1_set(100)


def test_construct_strict_gate(tmp_path, capsys):
    out = tmp_path / "a.json"
    rc = main(["construct", "thm1", "--n", "999", "--strict", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_construct_random_deterministic(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for f in (f1, f2):
        assert main(["construct", "random", "--n", "20", "--seed", "9", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert RealSet.from_json(json.loads(f1.read_text())) == cd.gen_convex_random(20, 9)


def test_glue_with_trace(tmp_path):
    s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
    rc = main(["glue", "--n", "300", "--out", str(s_path), "--trace", str(t_path)])
    assert rc == 0
    s = RealSet.from_json(json.loads(s_path.read_text()))
    assert len(s) == 297 and cd.is_convex(s)
    assert json.loads(t_path.read_text()) == {"splices": []}


def test_glue_n1000_trace(tmp_path):
    s_path, t_path = tmp_path / "s.json", tmp_path / "t.json"
    assert main(["glue", "--n", "1000", "--out", str(s_path), "--trace", str(t_path)]) == 0
    assert json.loads(t_path.read_text()) == {"splices": [{"k": 10, "j": 983, "i": 217}]}
    assert len(RealSet.from_json(json.loads(s_path.read_text()))) == 1756


def test_match_thm2(tmp_path):
    inp = _write_set(tmp_path / "a.json", list(cd.gen_convex_random(36, 0)))
    out = tmp_path / "m.json"
    assert main(["match", "thm2", "--in", inp, "--out", str(out)]) == 0
    m = Matching.from_json(json.loads(out.read_text()))
    assert m.pairs == ((6, 8), (5, 10), (4, 13), (3, 17), (2, 22), (1, 28))


def test_match_thm2_insufficient(tmp_path, capsys):
    inp = _write_set(tmp_path / "a.json", list(cd.gen_convex_random(17, 3)))
    rc = main(["match", "thm2", "--in", inp, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_match_thm4_rejects_nonconvex(tmp_path, capsys):
    inp = _write_set(tmp_path / "a.json", [0, 1, 2, 3])
    rc = main(["match", "thm4", "--in", inp, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    capsys.readouterr()


def test_oracle_lcs_stdout(tmp_path, capsys):
    inp = _write_set(tmp_path / "b.json", [1, 2, 3, 5])
    assert main(["oracle", "lcs", "--in", inp]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 3 and payload["exhaustive"] is True
    assert [e["num"] for e in payload["witness"]["elements"]] == ["1", "2", "5"]


def test_oracle_requires_matching_input_flag(capsys):
    for kind, flag in (("lcs", "--in"), ("cm", "--in"), ("no4ap", "--n")):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", kind])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"required: {flag}" in err


def test_oracle_no4ap(capsys):
    assert main(["oracle", "no4ap", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 3
    assert [e["num"] for e in payload["witness"]["elements"]] == ["1", "2", "3"]


def test_oracle_no4ap_table_guard_exits_2_before_allocating(capsys):
    n = cd.oracles.NO4AP_MAX_N + 1
    tracemalloc.start()
    try:
        assert main(["oracle", "no4ap", "--n", str(n)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the table alone would be (n + 1)(n + 2) entries
    out, err = capsys.readouterr()
    assert out == "" and str(cd.oracles.NO4AP_MAX_N) in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle", "cm", "--in", "{set}", "--n", "0"], "--n"),
        (["construct", "squares", "--n", "5", "--strict", "--seed", "9"], "--strict"),
        (["construct", "thm3", "--n", "5", "--seed", "0"], "--seed"),
        (["oracle", "lcs", "--in", "{set}", "--n", "7"], "--n"),
        (["construct", "random", "--n", "5", "--strict"], "--strict"),
        (["oracle", "no4ap", "--n", "4", "--in", "{set}"], "--in"),
    ],
)
def test_flag_the_kind_ignores_exits_2(argv, flag, tmp_path, capsys):
    inp = _write_set(tmp_path / "b.json", [1, 2, 3, 5])
    out_path = tmp_path / "out.json"
    argv = [a.replace("{set}", inp) for a in argv]
    if argv[0] == "construct":
        argv += ["--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag}" in err
    assert not out_path.exists()


# The dests of each kind's flags; all are required but --strict and --seed.
_KIND_DESTS = {
    ("construct", "thm1"): {"n", "out", "strict"},
    ("construct", "thm3"): {"n", "out"},
    ("construct", "squares"): {"n", "out"},
    ("construct", "random"): {"n", "out", "seed"},
    ("oracle", "lcs"): {"inp"},
    ("oracle", "cm"): {"inp"},
    ("oracle", "no4ap"): {"n"},
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_kind_takes_exactly_its_flags():
    commands = _subparsers(build_parser())
    kinds = {(c, k): p for c in ("construct", "oracle") for k, p in _subparsers(commands[c]).items()}
    assert kinds.keys() == _KIND_DESTS.keys()
    for key, parser in kinds.items():
        flags = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert {a.dest for a in flags} == _KIND_DESTS[key], key
        required = {a.dest for a in flags if a.required}
        assert required == _KIND_DESTS[key] - {"strict", "seed"}, key


def test_oracle_cm_guard_and_override(tmp_path, capsys):
    limit = cd.oracles.CM_MAX_N
    inp = _write_set(tmp_path / "a.json", list(cd.gen_convex_random(limit + 1, 0)))
    assert main(["oracle", "cm", "--in", inp]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{limit + 1} elements exceeds the exhaustive guard {limit}" in err


def test_verify_claim22_passes(capsys):
    assert main(["verify", "claim22", "--n", "1000"]) == 0
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["counts"]["bound"] == 280
    assert "pass" in err


def test_verify_all_kinds_pass(capsys):
    assert main(["verify", "claim21", "--n", "300"]) == 0
    assert main(["verify", "thm1size", "--n", "400"]) == 0
    assert main(["verify", "claims3", "--n", "4"]) == 0
    capsys.readouterr()


def test_verify_failure_exits_1(monkeypatch, capsys):
    failing = Report(
        claim_id="claim_2_2",
        params={"n": 1000},
        passed=False,
        counterexample={"k": 9, "count": 1},
        counts={},
    )
    monkeypatch.setattr(cd.claims, "verify_claim_2_2", lambda n: failing)
    assert main(["verify", "claim22", "--n", "1000"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["passed"] is False
    assert "FAIL" in err


def test_verify_invalid_n_exits_2(capsys):
    assert main(["verify", "claim21", "--n", "120"]) == 2
    capsys.readouterr()


def test_bench_growth_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = main([
        "bench", "growth", "--family", "no4ap_max", "--n-list", "4,10,500,2001",
        "--csv", str(out),
    ])
    assert rc == 0
    assert out.read_text().splitlines() == [
        "family,n,value,exhaustive",
        "no4ap_max,4,3,true",
        "no4ap_max,10,6,true",
        "no4ap_max,500,44,true",
        "no4ap_max,2001,skipped,false",
    ]


def test_bench_growth_broken_construction_exits_2(tmp_path, monkeypatch, capsys):
    # An arithmetic progression is not convex: max_convex_matching rejects it
    # as bad input, and that must not turn into a skipped row.
    monkeypatch.setattr(cd.claims, "thm3_set", lambda n: RealSet(range(n)))
    out = tmp_path / "g.csv"
    rc = main(["bench", "growth", "--family", "thm3_cm", "--n-list", "4", "--csv", str(out)])
    assert rc == 2
    assert "convex" in capsys.readouterr().err
    assert not out.exists()


def test_bench_bad_n_list(tmp_path, capsys):
    rc = main(["bench", "growth", "--family", "no4ap_max", "--n-list", "4,x", "--csv", str(tmp_path / "g.csv")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("n_list", ["0,-3", "4,0", "-1"])
def test_bench_n_below_1_exits_2(n_list, tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = main(["bench", "growth", "--family", "no4ap_max", "--n-list", n_list, "--csv", str(out)])
    assert rc == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_bad_usage_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "growth", "--family", "nonsense", "--n-list", "4", "--csv", str(tmp_path / "g.csv")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["construct", "thm5", "--n", "3", "--out", str(tmp_path / "o.json")])
    assert exc2.value.code == 2
    # The searches have fixed guards: no flag lifts or lowers them.
    inp = _write_set(tmp_path / "a.json", [1, 2, 4])
    for argv in (["oracle", "cm", "--in", inp, "--limit", "13"],
                 ["verify", "claims3", "--n", "6", "--sample-cap", "300"],
                 # Flags follow the kind.
                 ["construct", "--n", "3", "thm3", "--out", str(tmp_path / "o.json")],
                 ["oracle", "--in", inp, "lcs"]):
        with pytest.raises(SystemExit) as exc3:
            main(argv)
        assert exc3.value.code == 2


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "convexdiff.cli", *argv], capture_output=True, text=True, env=env
    )


def test_process_exit_codes(tmp_path):
    inp = _write_set(tmp_path / "b.json", [1, 2, 3, 5])
    ok = _run_cli("oracle", "lcs", "--in", inp)
    assert ok.returncode == 0 and json.loads(ok.stdout)["value"] == 3
    for argv, message in (
        (["oracle", "lcs", "--in", inp, "--n", "7"], "unrecognized arguments: --n 7"),  # argparse
        (["verify", "claim21", "--n", "120"], "error:"),  # ConvexDiffError
    ):
        bad = _run_cli(*argv)
        assert (bad.returncode, bad.stdout) == (2, "") and message in bad.stderr


def test_readme_examples_parse():
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("Examples:\n\n```sh\n")[1]
    lines = [shlex.split(line, comments=True) for line in block.split("```")[0].splitlines()]
    assert len(lines) >= 7
    for words in lines:
        assert words[0] == "convexdiff"
        build_parser().parse_args(words[1:])


def test_readme_claim_ids_are_emitted():
    quoted = re.findall(r'"claim_id": "([^"]*)"', (ROOT / "README.md").read_text(encoding="utf-8"))
    emitted = {
        cd.verify_claim_2_1(100).claim_id,
        cd.verify_claim_2_2(100).claim_id,
        cd.verify_thm1_size(100).claim_id,
        cd.verify_claims_3(4).claim_id,
    }
    assert quoted and set(quoted) <= emitted


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["oracle", "lcs", "--in", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_input_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["oracle", "lcs", "--in", str(bad)]) == 2
    capsys.readouterr()


def test_deeply_nested_input_json_exits_2(tmp_path):
    # json.load raises RecursionError here, which is not a failed verification (exit 1).
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    res = _run_cli("oracle", "lcs", "--in", str(deep))
    assert (res.returncode, res.stdout) == (2, "")
    assert "nests too deeply" in res.stderr and "Traceback" not in res.stderr


def test_non_ascii_digits_exit_2(tmp_path, capsys):
    bad = tmp_path / "sup.json"
    bad.write_text('{"elements": [{"num": "\u00b2", "den": "1"}]}', encoding="utf-8")
    assert main(["oracle", "lcs", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"elements": []}'.encode("utf-16-le"))
    assert main(["oracle", "lcs", "--in", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits on int/str conversion, for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_too_long_output_exits_2(tmp_path, capsys, digit_limit):
    # The elements of thm3_set(1400) have up to 4829 decimal digits.
    out = tmp_path / "a.json"
    assert main(["construct", "thm3", "--n", "1400", "--out", str(out)]) == 2
    assert "too long to write" in capsys.readouterr().err
    assert not out.exists()


def test_too_long_input_exits_2(tmp_path, capsys, digit_limit):
    bad = tmp_path / "long.json"
    bad.write_text('{"elements": [{"num": "%s", "den": "1"}]}' % ("7" * 5000))
    assert main(["oracle", "lcs", "--in", str(bad)]) == 2
    assert "too long to read" in capsys.readouterr().err
    bad.write_text('{"elements": [%s]}' % ("7" * 5000))  # a bare JSON number
    assert main(["oracle", "lcs", "--in", str(bad)]) == 2
    assert "too long to read" in capsys.readouterr().err


def test_values_at_the_digit_limit_round_trip(tmp_path, capsys, digit_limit):
    top = 10**digit_limit - 1  # exactly at the limit
    s = RealSet.from_values((F(1, top), 1, F(top, 2)))  # convex: gaps 1 - 1/top < top/2 - 1
    path = tmp_path / "s.json"
    _emit_set(s, str(path))
    text = path.read_text()
    assert str(top) in text and RealSet.from_json(json.loads(text)) == s
    assert main(["oracle", "lcs", "--in", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["value"] == 3 and RealSet.from_json(result["witness"]) == s


def _reference_set_text(s):
    return json.dumps(s.to_json(), indent=2) + "\n"


@pytest.mark.parametrize(
    "values",
    [(), (7,), (-3, F(-1, 2), 0, F(5, 3), 10**30 + 1), (F(-10**25, 7), F(1, 10**20))],
)
def test_emit_set_matches_reference_encoder(values, tmp_path):
    s = RealSet.from_values(values)
    out = tmp_path / "s.json"
    _emit_set(s, str(out))
    assert out.read_text(encoding="utf-8") == _reference_set_text(s)


@pytest.mark.parametrize(
    "argv, build",
    [
        (["construct", "thm1", "--n", "300"], lambda: cd.thm1_set(300)),
        (["construct", "squares", "--n", "50"], lambda: cd.squares_set(50)),
        (["construct", "random", "--n", "40", "--seed", "3"], lambda: cd.gen_convex_random(40, 3)),
        (["construct", "random", "--n", "40"], lambda: cd.gen_convex_random(40, 0)),
        (["glue", "--n", "1000"], lambda: cd.glue_chain(1000)[0]),
    ],
)
def test_written_sets_match_reference_encoder(argv, build, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text(encoding="utf-8") == _reference_set_text(build())


@pytest.mark.parametrize(
    "values",
    [
        (7,),  # one element: lcs returns the set itself
        (F(-5, 2), F(1, 3), 1, F(7, 6), 2, F(13, 4)),
        tuple(10**30 + i * i for i in range(12)) + (10**31,),
        tuple(x for x in cd.difference_set(cd.thm3_set(13)) if x > 0)[:60],
    ],
)
def test_oracle_witness_matches_reference_encoder(values, tmp_path, capsys):
    base = RealSet.from_values(values)
    inp = _write_set(tmp_path / "a.json", values)
    assert main(["oracle", "lcs", "--in", inp]) == 0
    expected = json.dumps(cd.lcs_convex(base).to_json(), indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_no4ap_and_cm_output_match_reference_encoder(tmp_path, capsys):
    assert main(["oracle", "no4ap", "--n", "9"]) == 0
    expected = json.dumps(cd.max_weakly_convex_no4ap(9).to_json(), indent=2) + "\n"
    assert capsys.readouterr().out == expected
    inp = _write_set(tmp_path / "a.json", [1, 2, 4, 8, 16])
    assert main(["oracle", "cm", "--in", inp]) == 0
    res = cd.max_convex_matching(RealSet([1, 2, 4, 8, 16]))
    expected = json.dumps(res.to_json(), indent=2) + "\n"
    assert capsys.readouterr().out == expected


def test_too_long_witness_exits_2(tmp_path, capsys, monkeypatch, digit_limit):
    huge = RealSet([1, 10**5000])  # 5001 digits: beyond the limit, built without str()
    monkeypatch.setattr(cd.oracles, "lcs_convex", lambda b: cd.OracleResult(2, huge, True))
    inp = _write_set(tmp_path / "a.json", [1, 2])
    assert main(["oracle", "lcs", "--in", inp]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "too long to write" in err
