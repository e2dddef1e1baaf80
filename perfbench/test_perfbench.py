"""Self-tests of the benchmark harness: `python3 -m pytest -q perfbench/test_perfbench.py`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import workloads
from checks import Record, read_pairs, scaled_ints
from convexdiff import claims, cli, constructions, exact, kernels
from layers import CLASS_TARGETS, LAYER_MODULES, TARGETS, Tracer, per_layer


@pytest.fixture
def lcs_ops(tmp_path):
    """Two real ops of lcs_int64 at the default seed (keys with goldens)."""
    ops = workloads.lcs_int64(run.DEFAULT_SEED, str(tmp_path))
    by_key = {op.key: op for op in ops}
    return [by_key["lcs squares n=12"], by_key["lcs random n=9 j=1 seed=0"]]


def _corrupt(rec: Record, edit) -> Record:
    res = json.loads(rec.stdout)
    edit(res)
    return Record(rec.op, rec.out_dir, rec.latency_s, rec.rc, rec.error, json.dumps(res))


def test_corrupted_outputs_count_as_failed(lcs_ops, tmp_path):
    good = [run.run_op(op, str(tmp_path), cli.main) for op in lcs_ops]
    rec = good[0]

    def drop_middle(res):
        del res["witness"]["elements"][1]

    def drop_last_and_value(res):  # still a convex subset of the right size
        del res["witness"]["elements"][-1]
        res["value"] -= 1

    def foreign(res):
        res["witness"]["elements"][0]["num"] = "-999999"

    records = good + [_corrupt(rec, f) for f in (drop_middle, drop_last_and_value, foreign)]
    records.append(Record(rec.op, rec.out_dir, 0.0, 2, None, ""))
    verdicts = run.evaluate(records, run.load_goldens())
    assert [bool(v.problems) for v in verdicts] == [False, False, True, True, True, True]
    # Only the golden catches the consistent-looking, non-optimal answer.
    assert all("golden" in p for p in verdicts[3].problems)


def test_wrappers_nest_count_and_restore(tmp_path):
    originals = {(m, a): vars(m)[a] for m in LAYER_MODULES for _, a, _, _ in TARGETS if a in vars(m)}
    originals.update({(c, a): vars(c)[a] for c, a, _, _ in CLASS_TARGETS})
    tracer = Tracer()
    tracer.install()
    try:
        assert constructions.glue_pair is not originals[(constructions, "glue_pair")]
        assert claims.glue_chain is not originals[(claims, "glue_chain")]
        main = tracer.wrap("cli.main", cli.main)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(exact.RealSet.from_values(range(1, 30, 3)).to_json()))
        assert main(["verify", "thm1size", "--n", "1000"]) == 0
        assert main(["oracle", "lcs", "--in", str(path)]) == 0
    finally:
        assert tracer.restore()
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in originals.items())
    nesting = tracer.nesting()
    for edge in (
        "cli.main > claims.verify_thm1_size",
        "claims.verify_thm1_size > constructions.glue_chain",
        "constructions.glue_chain > constructions.glue_pair",
        "constructions.glue_pair > exact.is_convex",
        "oracles.lcs_convex > kernels.compute_table",
    ):
        assert edge in nesting
    layer = per_layer(tracer, 1, 1, 1)
    assert layer["kernels.compute_table_calls"][0] == 1
    assert layer["kernels.calls_int64"][0] == 1 and layer["kernels.calls_bigint"][0] == 0
    assert layer["constructions.glue_chain_calls"][0] == 1
    assert layer["claims.members_verified"][0] > 0
    # Self time never exceeds inclusive time.
    assert all(tracer.self_s[k] <= tracer.total_s[k] + 1e-9 for k in tracer.total_s)


def test_tiers_agree(lcs_ops):
    tiers = set()
    assert run.tier_agreement(lcs_ops, tiers) == []
    assert set(kernels.available_tiers()) <= tiers


def test_inputs_depend_only_on_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.lcs_bigint(5, str(a))
    ops_b = workloads.lcs_bigint(5, str(b))
    assert [op.key for op in ops_a] == [op.key for op in ops_b]
    for x, y in zip(ops_a, ops_b):
        assert Path(x.expect["input"]).read_bytes() == Path(y.expect["input"]).read_bytes()
        # Every big-int input really is beyond the int64 routing bound.
        values = scaled_ints(read_pairs(x.expect["input"]))
        assert max(abs(values[0]), abs(values[-1])) > kernels.INT64_SAFE


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
