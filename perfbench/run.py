"""Benchmark of the convexdiff CLI: four workloads, end to end and per layer.

Each workload is a closed loop with one client: in-process
`convexdiff.cli.main(argv)` calls made one after another, single-threaded,
in the workload's own process. The op list of a workload is one pass; passes
repeat until --seconds is used up (at least two passes, so a median exists).
Every op's output is checked after the timed loop, outside the timings.

    python3 perfbench/run.py --workload cubic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py              # every workload, each in its own process

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with layer spans installed, and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import convexdiff  # noqa: E402
from convexdiff import cli, kernels  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, Record, read_pairs, scaled_ints  # noqa: E402
from layers import Tracer, per_layer  # noqa: E402

WORKLOAD_NAMES = ("cubic", "lcs_int64", "lcs_bigint", "search")
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # up front; one more set-up runs before each later untraced pass
MIN_PERCENTILE_SAMPLES = 100
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import convexdiff.cli; print(time.perf_counter() - t)"
)

# Zero-call checks of the traced run: each workload must leave these layers
# idle (0) or busy (> 0), which is what makes it isolate the layers it claims.
ISOLATION = {
    "cubic": {
        "kernels.compute_table_calls": 0,
        "oracles.lcs_self_s": 0,
        "oracles.cm_s": 0,
        "oracles.no4ap_s": 0,
    },
    "lcs_int64": {
        "constructions.glue_pair_calls": 0,
        "kernels.calls_bigint": 0,
        "kernels.calls_int64": ">0",
    },
    "lcs_bigint": {
        "constructions.glue_pair_calls": 0,
        "kernels.calls_int64": 0,
        "kernels.calls_bigint": ">0",
    },
    "search": {"kernels.compute_table_calls": 0, "constructions.glue_pair_calls": 0},
}


def check_program_origin() -> None:
    """Refuse to measure a convexdiff that is not this checkout's src/."""
    origin = Path(convexdiff.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: convexdiff was imported from {origin}, not {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def time_import() -> float:
    """Seconds to import convexdiff.cli in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def run_op(op, out_dir: str, call):
    """One CLI call with stdout/stderr captured; only the call itself is timed."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = call(op.argv_for(out_dir))
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op failure is counted, not fatal
            error = repr(exc)
        latency = time.perf_counter() - t0
    return Record(op, out_dir, latency, rc, error, out.getvalue())


def measure(ops, work: Path, tag: str, budget_s: float, min_passes: int, call, between=None):
    """Run whole passes, at least min_passes, and stop when the next one would
    end more than half a pass after budget_s: a run uses its budget on average.
    `between` runs before every pass but the first, outside the budget."""
    passes, elapsed = [], 0.0
    while True:
        if passes and between is not None:
            between()
        out_dir = work / f"{tag}{len(passes)}"
        out_dir.mkdir()
        t0 = time.perf_counter()
        passes.append([run_op(op, str(out_dir), call) for op in ops])
        elapsed += time.perf_counter() - t0
        done = len(passes)
        if done >= min_passes and elapsed * (done + 0.5) / done > budget_s:
            return passes


def pass_wall(passes) -> float:
    """Seconds for one pass: each op's median latency over the passes, summed."""
    return sum(statistics.median(lat) for lat in zip(*((r.latency_s for r in p) for p in passes)))


def tier_agreement(ops, tiers_ran: set) -> list[str]:
    """Every tier that can run builds the same table (and the auto tier runs)."""
    problems = []
    picks = [op for op in ops if op.kind == "lcs"]
    picks = picks[len(picks) // 4 :: max(1, len(picks) // 2)][:2]
    for op in picks:
        values = scaled_ints(read_pairs(op.expect["input"]))
        tables = {}
        for tier in kernels.available_tiers():
            table, ran = kernels.compute_table(values, force=tier)
            tiers_ran.add(ran)
            tables[tier] = [[int(x) for x in row] for row in table]
        _, ran = kernels.compute_table(values)
        tiers_ran.add(ran)
        first = next(iter(tables.values()))
        if any(t != first for t in tables.values()):
            problems.append(f"tiers {sorted(tables)} disagree on {op.key}")
    return problems


def environment(seed: int, tiers_ran: set) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "tiers_ran": sorted(tiers_ran),
        "INT64_SAFE": getattr(kernels, "INT64_SAFE", None),
        "MAX_TABLE": getattr(kernels, "MAX_TABLE", None),
        "commit": git_commit(),
        "seed": seed,
    }


def load_goldens() -> dict:
    path = HERE / "goldens.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["ops"]


def evaluate(records, goldens: dict) -> list:
    """Check every record; a fingerprint that differs from its golden is a problem."""
    checker, verdicts = Checker(), []
    for rec in records:
        v = checker.check(rec)
        want = goldens.get(rec.op.key)
        if want is not None and v.fingerprint != want:
            v.problems.append(f"fingerprint {v.fingerprint} != golden {want}")
        verdicts.append(v)
    return verdicts


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up is timed several times, spread over the run like the passes,
        # so its median sees the same machine as wall_s does.
        import_s, gen_s = [], []

        def set_up():
            import_s.append(time_import())
            in_dir = work / f"inputs{len(gen_s)}"
            in_dir.mkdir()
            t0 = time.perf_counter()
            ops = workloads.WORKLOADS[name](seed, str(in_dir))
            gen_s.append(time.perf_counter() - t0)
            return ops

        time_import()  # the first import may compile bytecode: not counted
        for _ in range(SETUP_REPEATS):
            ops = set_up()
        budget = seconds / 2 if traced else seconds
        plain = measure(ops, work, "pass", budget, 1 if traced else 2, cli.main, set_up)
        setup_s = statistics.median(import_s) + statistics.median(gen_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_passes, tracer, restored = [], Tracer(), True
        if traced:
            tracer.install()
            try:
                main = tracer.wrap("cli.main", cli.main)
                traced_passes = measure(ops, work, "traced", budget, 1, main)
            finally:
                restored = tracer.restore()

        # Everything below is outside the timings.
        records = [r for p in plain + traced_passes for r in p]
        verdicts = evaluate(records, load_goldens())
        failures = [
            f"{rec.op.key}: {'; '.join(v.problems)}"
            for rec, v in zip(records, verdicts) if v.problems
        ]
        traced_verdicts = verdicts[len(records) - sum(map(len, traced_passes)) :]
        out_elements = sum(v.out_elements for v in traced_verdicts)
        out_bytes = sum(v.out_bytes for v in traced_verdicts)

        harness_problems = []
        tiers_ran = {k[5:] for k in tracer.counts if k.startswith("tier:")}
        if name.startswith("lcs"):
            harness_problems += tier_agreement(ops, tiers_ran)
        if not restored:
            harness_problems.append("a wrapped attribute was not restored")

        latencies = [r.latency_s for p in plain for r in p]
        print(
            f"workload {name}: seed {seed}, {len(ops)} ops per pass, "
            f"{len(plain)} untraced passes, {len(traced_passes)} traced passes"
        )
        print(
            f"setup_s {setup_s:.4f} s (import {statistics.median(import_s):.4f} s + inputs "
            f"{statistics.median(gen_s):.4f} s, medians of {len(gen_s)})"
        )
        walls = ", ".join(f"{sum(r.latency_s for r in p):.3f}" for p in plain)
        print(f"wall_s {pass_wall(plain):.4f} s (per-op medians over {len(plain)} passes, summed; pass sums {walls})")
        print(_percentiles(latencies))
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB (ru_maxrss after the untraced passes)")
        print(f"fail_ratio {len(failures) / len(records):.4f} ({len(failures)} of {len(records)} ops failed)")
        for line in failures[:20] + harness_problems:
            print("FAIL " + line)

        if traced:
            metrics = per_layer(tracer, len(traced_passes), out_elements, out_bytes)
            metrics["trace.overhead_ratio"] = (pass_wall(traced_passes) / pass_wall(plain), "ratio")
            for metric, want in ISOLATION[name].items():
                got = metrics[metric][0]
                if (got <= 0) if want == ">0" else (got != want):
                    harness_problems.append(f"isolation: {metric} = {got}, expected {want}")
                    print(f"FAIL isolation: {metric} = {got}, expected {want}")
            print("spans: " + ", ".join(tracer.nesting()))
            for metric, (value, unit) in metrics.items():
                print(f"  {metric} {value:.6g} {unit}")
        else:
            metrics = {
                "wall_s": (pass_wall(plain), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
        print("env " + json.dumps(environment(seed, tiers_ran)))
        return {
            "correct": not failures and not harness_problems,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; their reports, then a summary."""
    summary, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        values = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        summary.append(
            f"{name}: correct {res['correct']}, fail_ratio {res['failed'] / res['attempted']:.4f} "
            f"({res['failed']}/{res['attempted']}), {values}"
        )
    print("summary")
    for line in summary:
        print("  " + line)
    return status


def _percentiles(latencies: list[float]) -> str:
    n = len(latencies)
    if n < MIN_PERCENTILE_SAMPLES:
        return f"op_p50_ms/op_p90_ms not reported ({n} ops < {MIN_PERCENTILE_SAMPLES})"
    deciles = statistics.quantiles(latencies, n=10)
    return (
        f"op_p50_ms {statistics.median(latencies) * 1000:.3f} ms, "
        f"op_p90_ms {deciles[8] * 1000:.3f} ms (over {n} ops)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_program_origin()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
