"""Record the exactness fingerprint of every op at the default seed.

    python3 perfbench/record_goldens.py

Runs one untraced pass of each workload, checks it, and writes
perfbench/goldens.json. run.py then compares the fingerprint of each op it
runs with the golden of the same key; keys of seeded inputs carry the seed,
so only the default seed has goldens for them. Re-record only when an
output is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import os
import shutil

import run  # puts the checkout's src/ on sys.path
import workloads
from convexdiff import cli


def main() -> int:
    run.check_program_origin()
    work = run.HERE / ".work" / f"goldens-{os.getpid()}"
    goldens = {}
    try:
        for name in run.WORKLOAD_NAMES:
            in_dir, out_dir = work / name / "in", work / name / "out"
            in_dir.mkdir(parents=True)
            out_dir.mkdir()
            ops = workloads.WORKLOADS[name](run.DEFAULT_SEED, str(in_dir))
            records = [run.run_op(op, str(out_dir), cli.main) for op in ops]
            for rec, v in zip(records, run.evaluate(records, {})):
                if v.problems:
                    raise SystemExit(f"{rec.op.key}: {'; '.join(v.problems)}")
                goldens[rec.op.key] = v.fingerprint
            print(f"{name}: {len(ops)} fingerprints")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # One op per line, so a re-recorded golden shows as a one-line diff.
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(goldens.items()))
    head = json.dumps({"seed": run.DEFAULT_SEED, "commit": run.git_commit()})[:-1]
    (run.HERE / "goldens.json").write_text(f'{head}, "ops": {{\n{lines}\n}}}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
