"""Independent checks of each operation's output, and exactness fingerprints.

Every check works from the op's written output and its input file, in the
benchmark's own integer arithmetic; none calls back into convexdiff. A
fingerprint is the op's headline value plus a hash of its canonical output,
compared with goldens recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from workloads import Op, scaled_gap


@dataclass
class Record:
    """What one op call left behind; `out_dir` resolves `{dir}` in the op."""

    op: Op
    out_dir: str
    latency_s: float
    rc: Optional[int]
    error: Optional[str]
    stdout: str


@dataclass
class Verdict:
    problems: list[str]
    out_elements: int  # elements of the sets the op writes (0 for none)
    out_bytes: int  # bytes written to stdout and files
    fingerprint: Optional[list]  # [value, hash]


def canonical_hash(*payloads: object) -> str:
    h = hashlib.sha256()
    for p in payloads:
        h.update(json.dumps(p, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


def _pairs(set_json: dict) -> list[tuple[int, int]]:
    out = []
    for e in set_json["elements"]:
        num, den = int(e["num"]), int(e["den"])
        if den < 1 or math.gcd(num, den) != 1:
            raise ValueError(f"non-canonical scalar {e!r}")
        out.append((num, den))
    return out


def read_pairs(path: str) -> list[tuple[int, int]]:
    """The (num, den) elements of a RealSet JSON file."""
    with open(path, encoding="utf-8") as fh:
        return _pairs(json.load(fh))


def scaled_ints(pairs: list[tuple[int, int]], den: Optional[int] = None) -> list[int]:
    """Values as integers over `den` (default: their common denominator)."""
    if den is None:
        den = math.lcm(*(d for _, d in pairs)) if pairs else 1
    if any(den % d for _, d in pairs):
        raise ValueError("a denominator does not divide the common one")
    return [num * (den // d) for num, d in pairs]


def convex_problem(vals: list[int]) -> Optional[str]:
    """None when vals strictly increase with strictly increasing gaps."""
    for t in range(1, len(vals)):
        if vals[t] <= vals[t - 1]:
            return f"not strictly increasing at position {t}"
    for t in range(1, len(vals) - 1):
        if vals[t + 1] - vals[t] <= vals[t] - vals[t - 1]:
            return f"gaps do not strictly increase at position {t}"
    return None


def _window(n: int) -> tuple[int, int, int]:
    return -((-9 * n) // 1000), n // 100, 99 * n // 100


class Checker:
    """Checks records; caches parsed inputs across the passes of a run."""

    def __init__(self) -> None:
        self._inputs: dict[str, list[tuple[int, int]]] = {}

    def _input(self, path: str) -> list[tuple[int, int]]:
        if path not in self._inputs:
            self._inputs[path] = read_pairs(path)
        return self._inputs[path]

    def check(self, rec: Record) -> Verdict:
        v = Verdict([], 0, len(rec.stdout.encode()), None)
        if rec.error is not None:
            v.problems.append(f"raised {rec.error}")
            return v
        if rec.rc != 0:
            v.problems.append(f"exit code {rec.rc}")
            return v
        try:
            getattr(self, "_check_" + rec.op.kind)(rec, v)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            v.problems.append(f"malformed output: {exc!r}")
        return v

    def _file(self, rec: Record, v: Verdict, name: str) -> str:
        path = name.replace("{dir}", rec.out_dir)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        v.out_bytes += len(text.encode())
        return text

    def _check_glue(self, rec: Record, v: Verdict) -> None:
        e = rec.op.expect
        s = json.loads(self._file(rec, v, "{dir}/glue.json"))
        trace = json.loads(self._file(rec, v, "{dir}/trace.json"))
        pairs = _pairs(s)
        problem = convex_problem(scaled_ints(pairs, e["n"] ** 5))
        if problem:
            v.problems.append(f"glued set {problem}")
        if len(pairs) != e["size"]:
            v.problems.append(f"|S| = {len(pairs)}, expected {e['size']}")
        if len(trace["splices"]) != e["splices"]:
            v.problems.append(f"{len(trace['splices'])} splices, expected {e['splices']}")
        v.out_elements = len(pairs)
        v.fingerprint = [len(pairs), canonical_hash(s, trace)]

    def _report(self, rec: Record, v: Verdict, claim_id: str) -> dict:
        r = json.loads(rec.stdout)
        if r["claim_id"] != claim_id or not r["passed"] or r["counterexample"] is not None:
            v.problems.append(f"report {r['claim_id']} did not pass")
        return r

    def _check_thm1size(self, rec: Record, v: Verdict) -> None:
        e = rec.op.expect
        c = self._report(rec, v, "thm1size")["counts"]
        if c["size"] != e["size"] or c["members_verified"] != e["size"]:
            v.problems.append(f"size {c['size']}, verified {c['members_verified']}")
        if c["splices"] != e["splices"] or c["size"] < c["required"]:
            v.problems.append(f"splices {c['splices']}, required {c['required']}")
        v.out_elements = c["size"]
        v.fingerprint = [c["size"], canonical_hash(json.loads(rec.stdout))]

    def _check_claim21(self, rec: Record, v: Verdict) -> None:
        # Re-check every reported interleaving d^(k+1)_i <= d^(k)_j < d^(k)_{j+1}
        # <= d^(k+1)_{i+1} from the closed form.
        n = rec.op.expect["n"]
        c = self._report(rec, v, "claim21")["counts"]
        k_min, k_max, i_max = _window(n)
        for k in range(k_min, k_max):
            i, j = c[f"i_at_k{k}"], c[f"j_at_k{k}"]
            ok = 1 <= i < i_max and 1 <= j < i_max and (
                scaled_gap(n, k + 1, i)
                <= scaled_gap(n, k, j)
                < scaled_gap(n, k, j + 1)
                <= scaled_gap(n, k + 1, i + 1)
            )
            if not ok:
                v.problems.append(f"claim21 pair (i={i}, j={j}) at k={k} does not interleave")
        v.fingerprint = [k_max - k_min, canonical_hash(json.loads(rec.stdout))]

    def _check_claim22(self, rec: Record, v: Verdict) -> None:
        n = rec.op.expect["n"]
        c = self._report(rec, v, "claim22")["counts"]
        k_min, k_max, i_max = _window(n)
        bound = -((-151 * n) // 540)
        for k in range(k_min, k_max + 1):
            if not bound <= c[f"count_at_k{k}"] <= i_max:
                v.problems.append(f"claim22 count {c[f'count_at_k{k}']} at k={k} out of [{bound}, {i_max}]")
        v.fingerprint = [c["bound"], canonical_hash(json.loads(rec.stdout))]

    def _check_lcs(self, rec: Record, v: Verdict) -> None:
        e = rec.op.expect
        res = json.loads(rec.stdout)
        base = self._input(e["input"])
        witness = _pairs(res["witness"])
        value = res["value"]
        if not set(witness) <= set(base):
            v.problems.append("witness is not a subset of the input")
        else:
            den = math.lcm(*(d for _, d in base))
            problem = convex_problem(scaled_ints(witness, den))
            if problem:
                v.problems.append(f"witness {problem}")
        if value != len(witness) or res["exhaustive"] is not True:
            v.problems.append(f"value {value} but |witness| = {len(witness)}")
        if "value" in e and value != e["value"]:
            v.problems.append(f"value {value}, expected {e['value']}")
        if value < e.get("min_value", 0):
            v.problems.append(f"value {value} below |A| = {e['min_value']}")
        v.out_elements = len(witness)
        v.fingerprint = [value, canonical_hash(res)]

    def _check_cm(self, rec: Record, v: Verdict) -> None:
        res = json.loads(rec.stdout)
        base = scaled_ints(self._input(rec.op.expect["input"]))
        w = res["witness"]
        pairs = [(int(lo), int(hi)) for lo, hi in w["pairs"]]
        used = [x for p in pairs for x in p]
        if w["base_size"] != len(base) or len(set(used)) != len(used):
            v.problems.append("matching reuses an index or has the wrong base size")
        elif not all(1 <= lo < hi <= len(base) for lo, hi in pairs):
            v.problems.append("matching pair out of range")
        else:
            diffs = sorted({base[hi - 1] - base[lo - 1] for lo, hi in pairs})
            problem = convex_problem(diffs)
            if problem:
                v.problems.append(f"restricted difference set {problem}")
        if res["value"] != len(pairs) or res["exhaustive"] is not True:
            v.problems.append(f"value {res['value']} but {len(pairs)} pairs")
        v.fingerprint = [res["value"], canonical_hash(res)]

    def _check_claims3(self, rec: Record, v: Verdict) -> None:
        r = self._report(rec, v, "claims3")
        c = r["counts"]
        if r["params"]["n"] != rec.op.expect["n"]:
            v.problems.append(f"claims3 ran at n = {r['params']['n']}")
        if c["subsets_checked"] < 1 or c["matchings_checked"] < 1:
            v.problems.append(f"claims3 checked nothing: {c}")
        v.fingerprint = [c["subsets_checked"], canonical_hash(r)]

    def _check_growth(self, rec: Record, v: Verdict) -> None:
        e = rec.op.expect
        text = self._file(rec, v, e["csv"])
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != "family,n,value,exhaustive" or len(rows) != len(e["n_list"]):
            v.problems.append("growth CSV header or row count is wrong")
            return
        values = []
        for (family, n, value, exhaustive), want_n in zip(rows, e["n_list"]):
            n, value = int(n), int(value)
            values.append(value)
            if family != e["family"] or n != want_n or exhaustive != "true":
                v.problems.append(f"growth row {family},{n},{value},{exhaustive}")
            elif not 1 <= value <= n:
                v.problems.append(f"growth value {value} out of [1, {n}]")
            elif family == "thm3_cm" and value * value > 9 * n:
                v.problems.append(f"thm3_cm({n}) = {value} exceeds 3 sqrt(n)")
        if e["family"] == "no4ap_max" and values != sorted(values):
            v.problems.append("no4ap_max is not monotone in n")
        v.fingerprint = [values[-1], hashlib.sha256(text.encode()).hexdigest()[:16]]
