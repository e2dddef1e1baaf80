"""Outside-in layer spans: wrappers on convexdiff's public module attributes.

`Tracer.install()` replaces each public function listed in TARGETS, in every
layer module that holds it (so `claims.glue_chain`, imported by name, is
wrapped as well as `constructions.glue_chain`), with a wrapper that records
calls, inclusive time and self time (inclusive minus the time of wrapped
children). `restore()` puts every original back. The program is not edited.

What the spans cannot see: anything inside one function. DFS nodes, memo
states, binary-search steps and private helpers such as
`claims._membership_failures` or `kernels._table_fast` show only as the self
time of the public function that calls them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from convexdiff import claims, cli, constructions, exact, kernels, oracles

LAYER_MODULES = (exact, constructions, kernels, oracles, claims, cli)


def _on_is_convex(counts, args, kwargs, result):
    counts["exact.is_convex_elements"] += len(args[0] if args else kwargs["s"])


def _on_realset(counts, args, kwargs, result):
    counts["exact.realset_elements"] += len(args[0])  # args[0] is the new set


def _on_thm1size(counts, args, kwargs, result):
    counts["claims.members_verified"] += result.counts.get("members_verified", 0)


def _on_claims3(counts, args, kwargs, result):
    counts["oracles.subsets_checked"] += result.counts.get("subsets_checked", 0)
    counts["oracles.matchings_checked"] += result.counts.get("matchings_checked", 0)


def _on_compute_table(counts, args, kwargs, result):
    # The routing is read from the table the caller receives: a fixed-width
    # ndarray is the int64 path; a list of lists or an object array is the
    # big-int path. Bytes are computed from m and the dtype (a list slot is
    # one 8-byte pointer), for the returned table only.
    table = result[0] if isinstance(result, tuple) else result
    m = len(args[0] if args else kwargs["values"])
    counts["kernels.cells"] += m * m
    if isinstance(table, np.ndarray) and table.dtype != object:
        counts["kernels.calls_int64"] += 1
        counts["kernels.table_bytes"] += m * m * table.dtype.itemsize
    else:
        counts["kernels.calls_bigint"] += 1
        counts["kernels.table_bytes"] += m * m * 8
    if isinstance(result, tuple) and isinstance(result[-1], str):
        counts["tier:" + result[-1]] += 1


# (home module, attribute, span name, hook run on the result)
TARGETS = (
    (exact, "is_convex", "exact.is_convex", _on_is_convex),
    (constructions, "thm1_block", "constructions.thm1_block", None),
    (constructions, "glue_pair", "constructions.glue_pair", None),
    (constructions, "glue_chain", "constructions.glue_chain", None),
    (constructions, "thm3_block_of", "constructions.thm3_block_of", None),
    (kernels, "compute_table", "kernels.compute_table", _on_compute_table),
    (oracles, "lcs_convex", "oracles.lcs_convex", None),
    (oracles, "max_convex_matching", "oracles.max_convex_matching", None),
    (oracles, "max_weakly_convex_no4ap", "oracles.max_weakly_convex_no4ap", None),
    (claims, "verify_claim_2_1", "claims.verify_claim_2_1", None),
    (claims, "verify_claim_2_2", "claims.verify_claim_2_2", None),
    (claims, "verify_thm1_size", "claims.verify_thm1_size", _on_thm1size),
    (claims, "verify_claims_3", "claims.verify_claims_3", _on_claims3),
    (claims, "growth_table", "claims.growth_table", None),
    (claims, "growth_csv", "claims.growth_csv", None),
)
# Methods of RealSet: construction (which validates) and JSON parsing.
CLASS_TARGETS = (
    (exact.RealSet, "__init__", "exact.realset", _on_realset),
    (exact.RealSet, "from_json", "exact.from_json", None),
)


class Tracer:
    """Aggregated spans: per name, calls and inclusive and self seconds."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                self.edges[(parent[0] if parent else None, name)] += 1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for home, attr, name, hook in TARGETS:
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, hook)
            for mod in LAYER_MODULES:
                if vars(mod).get(attr) is original:
                    self._replace(mod, attr, wrapped)
        for cls, attr, name, hook in CLASS_TARGETS:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
            else:
                self._replace(cls, attr, self.wrap(name, raw, hook))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        saved, self._saved = self._saved, []
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
        return all(vars(owner)[attr] is raw for owner, attr, raw in saved)

    def nesting(self) -> list[str]:
        """Observed parent -> child span pairs, e.g. 'cli.main > constructions.glue_chain'."""
        return sorted(f"{p} > {c}" for p, c in self.edges if p is not None)


def per_layer(tr: Tracer, passes: int, out_elements: int, out_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json, per traced pass."""
    c, t, s, k = tr.calls, tr.total_s, tr.self_s, tr.counts

    def per(x: float) -> float:
        return x / passes

    validated = k["exact.realset_elements"] + k["exact.is_convex_elements"]
    table_s = t["kernels.compute_table"]
    return {
        "exact.is_convex_calls": (per(c["exact.is_convex"]), "count"),
        "exact.is_convex_elements": (per(k["exact.is_convex_elements"]), "count"),
        "exact.is_convex_s": (per(t["exact.is_convex"]), "s"),
        "exact.realset_calls": (per(c["exact.realset"]), "count"),
        "exact.realset_elements": (per(k["exact.realset_elements"]), "count"),
        "exact.realset_s": (per(t["exact.realset"]), "s"),
        "exact.validate_ratio": (validated / out_elements if out_elements else 0.0, "ratio"),
        "exact.from_json_s": (per(t["exact.from_json"]), "s"),
        "constructions.thm1_block_calls": (per(c["constructions.thm1_block"]), "count"),
        "constructions.thm1_block_s": (per(t["constructions.thm1_block"]), "s"),
        "constructions.glue_chain_calls": (per(c["constructions.glue_chain"]), "count"),
        "constructions.glue_pair_calls": (per(c["constructions.glue_pair"]), "count"),
        "constructions.glue_pair_self_s": (per(s["constructions.glue_pair"]), "s"),
        "constructions.thm3_block_of_calls": (per(c["constructions.thm3_block_of"]), "count"),
        "constructions.thm3_block_of_s": (per(t["constructions.thm3_block_of"]), "s"),
        "claims.membership_s": (per(s["claims.verify_thm1_size"]), "s"),
        "claims.members_verified": (per(k["claims.members_verified"]), "count"),
        "claims.claim21_s": (per(t["claims.verify_claim_2_1"]), "s"),
        "claims.claim22_s": (per(t["claims.verify_claim_2_2"]), "s"),
        "claims.claims3_self_s": (per(s["claims.verify_claims_3"]), "s"),
        "kernels.compute_table_calls": (per(c["kernels.compute_table"]), "count"),
        "kernels.compute_table_s": (per(table_s), "s"),
        "kernels.cells": (per(k["kernels.cells"]), "count"),
        "kernels.cells_per_s": (k["kernels.cells"] / table_s if table_s else 0.0, "1/s"),
        "kernels.table_bytes": (per(k["kernels.table_bytes"]), "bytes"),
        "kernels.calls_int64": (per(k["kernels.calls_int64"]), "count"),
        "kernels.calls_bigint": (per(k["kernels.calls_bigint"]), "count"),
        "oracles.lcs_self_s": (per(s["oracles.lcs_convex"]), "s"),
        "oracles.no4ap_s": (per(t["oracles.max_weakly_convex_no4ap"]), "s"),
        "oracles.cm_s": (per(t["oracles.max_convex_matching"]), "s"),
        "oracles.subsets_checked": (per(k["oracles.subsets_checked"]), "count"),
        "oracles.matchings_checked": (per(k["oracles.matchings_checked"]), "count"),
        "cli.self_s": (per(s["cli.main"]), "s"),
        "cli.out_bytes": (per(out_bytes), "bytes"),
    }
