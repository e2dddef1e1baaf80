"""Command-line front end.

Machine output (JSON / CSV) goes to stdout or the requested file; human
summaries go to stderr. Exit codes: 0 success, 1 a verification ran and
failed, 2 invalid input or parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import textwrap
from itertools import chain, islice
from typing import Iterable, Iterator, Optional, Sequence

from . import claims, constructions, oracles
from .errors import ConvexDiffError, InvalidInput, InvalidParams, TooLarge
from .exact import RealSet, gen_convex_random


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the pieces one after another, each as soon as it is made, to
    the file out (created or truncated) or, without out, to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit(payload: dict, out: Optional[str]) -> None:
    _write((json.dumps(payload, indent=2), "\n"), out)


# One element of a RealSet as json.dumps(..., indent=2) lays it out at the top level.
_SET_ITEM = '    {\n      "num": "%d",\n      "den": "%d"\n    }'

# Elements per piece of a written set: the writer holds one piece at a time.
_PIECE = 4096


def _check_writable(s: RealSet) -> None:
    """Raise TooLarge unless every reduced num and den of s can be written in
    decimal, that is, has at most sys.get_int_max_str_digits() digits.

    Reduction never makes a number longer, so the bound on s's own ints and
    den settles almost every set at once; only a set beyond it is reduced
    element by element. Pythons before 3.10.7 have no limit.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit is not None else 0
    if not limit or not s.ints:  # 0: no limit
        return
    bound = 10**limit  # str(x) raises exactly when |x| >= bound
    if max(-s.ints[0], s.ints[-1], s.den) < bound:
        return
    for p, q in s.reduced():
        if abs(p) >= bound or q >= bound:
            raise TooLarge(
                f"set element too long to write in decimal: more than {limit} digits"
                " (sys.get_int_max_str_digits())"
            )


def _set_chunks(s: RealSet, pad: str = "") -> Iterator[str]:
    """json.dumps(s.to_json(), indent=2) as it reads nested under `pad`, in
    pieces of at most _PIECE elements, each made only when it is asked for.

    json.dumps uses its C encoder only without indent, and the pure-Python
    one is most of the cost of a large set. The elements hold only digits
    and "-", so nothing needs escaping. The caller runs _check_writable(s)
    first: a number too long for str() would fail here part way through.
    """
    if len(s) == 0:
        yield f'{{\n{pad}  "elements": []\n{pad}}}'
        return
    item = textwrap.indent(_SET_ITEM, pad)
    pairs = s.reduced()
    lead = f'{{\n{pad}  "elements": [\n'
    for _ in range(0, len(s), _PIECE):
        yield lead + ",\n".join(item % pair for pair in islice(pairs, _PIECE))
        lead = ",\n"
    yield f"\n{pad}  ]\n{pad}}}"


def _emit_set(s: RealSet, out: Optional[str]) -> None:
    """Write s exactly as _emit(s.to_json(), out) would, streamed in pieces.
    TooLarge is raised before out is opened or anything is printed."""
    _check_writable(s)
    _write(chain(_set_chunks(s), ("\n",)), out)


def _emit_oracle(res: oracles.OracleResult) -> None:
    """Print res exactly as _emit(res.to_json(), None) would, a RealSet
    witness streamed by _set_chunks. TooLarge is raised before anything is
    printed."""
    if not isinstance(res.witness, RealSet):
        _emit(res.to_json(), None)
        return
    _check_writable(res.witness)
    head = '{\n  "value": %s,\n  "exhaustive": %s,\n  "witness": ' % (
        json.dumps(res.value),
        json.dumps(res.exhaustive),
    )
    _write(chain((head,), _set_chunks(res.witness, "  "), ("\n}\n",)), None)


def _read_realset(path: str) -> RealSet:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # a number literal beyond sys.get_int_max_str_digits()
            raise InvalidInput(f"{path} holds a number too long to read: {exc}") from exc
        except RecursionError as exc:
            raise InvalidInput(f"{path} nests too deeply to read: {exc}") from exc
    return RealSet.from_json(payload)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built once per process: every call returns the same
    parser, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="convexdiff",
        description="Convex subsets of difference sets: constructions, "
        "gluing, matchings, oracles, claim checks, growth tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a construction as RealSet JSON")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("thm1", "thm3", "squares", "random"):
        p = kinds.add_parser(kind)
        p.add_argument("--n", type=int, required=True)
        if kind == "thm1":
            p.add_argument("--strict", action="store_true", help="enforce n % 100 == 0, n >= 1000")
        if kind == "random":
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--out", required=True)

    p = sub.add_parser("glue", help="glue the difference blocks into one convex set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="also write the splice trace JSON here")

    p = sub.add_parser("match", help="build a matching over a convex set")
    p.add_argument("kind", choices=["thm2", "thm4"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="run an exact oracle, result JSON on stdout")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("lcs", "cm"):
        p = kinds.add_parser(kind)
        p.add_argument("--in", dest="inp", required=True, help="input RealSet JSON")
    kinds.add_parser("no4ap").add_argument("--n", type=int, required=True, help="ground-set size")

    p = sub.add_parser("verify", help="check a claim, report JSON on stdout")
    p.add_argument("kind", choices=["claim21", "claim22", "thm1size", "claims3"])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bench", help="emit growth tables")
    p.add_argument("what", choices=["growth"])
    p.add_argument("--family", required=True, choices=list(claims.GROWTH_FAMILIES))
    p.add_argument("--n-list", required=True, dest="n_list", help="comma-separated n values")
    p.add_argument("--csv", required=True)
    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "thm1":
        s = constructions.thm1_set(args.n, strict=args.strict)
    elif args.kind == "thm3":
        s = constructions.thm3_set(args.n)
    elif args.kind == "squares":
        s = constructions.squares_set(args.n)
    else:
        s = gen_convex_random(args.n, args.seed)
    _emit_set(s, args.out)
    _log(f"construct {args.kind}: wrote {len(s)} elements to {args.out}")
    return 0


def _cmd_glue(args: argparse.Namespace) -> int:
    s, trace = constructions.glue_chain(args.n, strict=args.strict)
    _emit_set(s, args.out)
    if args.trace:
        _emit(trace.to_json(), args.trace)
    _log(
        f"glue: |S| = {len(s)} from {len(trace.splices) + 1} blocks -> {args.out}"
    )
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    base = _read_realset(args.inp)
    if args.kind == "thm2":
        m = constructions.thm2_matching(base)
    else:
        m = constructions.thm4_matching(base)
    _emit(m.to_json(), args.out)
    _log(f"match {args.kind}: {len(m)} pairs over {m.base_size} elements -> {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.kind == "no4ap":
        res = oracles.max_weakly_convex_no4ap(args.n)
    else:
        base = _read_realset(args.inp)
        if args.kind == "lcs":
            res = oracles.lcs_convex(base)
        else:
            res = oracles.max_convex_matching(base)
    _emit_oracle(res)
    _log(f"oracle {args.kind}: value {res.value}, exhaustive {res.exhaustive}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.kind == "claim21":
        report = claims.verify_claim_2_1(args.n)
    elif args.kind == "claim22":
        report = claims.verify_claim_2_2(args.n)
    elif args.kind == "thm1size":
        report = claims.verify_thm1_size(args.n)
    else:
        report = claims.verify_claims_3(args.n)
    _emit(report.to_json(), None)
    _log(f"verify {args.kind}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        ns = [int(t) for t in args.n_list.split(",") if t.strip()]
    except ValueError as exc:
        raise InvalidParams(
            f"--n-list must be comma-separated integers, got {args.n_list!r}"
        ) from exc
    if not ns:
        raise InvalidParams("--n-list is empty")
    rows = claims.growth_table(args.family, ns)
    claims.growth_csv(rows, args.csv)
    _log(f"bench growth: {len(rows)} rows for {args.family} -> {args.csv}")
    return 0


_HANDLERS = {
    "construct": _cmd_construct,
    "glue": _cmd_glue,
    "match": _cmd_match,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConvexDiffError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
