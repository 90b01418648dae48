"""Command line front end.

Exact utilities (expansions, convergents, intermediate fractions, indicator
and row-sum queries, multi-method weighted counts) plus the seeded
`montecarlo` experiment driver.  Exit codes: 0 success, 2 bad arguments or
an exhausted refinement budget, 3 internal invariant violation or a forked
worker process that died.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction

from .cf import (NeedsMoreBits, QuotientCapExceeded, cf_of_rational,
                 convergents, intermediates, parse_stream)
from .farey import chi, parse_height_set, row_sum_exact, row_sum_formula
from .harness import (REGISTRY, ExperimentConfig, InvariantViolation,
                      aggregate, find_violations, mq_all, mq_count_closed,
                      mq_count_farey, mq_count_intermediates, mq_value,
                      pairdep_tables, run, sample_stream, write_csv, write_json)
from .stats import parse_weight


def _ratio(text: str) -> tuple[int, int]:
    """(p, q) of "p/q" or "p", refusing q = 0."""
    p_s, q_s = text.split("/", 1) if "/" in text else (text, "1")
    p, q = int(p_s), int(q_s)
    if q == 0:
        raise ValueError("invalid denominator: q = 0")
    return p, q


def _class_mod1(text: str) -> tuple[int, int]:
    """The reduced class (a, q) of "p/q" mod 1, with 0 <= a < q (0 as (0, 1))."""
    return (Fraction(*_ratio(text)) % 1).as_integer_ratio()


def _fmt(v) -> str:
    if isinstance(v, (Fraction, int)):
        return str(v)
    return format(float(v), ".12g")


def _cmd_cf(args) -> int:
    print(cf_of_rational(_ratio(args.ratio)))
    return 0


def _cmd_convergents(args) -> int:
    for n, p, q in convergents(parse_stream(args.x), args.n):
        print(f"{n} {p}/{q}")
    return 0


def _cmd_intermediates(args) -> int:
    for level, index, num, den in intermediates(parse_stream(args.x), args.Q):
        # the zero class enters the listing as the value 1, shown that way
        shown = "1/1" if den == 1 else f"{num}/{den}"
        print(f"{level} {index} {den} {shown}")
    return 0


def _cmd_chi(args) -> int:
    print(chi(_class_mod1(args.beta), parse_stream(args.x)))
    return 0


def _cmd_farey_row(args) -> int:
    formula = row_sum_formula(args.q)  # first: its domain, 2..FAREY_TABLE_LIMIT, is the narrower
    exact = row_sum_exact(args.q)
    print(f"exact {exact}\nformula {formula:.12g}")
    return 0


def _cmd_mq(args) -> int:
    x = parse_stream(args.x)
    g = parse_weight(args.weight)
    if args.method == "all":
        farey_v, inter_v, closed_v, agree = mq_all(x, args.Q, g)
        if farey_v is not None:
            print(f"farey {_fmt(farey_v)}")
        print(f"conv {_fmt(inter_v)}")
        print(f"closed {_fmt(closed_v)}")
        print(f"agree {int(agree)}")
        return 0 if agree else 3
    grid_route = {"farey": mq_count_farey, "conv": mq_count_intermediates}.get(args.method)
    counts = grid_route(x, (args.Q,))[args.Q] if grid_route else mq_count_closed(x, args.Q)
    print(f"{args.method} {_fmt(mq_value(counts, g, g.is_exact))}")
    return 0


def _cmd_montecarlo(args) -> int:
    if args.json and os.path.splitext(args.out)[1] == ".json":  # the mirror would be --out
        raise ValueError(f"--json would write its JSON mirror over the CSV {args.out!r}")
    # flags to params only: resolve_params decides what the experiment takes
    exp = REGISTRY.get(args.experiment)  # and rejects an unknown name
    params: dict = {}
    for flag in ("Q", "n", "k", "m"):
        raw = getattr(args, flag)
        if raw is None:
            continue
        vals = [int(v) for v in raw.split(",") if v]
        if not vals:
            raise ValueError(f"empty value for --{flag}")
        if exp is not None and flag == exp.param:
            params["grid"] = vals
        elif len(vals) != 1:
            raise ValueError(f"--{flag} takes a single value for {args.experiment}")
        else:
            params[flag] = vals[0]
    if args.delta is not None:
        params["delta"] = args.delta
    if args.weight is not None:
        params["weight"] = parse_weight(args.weight)
    if args.set is not None:
        params["heights"] = parse_height_set(args.set)

    config = ExperimentConfig(args.experiment, args.samples, args.seed,
                              params, threads=args.threads, exact=args.exact)
    rows = run(config)
    try:
        write_csv(rows, args.out)
        if args.json:
            write_json(rows, os.path.splitext(args.out)[0] + ".json")
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename!r}: {exc.strerror}") from exc
    for s in aggregate(rows):
        print(f"{s.param} {s.stat} mean={s.mean:.12g} median={s.median:.12g} "
              f"trimmed={s.trimmed_mean:.12g} stddev={s.stddev:.12g} n={s.count}")
    if args.experiment == "pairdep":
        for (k, rv, sv), (joint, prod) in sorted(pairdep_tables(rows).items()):
            print(f"k={k} r={rv} s={sv} joint={joint:.12g} product={prod:.12g}")
    bad = find_violations(rows)
    if bad:  # the first failing samples, named by specs that `cflab mq --x` replays
        first = ", ".join(f"({r.param}, {r.index}) dyadic:seed="
                          f"{sample_stream(r.seed, r.index).seed:#x}" for r in bad[:3])
        raise InvariantViolation(f"methods_agree failed on {len(bad)} rows; "
                                 f"first ({exp.param}, index): {first}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; set_defaults binds the _cmd_* functions at
    that build, so patching one afterwards does not reach main."""
    ap = argparse.ArgumentParser(
        prog="cflab",
        description="Continued fractions, Farey indicators and seeded "
                    "Monte Carlo experiments over random reals.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cf", help="canonical expansion of a rational")
    p.add_argument("ratio", help="fraction as p/q")
    p.set_defaults(fn=_cmd_cf)

    p = sub.add_parser("convergents", help="principal convergents of a stream")
    p.add_argument("--x", required=True, help="stream spec")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_convergents)

    p = sub.add_parser("intermediates",
                       help="intermediate fractions of height <= Q")
    p.add_argument("--x", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(fn=_cmd_intermediates)

    p = sub.add_parser("chi", help="neighbor-interval indicator value")
    p.add_argument("--beta", required=True, help="fraction as a/q")
    p.add_argument("--x", required=True)
    p.set_defaults(fn=_cmd_chi)

    p = sub.add_parser("farey-row",
                       help="exact and smooth expected hit mass at height q")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_farey_row)

    p = sub.add_parser("mq", help="weighted count by one or all methods")
    p.add_argument("--x", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--weight", default="harmonic")
    p.add_argument("--method", choices=("farey", "conv", "closed", "all"),
                   default="all")
    p.set_defaults(fn=_cmd_mq)

    p = sub.add_parser("montecarlo", help="seeded experiment driver")
    p.add_argument("--experiment", required=True,
                   help="one of: " + ", ".join(sorted(REGISTRY)))
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--Q", help="comma-separated grid")
    p.add_argument("--n", help="grid or single value, per experiment")
    p.add_argument("--k", help="comma-separated grid")
    p.add_argument("--m", help="comma-separated grid")
    p.add_argument("--delta", type=float)
    p.add_argument("--weight")
    p.add_argument("--set", help="height set: all | primes | mod:d,r | file:<path>")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--threads", type=int, default=1,
                   help="workers: the caller and THREADS - 1 forked children, capped "
                        "at the usable CPUs (1 forks nothing); same output for any")
    p.add_argument("--exact", action="store_true",
                   help="emit exact rationals (num/den) in the CSV")
    p.add_argument("--json", action="store_true",
                   help="also write a JSON mirror next to the CSV")
    p.set_defaults(fn=_cmd_montecarlo)
    for parser in (ap, *sub.choices.values()):  # "-7/3" is a value: no option starts with a digit
        parser._negative_number_matcher = re.compile(r"-\d")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, NeedsMoreBits, QuotientCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
