"""Command-line frontend: analyze | resolve | transform | verify | cohomology.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error.  --json switches to the versioned machine-readable
report (schema "orbiflip/1"); text output is human-oriented and not a
stability surface.
"""

from __future__ import annotations

import argparse
import json
import sys

from .charts import atlas_report
from .errors import OrbiflipError, ParseError, PreconditionKLevel, Unsupported
from .functors import (
    IdealImage,
    VerificationReport,
    apply as apply_functor,
    adjunction_check,
    equivalence_suite,
    example51_verify,
    pushforward_oracle_suite,
    serre_duality_suite,
)
from .linalg import SPACE_MINUS, SPACE_PLUS, SPACE_Y
from .resolution import minimal_resolution_degrees, verify_degree_bounds
from .sheaves import cohomology_table, total_cohomology
from .weights import (
    WeightSequence,
    canonical_extension,
    classify,
    normalize,
)

SCHEMA = "orbiflip/1"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _parse_seq(text: str) -> WeightSequence:
    return WeightSequence.parse(text)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text!r}") from None


def _emit(data: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_analyze(args) -> int:
    seq = _parse_seq(args.seq)
    trace = normalize(seq)
    wf = trace.output
    report = classify(wf)
    atlas = atlas_report(wf)
    data = {
        "schema": SCHEMA,
        "input": str(seq),
        "normalized": str(wf),
        "global_gcd": trace.global_gcd,
        "omit_one_gcds": list(trace.omit_one_gcds),
        "lcm_factors": list(trace.lcm_factors),
        "kind": report.kind,
        "klevel": report.klevel,
        "ff_direction": report.ff_direction,
        "charts": [
            {
                "space": e.space,
                "index": list(e.index),
                "label": e.chart.render(),
                "small": e.small,
                "normal_forms": [nf.render() for nf in e.normal_forms],
                "trivial": e.chart.is_trivial(),
            }
            for e in atlas
        ],
    }
    lines = [
        f"sequence       {seq}",
        f"normalized     {wf}"
        + (f"  (global gcd {trace.global_gcd}, factors {list(trace.lcm_factors)})"
           if str(wf) != str(seq) else ""),
        f"classification {report.describe()}",
    ]
    if report.klevel > 0:
        ext = canonical_extension(wf)
        data["canonical_extension"] = str(ext)
        lines.append(f"canonical ext  {ext}  (K-level 0 one dimension up)")
    singular = [e for e in atlas if not e.chart.is_trivial()]
    lines.append(f"charts         {len(atlas)} total, {len(singular)} nontrivial")
    for e in singular:
        lines.append(f"  {e.label()}  small={e.small}")
    _emit(data, args.json, lines)
    return EXIT_OK


def cmd_resolve(args) -> int:
    seq = _parse_seq(args.seq)
    if args.k < 0:
        raise ParseError("threshold k must be >= 0")
    side = args.side
    weights = seq.a if side == SPACE_PLUS else seq.b
    if not weights:
        raise Unsupported(f"side {side} of ({seq}) has no variables")
    res = minimal_resolution_degrees(weights, args.k)
    bounds_ok = verify_degree_bounds(res)
    data = {
        "schema": SCHEMA,
        "seq": str(seq),
        "side": side,
        "weights": list(weights),
        "k": args.k,
        "betti": [
            {"l": l, "degrees": list(res.degrees[l])} for l in res.positions()
        ],
        "bounds_ok": bounds_ok,
    }
    lines = [f"threshold ideal I_{args.k} over weights {list(weights)} ({side} side)"]
    for l in res.positions():
        lines.append(f"  position {l}: degrees {list(res.degrees[l])}")
    lines.append(f"degree bounds k <= e < k + sum(w): {'ok' if bounds_ok else 'VIOLATED'}")
    _emit(data, args.json, lines)
    return EXIT_OK if bounds_ok else EXIT_FAILED


def cmd_transform(args) -> int:
    seq = _parse_seq(args.seq)
    image = apply_functor(seq, args.functor, args.k)
    if isinstance(image, IdealImage):
        summary = image.render()
        data_img = {
            "kind": "ideal",
            "side": image.side,
            "index": image.index,
            "twist": image.twist,
        }
    else:
        summary = json.dumps(image.summary(), sort_keys=True)
        data_img = {"kind": "complex", **image.summary()}
    data = {
        "schema": SCHEMA,
        "seq": str(seq),
        "functor": args.functor,
        "object": f"O({args.k})",
        "image": data_img,
    }
    _emit(data, args.json, [f"{args.functor}(O({args.k})) = {summary}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    # Only the adjunction and pushforward suites read --box.
    if args.suite in ("adjunction", "pushforward", "all") and args.box < 1:
        raise ParseError("box limit must be >= 1")
    ks = tuple(range(args.k_min, args.k_max + 1))
    if not ks:
        raise ParseError("k-range must be nonempty")
    seq = _parse_seq(args.seq)
    run_all = args.suite == "all"
    suites = (
        ["roundtrip", "adjunction", "serre", "pushforward", "example51"]
        if run_all
        else [args.suite]
    )
    example_seq = WeightSequence((1, 2), (1, 1, 1))
    skipped = []
    reports = []

    def require(suite, condition, reason) -> bool:
        """With --suite all, inapplicable suites are skipped; an explicitly
        requested one raises Unsupported."""
        if condition:
            return True
        if run_all:
            skipped.append({"suite": suite, "reason": reason})
            return False
        _unsupported(suite, reason)

    for suite in suites:
        if suite == "roundtrip":
            if require(suite, seq.m >= 2 and seq.n >= 2, "round trips need m, n >= 2") and require(
                suite, seq.sum_a <= seq.sum_b, "sum(a) > sum(b); swap sides"
            ):
                # round trips derive their own box from k + sum(a) + sum(b)
                reports.append(equivalence_suite(seq, ks))
        elif suite == "adjunction":
            if require(suite, seq.m >= 2 and seq.n >= 2, "adjunctions need m, n >= 2") and require(
                suite, seq.sum_a <= seq.sum_b, "sum(a) > sum(b); swap sides"
            ):
                pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
                children = [
                    adjunction_check(seq, u, v, box=min(args.box, 4)) for u, v in pairs
                ]
                reports.append(
                    VerificationReport(
                        title="adjunction sweep",
                        inputs={"seq": str(seq), "pairs": pairs},
                        output=f"{len(children)} twist pairs",
                        target="graded Hom tables agree",
                        verdict=all(c.verdict for c in children),
                        children=children,
                    )
                )
        elif suite == "serre":
            reports.append(serre_duality_suite([w for w in (seq.a, seq.b) if w]))
        elif suite == "pushforward":
            if require(suite, seq.m >= 2 and seq.n >= 2, "pushforward suites need m, n >= 2"):
                reports.append(
                    pushforward_oracle_suite(
                        seq, s_box=min(args.box, 4), char_box=min(args.box, 6)
                    )
                )
        elif suite == "example51":
            if require(suite, seq == example_seq, "the cotangent example is stated for 1,2;1,1,1"):
                reports.append(example51_verify())
        else:
            _unsupported(suite, "unknown suite")
    verdict = all(r.verdict for r in reports)
    data = {
        "schema": SCHEMA,
        "seq": str(seq),
        "suites": [r.to_json_dict() for r in reports],
        "skipped": skipped,
        "verdict": verdict,
    }
    lines = []
    for r in reports:
        lines.append(f"[{'PASS' if r.verdict else 'FAIL'}] {r.title}: {r.output}")
        if not r.verdict:
            lines.append(f"       details: {json.dumps(r.details, sort_keys=True)[:400]}")
    for s in skipped:
        lines.append(f"[skip] {s['suite']}: {s['reason']}")
    lines.append(f"verdict: {'all checks passed' if verdict else 'FAILED'}")
    _emit(data, args.json, lines)
    return EXIT_OK if verdict else EXIT_FAILED


def cmd_cohomology(args) -> int:
    seq = _parse_seq(args.seq)
    if args.box < 0:
        raise ParseError("box must be >= 0")
    if args.rows < 0:
        raise ParseError("rows must be >= 0")
    if args.space == SPACE_Y:
        parts = args.twist.split(",")
        if len(parts) != 2:
            raise ParseError("Y twists are k1,k2 pairs")
        twist = (_parse_int(parts[0], "twist"), _parse_int(parts[1], "twist"))
    else:
        twist = _parse_int(args.twist, "twist")
    table = cohomology_table(
        seq, args.space, twist, args.box, threshold=args.threshold
    )
    totals = total_cohomology(table)
    top = max((max(dims) for dims in table.values()), default=0)

    def dense(dims):
        return [dims.get(d, 0) for d in range(top + 1)]

    rows = [
        {
            "character": [list(ch.alpha), list(ch.beta)],
            "h": dense(dims),
        }
        for ch, dims in sorted(table.items())
    ]
    data = {
        "schema": SCHEMA,
        "seq": str(seq),
        "space": args.space,
        "twist": list(twist) if isinstance(twist, tuple) else twist,
        "threshold": args.threshold,
        "box": args.box,
        "totals": {str(d): h for d, h in sorted(totals.items())},
        "characters": rows,
    }
    lines = [
        f"cohomology of O({twist})"
        + (f" with threshold {args.threshold}" if args.threshold else "")
        + f" on {args.space} of ({seq}), box {args.box}",
        f"totals over the box: {dict(sorted(totals.items())) or '0'}",
        f"nonzero characters: {len(rows)}",
    ]
    for row in rows[: args.rows]:
        lines.append(f"  {row['character']}: {row['h']}")
    if len(rows) > args.rows:
        lines.append(f"  ... ({len(rows) - args.rows} more; use --json for all)")
    _emit(data, args.json, lines)
    return EXIT_OK


def _unsupported(suite, reason):
    raise Unsupported(f"suite {suite!r}: {reason}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbiflip",
        description="Exact workbench for toric flip/flop geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seq", required=True, help='weight sequence "a1,a2,...;b1,b2,..."')
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="normalize, classify, chart atlas")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("resolve", help="Betti table of a threshold ideal")
    add_common(p)
    p.add_argument("--side", choices=[SPACE_PLUS, SPACE_MINUS], default=SPACE_PLUS)
    p.add_argument("--k", type=int, required=True, help="threshold")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("transform", help="apply a wall-crossing functor to O(k)")
    add_common(p)
    p.add_argument(
        "--functor",
        choices=["F", "G", "H", "Fprime", "Gprime", "Hprime"],
        default="F",
    )
    p.add_argument("--k", type=int, required=True, help="twist of the input object")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument(
        "--suite",
        choices=["roundtrip", "adjunction", "serre", "pushforward", "example51", "all"],
        default="roundtrip",
    )
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument(
        "--box",
        type=int,
        default=8,
        help="character box bound, read by the adjunction suite (min(box, 4)) and "
        "the pushforward suite (s_box min(box, 4), char_box min(box, 6)); round "
        "trips derive their own box from k + sum(a) + sum(b)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohomology", help="per-character Cech cohomology table")
    add_common(p)
    p.add_argument("--space", choices=[SPACE_MINUS, SPACE_PLUS, SPACE_Y], default=SPACE_MINUS)
    p.add_argument("--twist", required=True, help="k, or k1,k2 on Y")
    p.add_argument("--box", type=int, default=8)
    p.add_argument("--threshold", type=int, default=None, help="ideal sheaf threshold")
    p.add_argument("--rows", type=int, default=12, help="text rows to print")
    p.set_defaults(func=cmd_cohomology)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ParseError, Unsupported, PreconditionKLevel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OrbiflipError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
