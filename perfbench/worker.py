"""One pass of one workload in a fresh interpreter.

    python3 -m perfbench.worker --workload NAME --seed N [--in-process] [--trace] [--spans PATH]

Run from the repository root with `src` on PYTHONPATH.  The pass imports
orbiflip, builds the op list from the seed, then runs the ops one at a time
(a closed loop with one op in flight), timing each call.  Answers are checked
only after the last op, so the checks stay out of the timings.  The result
is one JSON object on the last line of standard output.

Memo caches start empty, as they do for every `orbiflip` command and test
process, so filling them is part of the timed work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from perfbench import workloads

CLI_TIMEOUT_S = 120
# Per-layer metrics not read from the tracer: the import time is measured
# here, and run.py divides traced by untraced time for the overhead.
MEASURED_HERE = ("cli.import_s", "trace.overhead_ratio")


def _report_digest(report: dict) -> dict:
    """The mathematical content of a verification report.

    Verdicts, inputs and per-row cohomology totals; counters such as
    strands_checked or box-dependent entry counts are left out, since an
    optimisation may legitimately change them.
    """
    row_keys = ("q", "image", "ok", "fiber_cohomology", "pipeline", "s", "totals", "weights")
    rows = report.get("details", {}).get("rows", [])
    return {
        "title": report["title"],
        "inputs": report["inputs"],
        "verdict": report["verdict"],
        "rows": [{k: row[k] for k in row_keys if k in row} for row in rows],
        "children": [_report_digest(child) for child in report["children"]],
    }


def _all_verdicts(report: dict) -> bool:
    return report["verdict"] is True and all(_all_verdicts(c) for c in report["children"])


def run_op(op, in_process_cli: bool):
    """Hand one op to orbiflip and return what it gave back (timed)."""
    kind = op[0]
    if kind == "cli":
        return _run_cli(op[2], in_process_cli)
    import orbiflip

    seq = orbiflip.WeightSequence.parse
    if kind == "roundtrip":
        return orbiflip.functors.equivalence_suite(seq(op[1]), [op[2]])
    if kind == "pushforward":
        return orbiflip.functors.pushforward_oracle_suite(seq(op[1]), op[2], op[3])
    if kind == "example51":
        return orbiflip.functors.example51_verify(s_values=[op[1]], box=op[2])
    if kind == "adjunction":
        return orbiflip.functors.adjunction_check(seq(op[1]), op[2], op[3])
    if kind == "betti":
        res = orbiflip.resolution.minimal_resolution_degrees(op[1], op[2])
        return res, orbiflip.resolution.verify_degree_bounds(res)
    if kind == "build":
        module_seq = orbiflip.WeightSequence(op[1], ())
        return orbiflip.resolution.build_resolution(module_seq, op[2], side="module")
    raise ValueError(f"unknown op kind {kind!r}")


def _run_cli(argv, in_process: bool):
    if in_process:
        from orbiflip import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    done = subprocess.run(
        [sys.executable, "-m", "orbiflip.cli", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr


def check_op(op, result):
    """(digestible answer, list of problems) for one op's result (untimed)."""
    kind = op[0]
    if kind == "cli":
        return _check_cli(op, result)
    if kind in ("roundtrip", "pushforward", "example51", "adjunction"):
        report = result.to_json_dict()
        problems = [] if _all_verdicts(report) else ["verdict false"]
        problems += _check_report(op, report)
        return _report_digest(report), problems
    if kind == "betti":
        res, bounds_ok = result
        table = {l: list(es) for l, es in sorted(res.degrees.items())}
        problems = [] if bounds_ok else ["verify_degree_bounds returned False"]
        problems += workloads.betti_problems(op[1], op[2], res.degrees)
        return table, problems
    if kind == "build":
        table: dict = {}
        for degree, terms in result.terms.items():
            table[1 - degree] = sorted(-t.twist for t in terms)
        table = dict(sorted(table.items()))
        return table, workloads.betti_problems(op[1], op[2], table)
    raise ValueError(f"unknown op kind {kind!r}")


def _check_report(op, report) -> list[str]:
    kind = op[0]
    if kind == "roundtrip":
        want = workloads.roundtrip_children(op[1], op[2])
        if len(report["children"]) != want:
            return [f"{len(report['children'])} round trips, expected {want}"]
    elif kind == "pushforward":
        rows = report["details"]["rows"]
        b = tuple(int(v) for v in op[1].split(";")[1].split(","))
        if len(rows) != 2 * sum(b) + 1:
            return [f"{len(rows)} Ebar slots, expected {2 * sum(b) + 1}"]
        if rows[-1].get("fiber_cohomology") != workloads.fiber_cohomology(b):
            return [f"fiber cohomology {rows[-1].get('fiber_cohomology')}"]
    elif kind == "example51":
        for row in report["details"]["rows"]:
            if row["totals"] != workloads.example51_totals(row["s"]):
                return [f"cotangent totals {row['totals']} at s={row['s']}"]
    return []


def _check_cli(op, result):
    _, name, argv, expect = op
    code, out, err = result
    problems = []
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if name == "usage":
        if code != expect or not err.startswith("error:"):
            problems.append(f"usage error exited {code}: {err.strip()[:80]}")
        return {"code": code}, problems
    if code != 0:
        return {"code": code}, problems + [f"exit code {code}: {err.strip()[:80]}"]
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return {"code": code}, problems + ["output is not JSON"]
    answer = {"code": code}
    if name == "analyze":
        answer.update(kind=data["kind"], klevel=data["klevel"], normalized=data["normalized"])
        answer["charts"] = [(c["space"], c["label"], c["small"]) for c in data["charts"]]
        problems += _check_analyze(data, expect)
    elif name == "resolve":
        weights, k = expect
        table = {row["l"]: row["degrees"] for row in data["betti"]}
        answer["betti"] = sorted(table.items())
        if data["bounds_ok"] is not True:
            problems.append("bounds_ok false")
        problems += workloads.betti_problems(weights, k, table)
    elif name == "transform":
        answer["image"] = data["image"]
        k = expect
        if k == 0:
            want = {"kind": "complex", "space": "plus", "terms": {"0": [0]}}
        else:
            want = {"kind": "ideal", "side": "plus", "index": k, "twist": -k}
        if data["image"] != want:
            problems.append(f"F(O({k})) = {data['image']}")
    elif name == "cohomology":
        weights, twist = expect
        answer["totals"] = data["totals"]
        if data["totals"] != workloads.wps_totals(weights, twist):
            problems.append(f"totals {data['totals']} of O({twist}) on P{weights}")
    elif name == "verify":
        ran, skipped = expect
        answer["suites"] = [_report_digest(s) for s in data["suites"]]
        answer["verdict"] = data["verdict"]
        if data["verdict"] is not True or not all(_all_verdicts(s) for s in data["suites"]):
            problems.append("verdict false")
        if len(data["suites"]) != len(ran):
            problems.append(f"{len(data['suites'])} suites ran, expected {ran}")
        if sorted(s["suite"] for s in data["skipped"]) != sorted(skipped):
            problems.append(f"skipped {data['skipped']}")
    return answer, problems


def _check_analyze(data, facts) -> list[str]:
    problems = []
    for key in ("kind", "klevel", "canonical_extension"):
        if key in facts and data.get(key) != facts[key]:
            problems.append(f"{key} {data.get(key)!r}, expected {facts[key]!r}")
    for space, count in facts.get("nontrivial", {}).items():
        got = sum(1 for c in data["charts"] if c["space"] == space and not c["trivial"])
        if got != count:
            problems.append(f"{got} nontrivial {space} charts, expected {count}")
    if not all(c["small"] for c in data["charts"]):
        problems.append("a chart action is not small")
    return problems


def _permutation_problems(ops, answers) -> dict[int, str]:
    """Betti tables must agree across permutations of one weight multiset."""
    groups: dict = {}
    for index, (op, answer) in enumerate(zip(ops, answers)):
        if op[0] in ("betti", "build") and answer is not None:
            key = (tuple(sorted(op[1])), op[2])
            groups.setdefault(key, []).append((index, json.dumps(answer, sort_keys=True)))
    out = {}
    for key, members in groups.items():
        if len({text for _, text in members}) > 1:
            for index, _ in members:
                out[index] = f"Betti tables of {key} differ across permutations"
    return out


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cpu_seconds() -> float:
    """User and system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(
    ops, trace: bool, spans_path: str | None = None, in_process: bool | None = None
) -> dict:
    """Run ops one at a time, then check every answer.

    `cli` ops start `python -m orbiflip.cli`, or call `cli.main` in this
    process when in_process is set, as it is by default for a traced pass so
    that the calls under `cli.main` are traced too.
    """
    in_process = trace if in_process is None else in_process
    import_start = time.perf_counter()
    if in_process or any(op[0] != "cli" for op in ops):
        import orbiflip
        import orbiflip.cli  # noqa: F401
    import_s = time.perf_counter() - import_start
    tracer = None
    if trace:
        from perfbench.tracer import Tracer

        tracer = Tracer(orbiflip)
        tracer.install()
    ready = time.monotonic()

    results, errors, latencies = [], [], []
    cpu_start = _cpu_seconds()
    first = time.perf_counter()
    for index, op in enumerate(ops):
        token = tracer.begin_op(index) if tracer else None
        start = time.perf_counter()
        try:
            result, error = run_op(op, in_process_cli=in_process), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3)
        end = time.perf_counter()
        if tracer:
            tracer.end_op(token)
        latencies.append(end - start)
        results.append(result)
        errors.append(error)
    last = time.perf_counter()
    cpu_s = _cpu_seconds() - cpu_start
    if tracer:
        tracer.uninstall()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    answers, failures = [], {}
    for index, (op, result, error) in enumerate(zip(ops, results, errors)):
        if error is not None:
            answers.append(None)
            failures[index] = "raised: " + error.strip().splitlines()[-1]
            continue
        try:
            answer, problems = check_op(op, result)
        except Exception as exc:  # an answer of the wrong shape fails its op
            answer, problems = None, [f"unreadable answer: {exc!r}"]
        answers.append(answer)
        if problems:
            failures[index] = "; ".join(problems)
    for index, why in _permutation_problems(ops, answers).items():
        failures.setdefault(index, why)

    out = {
        "ready": ready,
        "wall_s": last - first,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kb / 1024,
        "latencies": latencies,
        "digests": [digest(a) for a in answers],
        "failures": {str(i): why for i, why in sorted(failures.items())},
        "ops": len(ops),
    }
    if tracer:
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer"]]
        out["layers"] = tracer.layer_metrics(n for n in names if n not in MEASURED_HERE)
        out["layers"]["cli.import_s"] = import_s
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--in-process", action="store_true", help="run cli ops in this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)
    ops = workloads.build_ops(args.workload, args.seed)
    result = run_pass(ops, args.trace, args.spans, args.in_process or args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
