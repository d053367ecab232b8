"""Benchmark of the orbiflip verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (`perfbench/worker.py`), so memo caches start empty as they do for
every `orbiflip` command; interpreter start, import and input generation are
the pass's set-up time.  Passes repeat the same seeded op list until the
measuring time is used, with at least three passes, and timings are medians
over passes.

With --trace 0 the end-to-end metrics are printed; with --trace 1 an untraced
and a traced pass alternate, the traced pass gives the per-layer metrics, and
the two must return the same answers.  In both, `cli` ops call `cli.main` in
the worker instead of starting a process.  Every metric is printed with its unit,
then the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """A pass could not run or returned no result."""


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[2:5]} ran longer than {timeout:.0f} s")
    return proc.returncode, out, err


def run_pass(workload: str, seed: int, trace: bool, env, in_process: bool = False) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed)]
    if in_process:
        cmd.append("--in-process")
    if trace:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        # One file per workload, overwritten by each traced pass, so that
        # many seeds do not fill the disk (a pass writes 3 to 20 MB).
        cmd += ["--trace", "--spans", str(out_dir / f"spans-{workload}.jsonl")]
    started = time.monotonic()
    code, out, err = run_process(cmd, env, PASS_TIMEOUT_S)
    if code != 0 or not out.strip():
        raise BenchError(f"worker exited {code}:\n{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(share * len(ordered)), 1) - 1]


def tail_share(ops_per_pass: int) -> float:
    """Highest whole percentile that leaves TAIL_BEYOND samples beyond it in
    the fewest passes a run makes."""
    samples = MIN_PASSES * ops_per_pass
    return math.floor(100 * (1 - TAIL_BEYOND / samples)) / 100


def count_failures(passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): an op fails in a pass if it failed its
    checks or its answer differs from the reference pass."""
    attempted = failed = 0
    reasons = []
    for number, result in enumerate(passes):
        attempted += result["ops"]
        for index, answer in enumerate(result["digests"]):
            why = result["failures"].get(str(index))
            if why is None and answer != reference["digests"][index]:
                why = "answer differs from the first pass"
            if why is not None:
                failed += 1
                reasons.append(f"pass {number} op {index}: {why}")
    return attempted, failed, reasons


def keep_going(steps: list[float], deadline: float, minimum: int) -> bool:
    """Start another step if fewer than minimum ran or a median one still fits."""
    if len(steps) < minimum:
        return True
    return time.monotonic() + statistics.median(steps) <= deadline


def end_to_end(passes) -> tuple[dict, list[str]]:
    latencies = [t for p in passes for t in p["latencies"]]
    share = tail_share(passes[0]["ops"])
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * nearest_rank(latencies, share),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    notes = [
        f"op_tail_ms is p{round(100 * share)} of {len(latencies)} op latencies",
        f"passes {len(passes)}, ops per pass {passes[0]['ops']}",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    units = per_layer_units()
    merged = {}
    for name, unit in units.items():
        if name == "trace.overhead_ratio":
            ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)]
            merged[name] = (statistics.median(ratios), unit)
        else:
            merged[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    notes = [f"traced pairs {len(traced)}, spans per traced pass {traced[0]['spans']}"]
    return merged, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbiflip benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbiflip" / "__init__.py").is_file():
        print("error: no orbiflip sources under src/; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    env = worker_env()
    try:
        # Byte-compile once so that no pass pays for it in its set-up time.
        code, _, err = run_process(
            [sys.executable, "-c", "import orbiflip.cli, perfbench.worker, perfbench.tracer"],
            env,
            PASS_TIMEOUT_S,
        )
        if code != 0:
            raise BenchError(f"import failed:\n{err.strip()[-2000:]}")
        deadline = time.monotonic() + args.seconds
        untraced, traced, steps = [], [], []
        while keep_going(steps, deadline, 1 if args.trace else MIN_PASSES):
            started = time.monotonic()
            # The untraced partner of a traced pass runs cli ops in process
            # too, so that the two differ only by the tracing.
            untraced.append(run_pass(args.workload, args.seed, False, env, args.trace == 1))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, True, env))
            steps.append(time.monotonic() - started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted, failed, reasons = count_failures(passes, untraced[0])
    if args.trace:
        metrics, notes = per_layer(untraced, traced)
    else:
        metrics, notes = end_to_end(untraced)
    repeats, betti_ops = workloads.repeat_share(workloads.build_ops(args.workload, args.seed))
    if betti_ops:
        notes.append(f"Betti ops repeating an earlier (multiset, k): {repeats}/{betti_ops}")
    answers = "".join(untraced[0]["digests"])
    notes.append(f"answer digest {hashlib.sha256(answers.encode()).hexdigest()[:16]}")
    notes.append(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for note in notes:
        print(f"# {note}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
