"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run small op lists in this process, one full benchmark run per mode in a
subprocess, and an injected wrong answer that must count as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orbiflip  # noqa: E402
from orbiflip.resolution import ResolutionDegrees  # noqa: E402

from perfbench import run, worker, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def program_on_path(monkeypatch):
    """Untraced cli ops start `python -m orbiflip.cli`, which must find src/."""
    monkeypatch.setenv("PYTHONPATH", run.worker_env()["PYTHONPATH"])


@pytest.fixture
def out_dir(request):
    """A fresh directory under perfbench/out, the benchmark's ignored output."""
    path = ROOT / "perfbench" / "out" / "tests" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_ops(workload: str, seed: int = 7) -> list[tuple]:
    """A cheap slice of a workload's op list, in the workload's order."""
    ops = workloads.build_ops(workload, seed)
    if workload == "roundtrip":
        return [op for op in ops if op[1] == "1,1;2,1" and op[2] <= 2]
    if workload == "oracle_cli":
        cheap_cli = [op for op in ops if op[1] in ("analyze", "usage", "transform")][:4]
        return [
            op for op in ops
            if op[0] == "adjunction" or op[1] == "1,1;1,1" or op in cheap_cli
        ]
    betti = [op for op in ops if op[0] == "betti" and len(op[1]) <= 3][:40]
    return betti + [op for op in ops if op[0] == "build" and op[2] == 3][:2]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.build_ops(workload, 3) == workloads.build_ops(workload, 3)
    assert workloads.build_ops("resolve", 3) != workloads.build_ops("resolve", 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass(workload):
    ops = small_ops(workload)
    result = worker.run_pass(ops, trace=False)
    assert result["failures"] == {}
    assert result["ops"] == len(ops) == len(result["digests"]) == len(result["latencies"])
    assert all(t > 0 for t in result["latencies"])
    assert result["wall_s"] > 0 and result["cpu_s"] > 0 and result["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_answers_equal_untraced(workload, out_dir):
    ops = small_ops(workload)
    plain = worker.run_pass(ops, trace=False)
    traced = worker.run_pass(ops, trace=True, spans_path=str(out_dir / "spans.jsonl"))
    assert traced["failures"] == {}
    assert traced["digests"] == plain["digests"]
    names = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_ratio"}
    assert set(traced["layers"]) == names
    spans = [json.loads(line) for line in (out_dir / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == traced["spans"] > len(ops)
    roots = [span for span in spans if span[3] == -1]
    assert [(name, op) for name, _, _, _, op in roots] == [("op", i) for i in range(len(ops))]
    assert all(start <= end for _, start, end, _, _ in spans)


def test_tracer_rebinds_every_alias_and_restores_them():
    original = orbiflip.exact.chain_reduce_homology
    homology = orbiflip.linalg.StrandComplex.homology
    tracer = Tracer(orbiflip)
    tracer.install()
    try:
        wrapped = orbiflip.exact.chain_reduce_homology
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert orbiflip.sheaves.chain_reduce_homology is wrapped
        assert orbiflip.resolution.chain_reduce_homology is wrapped
        assert orbiflip.functors.strand is orbiflip.resolution.strand is orbiflip.linalg.strand
        assert orbiflip.cli.apply_functor is orbiflip.functors.apply
        assert orbiflip.linalg.StrandComplex.homology is not homology
    finally:
        tracer.uninstall()
    assert orbiflip.sheaves.chain_reduce_homology is original
    assert orbiflip.linalg.StrandComplex.homology is homology


def test_reference_betti_check():
    # I_2 over weights (1, 2): generators x^2 and y, one syzygy in degree 4.
    assert workloads.betti_problems((1, 2), 2, {1: (2, 2), 2: (4,)}) == []
    assert workloads.betti_problems((1, 2), 2, {1: (2, 2)})
    assert workloads.betti_problems((1, 2), 2, {1: (2, 3), 2: (4,)})
    assert workloads.wps_totals((1, 1), -2) == {"1": 1}
    assert workloads.fiber_cohomology((1, 1, 1)) == [0, 0, 1]


def test_injected_wrong_answer_counts_as_failure(monkeypatch):
    ops = [op for op in workloads.build_ops("resolve", 7) if op[0] == "betti" and op[2] >= 2][:6]
    real = orbiflip.resolution.minimal_resolution_degrees

    def wrong(weights, k, cap=None):
        res = real(weights, k, cap)
        degrees = dict(res.degrees)
        degrees[1] = degrees[1][:-1]
        return ResolutionDegrees(res.weights, res.k, degrees)

    monkeypatch.setattr(orbiflip.resolution, "minimal_resolution_degrees", wrong)
    result = worker.run_pass(ops, trace=False)
    assert sorted(result["failures"]) == [str(i) for i in range(len(ops))]
    good = dict(result, failures={})
    attempted, failed, _ = run.count_failures([good, result], good)
    assert (attempted, failed) == (2 * len(ops), len(ops))


def test_false_verdict_counts_as_failure(monkeypatch):
    ops = small_ops("roundtrip")
    real = orbiflip.functors.equivalence_suite

    def refuted(seq, k_range):
        report = real(seq, k_range)
        report.children[0].verdict = False
        return report

    monkeypatch.setattr(orbiflip.functors, "equivalence_suite", refuted)
    result = worker.run_pass(ops, trace=False)
    assert len(result["failures"]) == len(ops)


def test_changed_answer_between_passes_counts_as_failure():
    first = {"ops": 2, "digests": ["a", "b"], "failures": {}}
    second = {"ops": 2, "digests": ["a", "c"], "failures": {}}
    attempted, failed, reasons = run.count_failures([first, second], first)
    assert (attempted, failed) == (4, 1)
    assert "differs" in reasons[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resolve", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.endswith(unit) for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(out_dir):
    (out_dir / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, out_dir / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", out_dir / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=out_dir, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
