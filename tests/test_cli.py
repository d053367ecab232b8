from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbiflip
from orbiflip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_flop_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seq", "1,2;1,1,1")
        assert code == 0
        assert "Flop" in out
        assert "1/2(1,1,1,1)" in out

    def test_normalization_shown(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seq", "2,4;2,2")
        assert code == 0
        assert "1,2;1,1" in out

    def test_wps_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seq", "1,2,3;")
        assert code == 0
        assert "WeightedProjectiveSpace" in out

    def test_json_schema_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "analyze", "--seq", "1,2;1,1,1", "--json")
        assert code == 0
        data = json.loads(out1)
        assert data["schema"] == "orbiflip/1"
        assert data["kind"] == "Flop"
        _, out2, _ = run(capsys, "analyze", "--seq", "1,2;1,1,1", "--json")
        assert out1 == out2

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "--seq", "nonsense")
        assert code == 2
        assert "error" in err


    def test_group_over_cap_is_configuration_error(self, capsys):
        code, out, err = run(capsys, "analyze", "--seq", "1000003,1000033;1000037,1000039")
        assert code == 2
        assert err == "error: group order 1000003 exceeds 1000000\n"
        assert out == ""

    def test_prime_orders_near_a_billion_refused_at_once(self, capsys):
        # normal_form would loop over about 10^9 units of the first chart.
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--seq", "999999937,999999929;1,1")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == "error: group order 999999937 exceeds 1000000\n"
        assert out == ""


class TestResolve:
    def test_weighted_table(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--seq", "1,2;1,1,1", "--side", "plus", "--k", "2",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "orbiflip/1"
        assert data["betti"] == [
            {"l": 1, "degrees": [2, 2]},
            {"l": 2, "degrees": [4]},
        ]
        assert data["bounds_ok"] is True

    def test_zero_threshold(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--seq", "1,1;1,1", "--side", "plus", "--k", "0",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["betti"] == [{"l": 1, "degrees": [0]}]

    def test_negative_threshold_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "resolve", "--seq", "1,1;1,1", "--side", "minus", "--k", "-5"
        )
        assert code == 2
        assert err.startswith("error: ") and "k must be >= 0" in err
        assert out == ""

    def test_oversized_table_refused_at_once(self, capsys):
        # I_30 in twelve variables: C(41, 11), about 2.25e9, generators.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "resolve", "--seq", "1;1,1,1,1,1,1,1,1,1,1,1,1", "--side", "minus",
            "--k", "30",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err.startswith("error: resolution of I_30 ") and "above the table cap" in err
        assert out == ""

    def test_oversized_betti_rows_refused_before_allocation(self, capsys, monkeypatch):
        # Three symbols, but the dense degree rows of the read-off would hold
        # 5 * (64 + 10^9 + 1) integers.
        from orbiflip import resolution

        def forbidden(*args):
            raise AssertionError("dense rows allocated")

        monkeypatch.setattr(resolution, "_betti_counts", forbidden)
        start = time.perf_counter()
        code, out, err = run(capsys, "resolve", "--seq", "1000000000,1;1", "--k", "64")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (
            "error: Betti rows of I_64 over (1000000000, 1) need 5000000325 entries, "
            "above the enumeration limit 4000000\n"
        )
        assert out == ""

    def test_square_ideal(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--seq", "1,1;1,1", "--side", "plus", "--k", "2",
            "--json",
        )
        data = json.loads(out)
        assert data["betti"] == [
            {"l": 1, "degrees": [2, 2, 2]},
            {"l": 2, "degrees": [3, 3]},
        ]


class TestTransform:
    def test_f_image(self, capsys):
        code, out, _ = run(
            capsys, "transform", "--seq", "1,2;1,1,1", "--functor", "F", "--k", "3"
        )
        assert code == 0
        assert "I_3(-3)" in out

    def test_no_closed_form_is_usage_error(self, capsys):
        # No verification runs, so leaving the closed-form ranges is an
        # input the command refuses, not a failed check.
        for k in ("-3", "-1000000000"):
            code, out, err = run(
                capsys, "transform", "--seq", "1,1;1,1", "--functor", "F", f"--k={k}"
            )
            assert code == 2, k
            assert err.startswith(f"error: term O({k}, 0) has no closed-form image")
            assert "Traceback" not in err and out == ""


class TestVerify:
    @pytest.mark.parametrize(
        "text, k_max, digest",
        [
            ("1,1;1,1", "3", "f41dfc1777c6c04115a068135dd6d48d00cd25f0f10277c63ed55615f3d5c3ad"),
            ("1,2;1,1,1", "2", "cd6482ea7ad19f21e9e3fe4e093a8323d8d8308a811258e6843315bcb6851414"),
        ],
    )
    def test_all_suites_json_bytes_are_pinned(self, capsys, text, k_max, digest):
        # The default report of every suite stays byte-identical until a
        # change says that it changes the report.
        import hashlib

        code, out, _ = run(
            capsys, "verify", "--seq", text, "--suite", "all", "--k-max", k_max, "--json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_roundtrip_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seq", "1,1;1,1", "--suite", "roundtrip",
            "--k-max", "2",
        )
        assert code == 0
        assert "PASS" in out

    def test_swap_hint(self, capsys):
        code, _, err = run(capsys, "verify", "--seq", "2,1;1,1", "--suite", "roundtrip")
        assert code == 2
        assert "swap sides" in err

    def test_example51_wrong_sequence(self, capsys):
        code, _, err = run(capsys, "verify", "--seq", "1,1;1,1", "--suite", "example51")
        assert code == 2

    def test_negative_k_range_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--seq", "1,1;1,1", "--suite", "roundtrip",
            "--k-min", "-2", "--k-max", "-1",
        )
        assert code == 2
        assert "k >= 0" in err
        assert "round trips" not in out

    def test_all_suites_skip_round_trips_without_nonnegative_k(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seq", "1,1;1,1", "--suite", "all",
            "--k-min", "-2", "--k-max", "-1", "--json",
        )
        assert code == 0
        data = json.loads(out)
        skip = {"suite": "roundtrip", "reason": "round trips are stated for k >= 0"}
        assert skip in data["skipped"]
        assert "equivalence suite" not in [r["title"] for r in data["suites"]]
        assert data["verdict"] is True

    def test_roundtrip_k_range_above_threshold_cap_refused_up_front(self, capsys):
        # k = 65 exceeds the resolution cap; the refusal comes before the
        # round trips for k = 0..64 run, so the command returns at once.
        code, out, err = run(
            capsys, "verify", "--seq", "1,1;1,1", "--suite", "roundtrip",
            "--k-max", "200", "--json",
        )
        assert code == 2
        assert "threshold 65 above the strand-size cap 64" in err
        assert out == ""

    def test_roundtrip_box_too_large_is_configuration_error(self, capsys):
        # k = 30 on (1,1,1;1,1,1) asks for a box over the enumeration limit,
        # refused before any round trip runs.
        code, out, err = run(
            capsys, "verify", "--seq", "1,1,1;1,1,1", "--suite", "roundtrip",
            "--k-min", "30", "--k-max", "30",
        )
        assert code == 2
        assert err.startswith("error: character box of size > 4000000")
        assert "Traceback" not in err and out == ""

    def test_suite_without_closed_form_is_verification_error(self, capsys, monkeypatch):
        import orbiflip.cli as cli
        from orbiflip import PushforwardNotClosedForm

        def raising(*args, **kwargs):
            raise PushforwardNotClosedForm("term O(-3, 0) has no closed-form image on plus")

        monkeypatch.setattr(cli, "serre_duality_suite", raising)
        code, out, err = run(capsys, "verify", "--seq", "1,1;1,1", "--suite", "serre")
        assert code == 1
        assert err.startswith("verification error: term O(-3, 0)") and out == ""

    def test_unbounded_pushforward_sweep_refused_at_once(self, capsys, monkeypatch):
        # 2 * 2 * (10^9 + 1) * (2 * 4 + 1) tables: refused before the first.
        from orbiflip import functors

        def forbidden(*args, **kwargs):
            raise AssertionError("a cohomology table was computed")

        monkeypatch.setattr(functors, "cohomology_table", forbidden)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", "--seq", "1,1;1000000000,1", "--suite", "pushforward"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == (
            "error: pushforward sweep of 1,1;1000000000,1 needs 36000000036 cohomology "
            "tables, above the enumeration limit 4000000\n"
        )
        assert out == ""

    def test_serre_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seq", "1,2;1,1,1", "--suite", "serre", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is True
        assert data["schema"] == "orbiflip/1"

    def test_box_checked_only_where_read(self, capsys):
        for suite in ("serre", "roundtrip"):
            code, out, _ = run(
                capsys, "verify", "--seq", "1,1;1,1", "--suite", suite,
                "--k-max", "1", "--box", "0",
            )
            assert code == 0, suite
            assert "PASS" in out
        for suite in ("adjunction", "pushforward", "all"):
            code, _, err = run(
                capsys, "verify", "--seq", "1,1;1,1", "--suite", suite, "--box", "0"
            )
            assert code == 2, suite
            assert "box limit must be >= 1" in err


class TestCohomology:
    def test_projective_line(self, capsys):
        code, out, _ = run(
            capsys, "cohomology", "--seq", "1,1;", "--space", "minus",
            "--twist", "-2", "--box", "4", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["totals"] == {"1": 1}

    def test_y_twist_pair(self, capsys):
        code, out, _ = run(
            capsys, "cohomology", "--seq", "1,2;1,1,1", "--space", "Y",
            "--twist", "1,1", "--box", "3", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["twist"] == [1, 1]

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "cohomology", "--seq", "1,1;", "--space", "Y",
                         "--twist", "3")
        assert code == 2

    def test_threshold_on_y_is_usage_error(self, capsys):
        # Y carries no ideal sheaf: a threshold there was silently ignored.
        code, out, err = run(
            capsys, "cohomology", "--seq", "1,1;1,1", "--space", "Y",
            "--twist", "1,1", "--threshold", "5", "--json",
        )
        assert code == 2
        assert err.startswith("error: ") and "threshold" in err
        assert out == ""

    def test_non_integer_twist(self, capsys):
        for argv in (
            ("--seq", "1,1;", "--twist", "x"),
            ("--seq", "1,2;1,1,1", "--space", "Y", "--twist", "1,x"),
        ):
            code, _, err = run(capsys, "cohomology", *argv)
            assert code == 2, argv
            assert err.startswith("error: ") and "Traceback" not in err

    def test_negative_rows_and_box(self, capsys):
        for flag in ("--rows", "--box"):
            code, out, err = run(
                capsys, "cohomology", "--seq", "1,1;", "--twist", "-2", flag, "-1"
            )
            assert code == 2, flag
            assert err.startswith("error: ") and flag[2:] in err
            assert out == ""

    def test_chart_cover_too_large(self, capsys):
        # 7 x 7 charts on Y: a bicomplex of 127^2 cells, refused before any
        # is formed.  5 x 5 (31^2 cells) is within the limit.
        code, out, err = run(
            capsys, "cohomology", "--seq", "1,1,1,1,1,1,1;1,1,1,1,1,1,1", "--space", "Y",
            "--twist", "0,0", "--box", "1",
        )
        assert code == 2
        assert err.startswith("error: ") and "7 x 7 charts has 16129 cells" in err
        assert "Traceback" not in err and out == ""

    def test_box_too_large_is_configuration_error(self, capsys):
        code, out, err = run(
            capsys, "cohomology", "--seq", "1,1,1,1;", "--twist", "0", "--box", "2000",
        )
        assert code == 2
        assert err.startswith("error: character box of size > 4000000")
        assert "Traceback" not in err and out == ""


# Malformed and out-of-range values are a minority of every draw, so that
# most commands get past argument parsing.
_WEIGHT_LISTS = st.lists(st.integers(1, 4), max_size=3).map(lambda ws: ",".join(map(str, ws)))
_SEQ_TEXTS = st.one_of(
    st.sampled_from(
        ["1,1;1,1", "1,2;1,1,1", "1,2,3;1,5", "1,1;2,1", "1,5;2,3", "1,1,2;", "2,1;1,1"]
        + ["", "1,2", "x;1", "0,1;1", "-1,2;1"]
    ),
    st.builds(lambda a, b: f"{a};{b}", _WEIGHT_LISTS, _WEIGHT_LISTS),
)
_INTS = st.sampled_from([str(v) for v in range(-3, 10)] + ["x", "100", "-100"])
_TWISTS = st.one_of(
    _INTS,
    st.sampled_from([f"{u},{v}" for u in range(-3, 4) for v in range(-3, 4)] + ["1,x", "1,2,3"]),
)
_OPTIONS = {
    "analyze": (),
    "resolve": (("--side", st.sampled_from(["plus", "minus", "Y"])), ("--k", _INTS)),
    "transform": (
        ("--functor", st.sampled_from(["F", "G", "H", "Fprime", "Gprime", "Hprime", "X"])),
        ("--k", _INTS),
    ),
    "verify": (
        (
            "--suite",
            st.sampled_from(
                ["roundtrip", "adjunction", "serre", "pushforward", "example51", "all", "x"]
            ),
        ),
        ("--k-min", _INTS),
        ("--k-max", _INTS),
        ("--box", _INTS),
    ),
    "cohomology": (
        ("--space", st.sampled_from(["minus", "plus", "Y"])),
        ("--twist", _TWISTS),
        ("--box", _INTS),
        ("--threshold", _INTS),
        ("--rows", _INTS),
    ),
}


@st.composite
def _argv(draw):
    """A command over the five subcommands: each option present or not,
    with well-formed, out-of-range or malformed values."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    present = st.sampled_from([True] * 7 + [False])
    for flag, values in (("--seq", _SEQ_TEXTS),) + _OPTIONS[command]:
        if draw(present):
            # flag=value, so that a value such as -1,2 is not read as a flag.
            argv.append(f"{flag}={draw(values)}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestArgvFuzz:
    def test_exit_codes_and_no_traceback(self, monkeypatch):
        # Every limit is patched small, so no drawn command can start a real
        # blow-up; a limit hit is a refusal with exit 2.  The pattern-subset
        # cache is cleared around the patch so that covers cached under the
        # real chart limit are refused too.
        from orbiflip import charts, linalg, resolution, sheaves

        monkeypatch.setattr(linalg, "ENUMERATION_LIMIT", 3000)
        monkeypatch.setattr(resolution, "THRESHOLD_CAP", 6)
        monkeypatch.setattr(resolution, "TABLE_CAP", 300)
        monkeypatch.setattr(resolution, "CERTIFICATE_LIMIT", 10**5)
        monkeypatch.setattr(sheaves, "CHART_LIMIT", 6)
        monkeypatch.setattr(charts, "GROUP_ENUMERATION_CAP", 50)

        @settings(max_examples=300, deadline=None)
        @given(_argv())
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err.getvalue(), argv

        sheaves._pattern_subsets.cache_clear()
        try:
            check()
        finally:
            sheaves._pattern_subsets.cache_clear()


def test_closed_stdout_is_one_error_line():
    # The read end of the pipe is closed before the process starts, so the
    # report's first write meets a broken pipe.
    src = str(Path(orbiflip.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "orbiflip.cli", "resolve", "--seq", "1,1,1,1;1",
             "--side", "plus", "--k", "12", "--json"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == "error: standard output closed before the report was written\n"
