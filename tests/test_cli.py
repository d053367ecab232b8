from __future__ import annotations

import json

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


class TestResolve:
    def test_weighted_table(self, capsys):
        code, out, _ = run(
            capsys, "resolve", "--seq", "1,2;1,1,1", "--side", "plus", "--k", "2",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
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


class TestVerify:
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
        # 5 x 5 charts on Y: refused before any of the 2^25 subsets is formed.
        code, out, err = run(
            capsys, "cohomology", "--seq", "1,1,1,1,1;1,1,1,1,1", "--space", "Y",
            "--twist", "0,0", "--box", "1",
        )
        assert code == 2
        assert err.startswith("error: ") and "25 charts" in err
        assert "Traceback" not in err and out == ""
