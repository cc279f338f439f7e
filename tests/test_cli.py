"""Command-line surface: golden outputs, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewpoly
import skewpoly.equivalence as equivalence
from skewpoly.cli import _parse_monomial, main
from skewpoly.errors import ParseError


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMonomialParsing:
    def test_mixed_exponents(self):
        assert _parse_monomial("x1^6 x2^6 x3^3 x4") == (6, 6, 3, 1)

    def test_gaps_fill_with_zero(self):
        assert _parse_monomial("x3^2") == (0, 0, 2)

    def test_rejects_bad_tokens(self):
        for bad in ("x0", "y1", "x1^", "x1^0", "x2 x2", ""):
            with pytest.raises(ParseError):
                _parse_monomial(bad)


class TestGoldenOutputs:
    def test_bottlenecks_profile(self, capsys):
        code, out, _ = run(capsys, "bottlenecks", "5,5,4,2,2,2/4,2,1,1,1")
        assert code == 0
        lines = out.splitlines()
        assert "b = (0,3,0,0,1)" in lines
        assert "b(2) = (0,0,1,0)" in lines
        assert "pair_sums = (1,3,0)" in lines
        assert "sum_b_squares = 10" in lines

    def test_equal_rotation_pair(self, capsys):
        code, out, _ = run(capsys, "equal", "--kind", "g", "2,1", "2,2/1")
        assert code == 0
        assert out == "g: equal; exact\n"

    def test_equal_filter_rejection_lists_invariants(self, capsys):
        code, out, _ = run(
            capsys,
            "equal",
            "--kind",
            "g",
            "6,5,5,3,2,2/4,2,1,1",
            "6,5,5,4,4,2/4,3,3,1",
        )
        assert code == 0
        assert "g: not equal; exact" in out
        assert "invariant: b2+b5: 2 vs 1" in out

    def test_grothendieck_coefficient(self, capsys):
        code, out, _ = run(
            capsys,
            "coeff",
            "8,6,4,2/4,1",
            "--monomial",
            "x1^6 x2^6 x3^3 x4",
            "--kind",
            "G",
        )
        assert code == 0
        assert "coefficient of x1^6 x2^6 x3^3 x4 in G: -353" in out

    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "(2,1,2,3,1)")
        assert code == 0
        assert out == "(2,1,2,3,1) = (1,2) o (2,1)\n"

    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "[3,2]")
        assert code == 0
        assert out.splitlines() == [
            "g[3,2] =",
            "  1 * s[1,1]",
            "  1 * s[1,2]",
            "  2 * s[2,1]",
            "  2 * s[2,2]",
            "  1 * s[3,1]",
            "  1 * s[3,2]",
        ]

    def test_poly_text(self, capsys):
        code, out, _ = run(
            capsys, "poly", "--kind", "g", "--shape", "2,1", "--vars", "2"
        )
        assert code == 0
        assert out.splitlines() == [
            "g[2,1]",
            "vars=2 degree_bound=3 complete=true",
            "[1,1] 1",
            "[2] 1",
            "[2,1] 1",
        ]

    def test_coeff_reports_agreement(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "2,2/1", "--monomial", "x1^2 x2"
        )
        assert code == 0
        assert "coefficient of x1^2 x2 in g: 1" in out
        assert "two_var closed form = 1 (agrees)" in out

    def test_coeff_reports_disagreement(self, capsys):
        # the stated cubic closed form misses on the 2x2 square; the
        # enumerated value is the answer and the report says so
        code, out, _ = run(capsys, "coeff", "2,2", "--monomial", "x1^3 x2")
        assert code == 0
        assert "coefficient of x1^3 x2 in g: 0" in out
        assert "DISAGREES" in out

    def test_staircase_passes(self, capsys):
        code, out, _ = run(capsys, "staircase", "--n", "3")
        assert code == 0
        assert "staircase n=3: 5 cases, 0 violations -> pass" in out
        assert "(empty)" in out

    def test_verify_rotation(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "rotation", "--cells", "3")
        assert code == 0
        assert out.startswith("PASS rotation (cells <= 3): 13 shapes")


class TestJsonFormat:
    def test_records_are_sorted_single_line_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "equal", "--kind", "g", "2,1", "2,2/1"
        )
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "g"
        assert record["shapes"] == ["2,1", "2,2/1"]
        assert record["verdict"]["equal"] is True
        assert record["verdict"]["evidence"] == "exact"
        assert "elapsed" not in record
        assert list(record) == sorted(record)

    def test_byte_determinism(self, capsys):
        argv = ["--format", "json", "search", "--cells", "3", "--vars", "3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_search_streams_class_records(self, capsys):
        code, out, err = run(
            capsys, "--format", "json", "search", "--cells", "3", "--vars", "3"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 6
        assert err.strip() == "6 classes"
        merged = {
            frozenset(r["members"]) for r in records
        }
        assert frozenset({"2,1", "2,2/1"}) in merged

    def test_timings_only_on_request(self, capsys):
        argv = ["--format", "json", "search", "--cells", "2"]
        _, plain, _ = run(capsys, *argv)
        _, timed, _ = run(capsys, "--format", "json", "--timings", "search", "--cells", "2")
        assert all("elapsed" not in json.loads(l) for l in plain.splitlines())
        assert all("elapsed" in json.loads(l) for l in timed.splitlines())

    def test_output_dir_writes_jsonl(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "--output-dir",
            str(tmp_path),
            "staircase",
            "--n",
            "2",
        )
        assert code == 0
        sink = tmp_path / "staircase.jsonl"
        lines = sink.read_text().splitlines()
        assert len(lines) == 3  # two cases and a summary
        assert json.loads(lines[-1])["passed"] is True


class TestExitCodes:
    def test_parse_error_names_token(self, capsys):
        code, out, err = run(capsys, "bottlenecks", "5,x")
        assert code == 2 and out == ""
        assert "error: bad partition part 'x' (token 'x')" in err

    def test_degree_flag_restricted_to_grothendieck(self, capsys):
        code, _, err = run(
            capsys, "poly", "--kind", "s", "--shape", "2,1", "--degree", "5"
        )
        assert code == 2
        assert "--degree applies to kind G only" in err

    def test_bad_monomial_index(self, capsys):
        code, _, err = run(capsys, "coeff", "2,1", "--monomial", "x1^2 x0")
        assert code == 2
        assert "token 'x0'" in err

    def test_unequal_verdict_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "equal", "--kind", "g", "2,1", "3,1/1")
        assert code == 0
        assert "not equal" in out


class TestRepeatedCalls:
    def test_coeff_counts_the_coefficient_once(self, capsys, monkeypatch):
        counted = []
        real = equivalence._coefficient

        def counting(*args):
            counted.append(args)
            return real(*args)

        monkeypatch.setattr(equivalence, "_coefficient", counting)
        code, out, _ = run(capsys, "coeff", "2,2/1", "--monomial", "x1^2 x2")
        assert code == 0
        assert "two_var closed form = 1 (agrees)" in out
        assert len(counted) == 1
        counted.clear()
        code, out, _ = run(capsys, "coeff", "2,2/1", "--monomial", "x1 x2 x3")
        assert code == 0
        assert "coefficient of x1 x2 x3 in g: 2" in out
        assert "closed form" not in out
        assert len(counted) == 1

    def test_successive_calls_print_what_each_prints_alone(self, capsys):
        calls = [
            ["equal", "--kind", "g", "2,1", "2,2/1"],
            ["--format", "json", "poly", "--kind", "s", "--shape", "2,1", "--vars", "2"],
            ["poly", "--kind", "x", "--shape", "2,1"],
            ["factor", "(2,1,2,3,1)"],
            ["--format", "json", "equal", "--kind", "g", "2,1", "2,2/1"],
            ["bottlenecks", "2,1"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(skewpoly.__file__).parents[1])}
        codes = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            alone = subprocess.run(
                [sys.executable, "-m", "skewpoly.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert (code, got.out, got.err) == (
                alone.returncode,
                alone.stdout,
                alone.stderr,
            ), argv
            codes.append(code)
        assert codes == [0, 0, 2, 0, 0, 0]
