import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckrig import cli, moments
from ckrig.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, ParseError, main, parse_csv, render_one_decimal
from ckrig.kriging import Sample, TrendBasis, build_design, gls_beta
from conftest import DATA_DIR, bad_correlation, record_calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCsv:
    def test_small_with_header(self):
        data = parse_csv("x,v\n1.7,3.2\n2.1,3.9\n")
        assert data.n == 2
        assert data.covariates.tolist() == [1.7, 2.1]
        assert data.observations.tolist() == [3.2, 3.9]

    def test_headerless(self):
        data = parse_csv("1.0,2.0\n3.0,4.0\n")
        assert data.n == 2
        assert data.covariates.tolist() == [1.0, 3.0]
        assert data.observations.tolist() == [2.0, 4.0]

    def test_returns_read_only_sample(self):
        data = parse_csv("x,v\n1.7,3.2\n2.1,3.9\n")
        assert isinstance(data, Sample)
        assert not data.covariates.flags.writeable
        assert not data.observations.flags.writeable

    def test_example_file(self, example_csv_path):
        data = parse_csv(example_csv_path.read_text())
        assert data.n == 11
        assert float(np.sum(data.covariates)) == pytest.approx(50.6, rel=1e-12)

    def test_bad_cell_reports_location(self):
        with pytest.raises(ParseError, match="not a number: 'abc'") as err:
            parse_csv("x,v\n1.7,abc\n")
        assert err.value.row == 2
        assert err.value.col == 2

    def test_three_columns_rejected(self):
        with pytest.raises(ParseError):
            parse_csv("1,2,3\n")

    def test_three_cell_header_rejected(self, capsys, tmp_path):
        with pytest.raises(ParseError, match="expected 2 columns, found 3") as err:
            parse_csv("x,v,w\n1,2\n3,4\n")
        assert (err.value.row, err.value.col) == (1, 1)
        p = tmp_path / "header.csv"
        p.write_text("x,v,w\n1,2\n3,4\n")
        code, out, err_text = run_cli(capsys, "zero-points", str(p))
        assert code == EXIT_INPUT and out == ""
        assert "row 1, column 1" in err_text

    def test_missing_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_csv("x,v\n1.7,\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_csv("")

    def test_header_only(self):
        with pytest.raises(ParseError):
            parse_csv("x,v\n")

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="row 2, column 2: non-finite value 'inf'"):
            parse_csv("1.0,2.0\n3.0,inf\n")

    @pytest.mark.parametrize(
        "text",
        [
            "x,v\n1.0,2.0\n3.0,4.0\n\n",
            "x,v\n1.0,2.0\n\n3.0,4.0\n",
            "x,v\n1.0,2.0\n   \n3.0,4.0\n  \n",
        ],
        ids=["trailing", "interior", "whitespace-only"],
    )
    def test_blank_lines_skipped(self, text):
        data = parse_csv(text)
        assert data.n == 2
        assert data.covariates.tolist() == [1.0, 3.0]
        assert data.observations.tolist() == [2.0, 4.0]

    def test_error_row_counts_blank_lines(self):
        with pytest.raises(ParseError) as err:
            parse_csv("\nx,v\n1.0,2.0\n\n3.0,abc\n")
        assert (err.value.row, err.value.col) == (5, 2)
        with pytest.raises(ParseError) as err:
            parse_csv("x,v\n\n")
        assert err.value.row == 2

    def test_error_row_counts_multiline_cells(self):
        # A quoted cell spanning two lines: the error is on file line 4, record 3.
        with pytest.raises(ParseError) as err:
            parse_csv('x,v\n"1\n",2\n3,abc\n')
        assert (err.value.row, err.value.col) == (4, 2)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_first_row_is_not_a_header(self, cell):
        with pytest.raises(ParseError) as err:
            parse_csv(f"{cell},1\n2,3\n4,5\n")
        assert (err.value.row, err.value.col) == (1, 1)

    def test_row_order_preserved(self):
        data = parse_csv("9,1\n1,9\n5,5\n")
        assert data.covariates.tolist() == [9.0, 1.0, 5.0]
        assert data.observations.tolist() == [1.0, 9.0, 5.0]


class TestRendering:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (6.145454545454546, "6.1"),
            (0.5313888922162827, "0.5"),
            (0.21609521591748287, "0.2"),
            (-0.21609521591748287, "-0.2"),
            (0.25, "0.2"),   # half-even: ties go to the even digit
            (0.35, "0.4"),
            (2.0, "2.0"),
            # Past the default 28-digit context: exact integer digits, one decimal.
            (1e27, "1" + "0" * 27 + ".0"),
            (-1e27, "-1" + "0" * 27 + ".0"),
            (1.5e300, "15" + "0" * 299 + ".0"),
            (5e-324, "0.0"),
        ],
    )
    def test_round_half_even(self, value, expected):
        assert render_one_decimal(value) == expected


class TestFitCommand:
    def test_constant_example(self, capsys, example_csv_path):
        code, out, _ = run_cli(capsys, "fit", str(example_csv_path), "--basis", "constant", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["outputs"]["beta_hat"][0] == pytest.approx(6.145454545454546, rel=1e-12)
        assert doc["outputs"]["rendered"]["beta_hat"] == ["6.1"]

    def test_linear_example(self, capsys, example_csv_path, example_oracle):
        code, out, _ = run_cli(capsys, "fit", str(example_csv_path), "--basis", "linear", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        beta = doc["outputs"]["beta_hat"]
        assert beta[0] == pytest.approx(example_oracle["b_hat"], rel=1e-10)
        assert beta[1] == pytest.approx(example_oracle["a_hat"], rel=1e-10)

    def test_at_point(self, capsys, example_csv_path):
        code, out, _ = run_cli(
            capsys, "fit", str(example_csv_path), "--basis", "linear", "--at", "4.6", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        at = doc["outputs"]["at"]
        assert at["variance_factor"]["re"] == pytest.approx(1.0 / 11.0, rel=1e-10)
        assert at["prediction"]["re"] == pytest.approx(6.145454545454546, rel=1e-10)

    def test_single_row_linear_degenerate(self, capsys, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("x,v\n1.0,2.0\n")
        code, out, err = run_cli(capsys, "fit", str(p), "--basis", "linear")
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense-lambda"])
    def test_at_point_beta_matches_gls_beta_exactly(self, capsys, example_csv_path, tmp_path, dense):
        data = parse_csv(example_csv_path.read_text())
        lam, argv = None, []
        if dense:
            x = data.covariates
            lam = np.exp(-np.abs(x[:, None] - x[None, :]) / 2.0)
            lam_file = tmp_path / "lam.txt"
            lam_file.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in lam))
            argv = ["--lambda", str(lam_file)]
        code, out, _ = run_cli(
            capsys, "fit", str(example_csv_path), "--basis", "linear", "--at", "4.6", "--json", *argv
        )
        assert code == EXIT_OK
        expected = gls_beta(build_design(TrendBasis.linear(), data.covariates), lam, data.observations)
        assert json.loads(out)["outputs"]["beta_hat"] == [float(b) for b in expected]

    def test_overflowing_gram_exits_3(self, capsys, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("x,v\n1e160,1.0\n2e160,2.0\n3e160,3.0\n")
        code, out, _ = run_cli(capsys, "fit", str(p), "--basis", "linear")
        assert code == EXIT_DEGENERATE
        assert out == ""

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "fit", "no-such-file.csv")
        assert code == EXIT_INPUT
        assert out == ""

    def test_non_finite_first_row_exits_2(self, capsys, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("nan,1\n2,3\n4,5\n6,7\n")
        code, out, err = run_cli(capsys, "fit", str(p))
        assert code == EXIT_INPUT
        assert out == ""
        assert "row 1" in err

    def test_parse_error_exit(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,v\n1.7,abc\n")
        code, _, err = run_cli(capsys, "fit", str(p))
        assert code == EXIT_INPUT
        assert "row 2" in err

    @pytest.mark.parametrize("rows", [200, 20_000])
    def test_unbalanced_quote_exits_2(self, capsys, tmp_path, rows):
        # In a long file the open quote runs past csv's field size limit (131072 characters), and
        # the reader raises csv.Error at the record that starts on row 4.
        lines = ["x,v", *(f"{i}.0,{i}.5" for i in range(rows))]
        lines[3] = '"' + lines[3]
        p = tmp_path / "quote.csv"
        p.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "complex-mean", str(p), "--json")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: row 4, column 1: ")

    def test_lambda_identity_file_matches_default(self, capsys, example_csv_path, tmp_path):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text("\n".join(" ".join(str(float(i == j)) for j in range(11)) for i in range(11)))
        code, out_default, _ = run_cli(capsys, "fit", str(example_csv_path), "--json")
        code2, out_file, _ = run_cli(
            capsys, "fit", str(example_csv_path), "--lambda", str(lam_file), "--json"
        )
        assert code == code2 == EXIT_OK
        a = json.loads(out_default)["outputs"]["beta_hat"]
        b = json.loads(out_file)["outputs"]["beta_hat"]
        assert a == pytest.approx(b, rel=1e-12)

    def test_lambda_not_spd_exits_3(self, capsys, example_csv_path, tmp_path):
        lam_file = tmp_path / "lam.txt"
        # unit diagonal, but the off-diagonal 1.0 pair makes it singular
        rows = np.eye(11)
        rows[0, 1] = rows[1, 0] = 1.0
        lam_file.write_text("\n".join(" ".join(str(v) for v in row) for row in rows))
        code, _, _ = run_cli(capsys, "fit", str(example_csv_path), "--lambda", str(lam_file))
        assert code == EXIT_DEGENERATE

    def test_lambda_wrong_count_exits_2(self, capsys, example_csv_path, tmp_path):
        lam_file = tmp_path / "lam.txt"
        lam_file.write_text("1.0 0.0 0.0 1.0")
        code, _, _ = run_cli(capsys, "fit", str(example_csv_path), "--lambda", str(lam_file))
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("kind", ["asymmetric", "nan", "non-unit-diagonal"])
    def test_lambda_bad_matrix_exits_2(self, capsys, example_csv_path, tmp_path, kind):
        lam_file = tmp_path / "lam.txt"
        rows = bad_correlation(kind, 11)
        lam_file.write_text("\n".join(" ".join(str(v) for v in row) for row in rows))
        code, out, err = run_cli(capsys, "fit", str(example_csv_path), "--lambda", str(lam_file))
        assert code == EXIT_INPUT
        assert out == ""
        assert "error" in err

    def test_gram_warning_lands_in_document_and_stderr(self, capsys, tmp_path):
        p = tmp_path / "narrow.csv"
        p.write_text("x,v\n1000.0,1.0\n1000.1,2.0\n1000.2,3.0\n")
        code, out, err = run_cli(
            capsys, "fit", str(p), "--basis", "linear", "--at", "1000.1", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        # Λ is whitened once, so the Gram warning is reported once.
        assert len(doc["warnings"]) == 1
        assert "condition" in doc["warnings"][0]
        assert err.count("condition") == 1


class TestNumericInputRules:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "FILE", "--sigma2", "nan"],
            ["fit", "FILE", "--sigma2", "inf"],
            ["fit", "FILE", "--at", "nan"],
            ["simulate", "--beta1", "nan"],
            ["simulate", "--beta2", "inf"],
            ["simulate", "--sigma", "nan"],
        ],
    )
    def test_non_finite_flag_exits_2(self, capsys, example_csv_path, argv):
        argv = [str(example_csv_path) if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_INPUT
        assert f"non-finite value '{argv[-1]}'" in capsys.readouterr().err

    # float() and complex() read Python's digit grouping, "1_0" as 10; no input may.
    @pytest.mark.parametrize(
        "csv,row,col,cell",
        [("1_0,2\n2,3\n3,5\n", 1, 1, "1_0"), ("x,v\n1,2\n2,3_0\n3,5\n", 3, 2, "3_0")],
        ids=["first-cell", "after-header"],
    )
    def test_digit_grouping_in_csv_exits_2(self, capsys, tmp_path, csv, row, col, cell):
        p = tmp_path / "grouped.csv"
        p.write_text(csv)
        code, out, err = run_cli(capsys, "zero-points", str(p), "--json")
        assert code == EXIT_INPUT
        assert out == ""
        assert f"row {row}, column {col}: not a number: '{cell}'" in err

    def test_digit_grouping_in_lambda_exits_2(self, capsys, example_csv_path, tmp_path):
        lam_file = tmp_path / "lam.txt"
        cells = [["1_0" if i == j == 5 else str(float(i == j)) for j in range(11)] for i in range(11)]
        lam_file.write_text("\n".join(" ".join(row) for row in cells))
        code, out, err = run_cli(capsys, "fit", str(example_csv_path), "--lambda", str(lam_file))
        assert code == EXIT_INPUT
        assert out == ""
        assert "correlation file: not a number: '1_0'" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "FILE", "--sigma2", "1_0"], "not a number: '1_0'"),
            (["simulate", "--at", "1_0"], "not a number or 'zero-variance': '1_0'"),
            (["simulate", "--at", "6+3_1j"], "not a number or 'zero-variance': '6+3_1j'"),
            (["simulate", "--n", "1_000"], "not an integer: '1_000'"),
            (["simulate", "--replicates", "1_000"], "not an integer: '1_000'"),
            (["simulate", "--seed", "1_000"], "not an integer: '1_000'"),
        ],
        ids=[
            "fit-sigma2",
            "simulate-at",
            "simulate-at-complex",
            "simulate-n",
            "simulate-replicates",
            "simulate-seed",
        ],
    )
    def test_digit_grouping_in_flag_exits_2(self, capsys, example_csv_path, argv, message):
        argv = [str(example_csv_path) if a == "FILE" else a for a in argv]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["2.5", "1e5"])
    @pytest.mark.parametrize("flag", ["--n", "--replicates", "--seed"])
    def test_non_integer_in_integer_flag_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["simulate", flag, value])
        assert err.value.code == EXIT_INPUT
        assert f"not an integer: '{value}'" in capsys.readouterr().err

    def test_integer_flag_of_400_digits_parses(self):
        # An int is never checked for finiteness, which would overflow a float.
        args = cli.build_parser().parse_args(["simulate", "--replicates", "1" + "0" * 400])
        assert args.replicates == 10**400

    @pytest.mark.parametrize("at", [[], ["--at", "4.6"]], ids=["no-at", "at"])
    def test_negative_sigma2_exits_2(self, capsys, example_csv_path, at):
        code, out, err = run_cli(capsys, "fit", str(example_csv_path), "--sigma2", "-1", *at)
        assert code == EXIT_INPUT
        assert out == ""
        assert "sigma2 must be finite and non-negative" in err

    @pytest.mark.parametrize("command", ["fit", "complex-mean"])
    def test_unix_timestamp_covariates_fit(self, capsys, tmp_path, command):
        # Eleven daily timestamps: the Gram matrix is badly scaled but not degenerate.
        p = tmp_path / "daily.csv"
        p.write_text("".join(f"{1.7e9 + 86400 * i!r},{2.0 + 0.5 * i!r}\n" for i in range(11)))
        code, out, err = run_cli(capsys, command, str(p), "--json")
        assert code == EXIT_OK
        assert "condition" in err
        if command == "fit":
            assert json.loads(out)["outputs"]["beta_hat"][1] == pytest.approx(0.5 / 86400, rel=1e-7)

    @pytest.mark.parametrize(
        "command,csv",
        [
            ("fit", "1,1e27\n2,2e27\n3,4e27\n"),
            ("complex-mean", "1,1e27\n2,2e27\n3,4e27\n"),
            ("zero-points", "1e27,1\n2e27,2\n3e27,3\n"),
        ],
    )
    def test_huge_finite_values_render(self, capsys, tmp_path, command, csv):
        p = tmp_path / "huge.csv"
        p.write_text(csv)
        code, out, _ = run_cli(capsys, command, str(p), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["outputs"]["rendered"]

    @pytest.mark.parametrize("command", ["zero-points", "complex-mean"])
    @pytest.mark.parametrize(
        "csv", ["1e200,1\n2e200,2\n", "-2e154,1\n0,2\n2e154,3\n"], ids=["nan", "inf"]
    )
    def test_overflowing_moments_exit_3(self, capsys, tmp_path, command, csv):
        p = tmp_path / "overflow.csv"
        p.write_text(csv)
        code, out, err = run_cli(capsys, command, str(p))
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "no finite spread" in err


class TestNonFiniteResults:
    """A result past double precision is an input error (exit 2), never NaN/Infinity or a crash."""

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "table"])
    @pytest.mark.parametrize(
        "argv,csv",
        [
            (["fit", "FILE", "--at", "1e160"], None),
            (["complex-mean", "FILE"], "1,1e300\n2,-1e300\n3,1e300\n"),
            (["simulate", "--sigma", "1e300", "--replicates", "10"], None),
        ],
        ids=["fit-at", "complex-mean", "simulate"],
    )
    def test_overflowing_result_exits_2(self, capsys, example_csv_path, tmp_path, argv, csv, fmt):
        path = example_csv_path
        if csv is not None:
            path = tmp_path / "overflow.csv"
            path.write_text(csv)
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, *fmt)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == ["error: result is not finite; it overflows double precision"]

    @pytest.mark.parametrize("fmt", [["--json"], []], ids=["json", "table"])
    @pytest.mark.parametrize("noise", ["gaussian", "uniform"])
    def test_overflowing_noise_exits_2(self, capsys, noise, fmt):
        # At this σ the uniform range 2σ√3 overflows, where numpy's Generator.uniform raises.
        argv = ["simulate", "--noise", noise, "--sigma", "6e307", "--replicates", "100", *fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.splitlines() == ["error: result is not finite; it overflows double precision"]

    def test_rendering_rejects_non_finite(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="not finite"):
                render_one_decimal(value)


class TestByteOrderMark:
    @pytest.mark.parametrize("header", [False, True], ids=["headerless", "header"])
    def test_bom_csv_matches_plain(self, capsys, example_csv_path, tmp_path, header):
        rows = [line for line in example_csv_path.read_text().splitlines() if line.strip()]
        if not header:
            rows = rows[1:]
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + "\n".join(rows) + "\n", encoding="utf-8")
        _, plain, _ = run_cli(capsys, "fit", str(example_csv_path), "--json")
        code, out, _ = run_cli(capsys, "fit", str(bom), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["n"] == 11
        assert out == plain

    def test_bom_lambda_file_accepted(self, capsys, example_csv_path, tmp_path):
        lam_file = tmp_path / "lam.txt"
        identity = "\n".join(" ".join(str(float(i == j)) for j in range(11)) for i in range(11))
        lam_file.write_text("\ufeff" + identity, encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", str(example_csv_path), "--lambda", str(lam_file), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["inputs"]["lambda"] == "file"


class TestComplexMeanCommand:
    def test_example_rendered_values(self, capsys, example_csv_path):
        code, out, _ = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        rendered = doc["outputs"]["rendered"]
        assert rendered["mean_re"] == "6.1"
        assert rendered["real_standard_error"] == "0.5"
        assert rendered["imaginary_standard_error"] == "0.2"
        assert rendered["mean_im_plus"] == "-0.2"
        assert rendered["mean_im_minus"] == "0.2"

    def test_example_full_precision(self, capsys, example_csv_path, example_oracle):
        _, out, _ = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        doc = json.loads(out)
        mean_plus = doc["outputs"]["mean"]["plus"]
        assert mean_plus["re"] == pytest.approx(example_oracle["mean_plus"].real, abs=1e-10)
        assert mean_plus["im"] == pytest.approx(example_oracle["mean_plus"].imag, abs=1e-10)
        var_plus = doc["outputs"]["variance"]["plus"]
        assert var_plus["re"] == pytest.approx(example_oracle["var_plus"].real, abs=1e-10)
        assert var_plus["im"] == pytest.approx(example_oracle["var_plus"].imag, abs=1e-10)

    def test_branch_filter(self, capsys, example_csv_path):
        _, out, _ = run_cli(capsys, "complex-mean", str(example_csv_path), "--branch", "plus", "--json")
        doc = json.loads(out)
        assert "plus" in doc["outputs"]["mean"]
        assert "minus" not in doc["outputs"]["mean"]
        assert "mean_im_minus" not in doc["outputs"]["rendered"]

    def test_constant_observations(self, capsys, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("x,v\n1.0,4.0\n2.0,4.0\n3.0,4.0\n")
        code, out, _ = run_cli(capsys, "complex-mean", str(p), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["outputs"]["mean"]["plus"]["re"] == pytest.approx(4.0, rel=1e-14)
        assert doc["outputs"]["real_standard_error"] == 0.0
        assert abs(doc["outputs"]["imaginary_standard_error"]) <= 1e-14

    def test_constant_covariates_degenerate(self, capsys, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("x,v\n2.0,1.0\n2.0,5.0\n")
        code, out, err = run_cli(capsys, "complex-mean", str(p))
        assert code == EXIT_DEGENERATE
        assert out == ""

    @pytest.mark.blas_bits
    def test_golden_file_byte_identical(self, capsys, example_csv_path):
        code, out, err = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        assert code == EXIT_OK
        golden = (DATA_DIR / "complex_mean_golden.json").read_text()
        assert out == golden

    def test_one_moment_pass(self, capsys, example_csv_path, monkeypatch):
        calls = record_calls(monkeypatch, moments, "index_moments", lambda covariates: 1)
        code, _, _ = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_json_purity(self, capsys, example_csv_path):
        _, out, err = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        json.loads(out)  # exactly one parseable document
        assert err == ""

    def test_json_round_trips_losslessly(self, capsys, example_csv_path):
        _, out, _ = run_cli(capsys, "complex-mean", str(example_csv_path), "--json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestZeroPointsCommand:
    def test_example(self, capsys, example_csv_path, example_oracle):
        code, out, _ = run_cli(capsys, "zero-points", str(example_csv_path), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["outputs"]["points"]["plus"]["re"] == pytest.approx(4.6, rel=1e-14)
        assert doc["outputs"]["points"]["plus"]["im"] == pytest.approx(
            example_oracle["sigma_n"], rel=1e-12
        )

    def test_integer_indices(self, capsys, tmp_path):
        p = tmp_path / "idx.csv"
        p.write_text("".join(f"{i},0.0\n" for i in range(1, 12)))
        _, out, _ = run_cli(capsys, "zero-points", str(p), "--json")
        doc = json.loads(out)
        assert doc["outputs"]["m_n"] == pytest.approx(6.0, rel=1e-15)
        assert doc["outputs"]["points"]["minus"]["im"] == pytest.approx(-np.sqrt(10.0), rel=1e-14)

    def test_two_equal_covariates_degenerate(self, capsys, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("3.0,1.0\n3.0,2.0\n")
        code, _, _ = run_cli(capsys, "zero-points", str(p))
        assert code == EXIT_DEGENERATE

    @pytest.mark.parametrize("x", [3.0, 0.5])
    def test_nearly_equal_covariates_degenerate(self, capsys, tmp_path, x):
        # Two copies of x and the next float above it: a spread of one ulp.
        p = tmp_path / "near.csv"
        p.write_text(f"{x!r},1\n{x!r},2\n{float(np.nextafter(x, 2 * x))!r},3\n")
        code, out, err = run_cli(capsys, "zero-points", str(p))
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "no finite spread" in err

    @pytest.mark.parametrize("command", ["zero-points", "complex-mean"])
    def test_equal_covariates_with_roundoff_spread_degenerate(self, capsys, tmp_path, command):
        # The one-pass σ_n of three copies of this value is 1.08e-5, not 0.
        p = tmp_path / "flat.csv"
        p.write_text("".join(f"954.5621324381254,{v}\n" for v in (1.0, 2.0, 3.0)))
        code, out, err = run_cli(capsys, command, str(p))
        assert code == EXIT_DEGENERATE
        assert out == ""
        assert "no finite spread" in err

    def test_one_moment_pass(self, capsys, example_csv_path, monkeypatch):
        calls = record_calls(monkeypatch, moments, "index_moments", lambda covariates: 1)
        code, _, _ = run_cli(capsys, "zero-points", str(example_csv_path), "--json")
        assert code == EXIT_OK
        assert len(calls) == 1


class TestSimulateCommand:
    def test_zero_sigma_zero_moments(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "11", "--sigma", "0", "--replicates", "100", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["outputs"]["var_re"] == 0.0
        assert doc["outputs"]["var_im"] == 0.0
        assert doc["outputs"]["bilinear_mse"] == {"re": 0.0, "im": 0.0}

    def test_same_seed_byte_identical(self, capsys):
        argv = ["simulate", "--n", "11", "--sigma", "1", "--replicates", "500", "--seed", "42", "--json"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_at_literal_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "11", "--sigma", "0.5", "--replicates", "200",
            "--at", "6+3.1622776601683795j", "--json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["inputs"]["at"]["im"] == pytest.approx(np.sqrt(10.0), rel=1e-12)

    def test_default_at_is_zero_variance(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--n", "11", "--replicates", "10", "--json")
        doc = json.loads(out)
        assert doc["inputs"]["at"]["re"] == pytest.approx(6.0, rel=1e-14)
        assert doc["inputs"]["at"]["im"] == pytest.approx(np.sqrt(10.0), rel=1e-14)

    def test_invalid_at_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--at", "sideways"])
        assert err.value.code == EXIT_INPUT

    def test_invalid_replicates_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--replicates", "0")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_exits_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "simulate", "--replicates", "10", "--seed", seed)
        assert code == EXIT_INPUT
        assert out == "" and "seed must be" in err

    def test_unallocatable_replicates_exits_2(self, capsys):
        # 10^17 errors, two float64 columns each, take 1.39 EiB, beyond any 64-bit address
        # space, so the allocation fails at once on every host.
        code, out, err = run_cli(capsys, "simulate", "--replicates", str(10**17))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("replicates", [10**19, 10**400], ids=["above-int64", "400-digits"])
    def test_replicates_beyond_any_array_shape_exits_2(self, capsys, replicates):
        code, out, err = run_cli(capsys, "simulate", "--replicates", str(replicates))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_INPUT


def test_table_output_is_aligned(capsys, example_csv_path):
    code, out, _ = run_cli(capsys, "zero-points", str(example_csv_path))
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line]
    # two-column layout: every value starts at the same offset
    matches = [re.match(r"^(\S+)( +)\S", line) for line in lines]
    assert all(matches)
    offsets = {len(m.group(1)) + len(m.group(2)) for m in matches}
    assert len(offsets) == 1


def _identity_lambda_file(path, n):
    path.write_text("\n".join(" ".join(str(float(i == j)) for j in range(n)) for i in range(n)))
    return path


def _run_fresh(*argv):
    """Run ``python *argv`` in a fresh interpreter with this tree's ``src`` on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


@pytest.mark.blas_bits
def test_exit_codes_at_the_process_boundary(example_csv_path, tmp_path):
    # ``python -m ckrig.cli`` turns main's return value into the process's exit status.
    proc = _run_fresh("-m", "ckrig.cli", "complex-mean", str(example_csv_path), "--json")
    assert proc.returncode == EXIT_OK
    assert proc.stdout == (DATA_DIR / "complex_mean_golden.json").read_bytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("x,v\n1.0,abc\n2.0,2.0\n")
    assert _run_fresh("-m", "ckrig.cli", "complex-mean", str(bad), "--json").returncode == EXIT_INPUT
    equal = tmp_path / "equal.csv"
    equal.write_text("x,v\n2.0,1.0\n2.0,2.0\n2.0,3.0\n")
    assert _run_fresh("-m", "ckrig.cli", "complex-mean", str(equal), "--json").returncode == EXIT_DEGENERATE


# Runs in a fresh interpreter: after ``import ckrig`` and after each command, with FILE, LAM,
# BIG_FILE and BIG_LAM replaced by the first four arguments, records which heavy modules are loaded.
_PROBE = """
import contextlib, io, json, sys
import ckrig
def loaded():
    return {name: name in sys.modules for name in ("scipy", "hashlib", "concurrent.futures")}
record = {"import ckrig": loaded()}
from ckrig.cli import main
paths = dict(zip(("FILE", "LAM", "BIG_FILE", "BIG_LAM"), sys.argv[1:5]))
for command in sys.argv[5:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([paths.get(arg, arg) for arg in command.split()])
    record[command] = {"exit": code, **loaded()}
print(json.dumps(record))
"""

# The order carries the checks: any simulate loads hashlib, and scipy.linalg.lapack loads concurrent.futures.
_PROBE_COMMANDS = (
    "fit FILE --at 4.6 --lambda LAM",
    "zero-points FILE",
    "complex-mean FILE --json",
    "fit FILE --at 4.6",
    "simulate --replicates 10",
    "simulate --replicates 1000",
    "simulate --replicates 10000",
    "fit BIG_FILE --at 4.6 --lambda BIG_LAM",
)


@pytest.fixture(scope="module")
def probe_record(tmp_path_factory):
    """``_PROBE``'s record of ``_PROBE_COMMANDS``, from one fresh interpreter per module."""
    tmp = tmp_path_factory.mktemp("probe")
    lam_file = _identity_lambda_file(tmp / "lam.txt", 11)
    # One order above numerics._SMALL_ORDER's bound of 64, so the last run must reach LAPACK.
    big_csv = tmp / "big.csv"
    big_csv.write_text("".join(f"{i / 10!r},{(i * 7) % 13!r}\n" for i in range(100)))
    big_lam = _identity_lambda_file(tmp / "big_lam.txt", 100)
    paths = (DATA_DIR / "example.csv", lam_file, big_csv, big_lam)
    proc = _run_fresh("-c", _PROBE, *map(str, paths), *_PROBE_COMMANDS)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(record, command, *modules):
    """``command``'s exit code in the probe's record, then whether each of ``modules`` was loaded."""
    return [record[command]["exit"], *(record[command][name] for name in modules)]


def test_scipy_imported_only_for_order_n_solves(probe_record):
    assert probe_record["import ckrig"]["scipy"] is False
    expected = {
        "zero-points FILE": [EXIT_OK, False],
        "complex-mean FILE --json": [EXIT_OK, False],
        "fit FILE --at 4.6": [EXIT_OK, False],
        "simulate --replicates 10": [EXIT_OK, False],
        # An 11×11 Λ is factored in numpy; only a Λ of order above 64 loads scipy.
        "fit FILE --at 4.6 --lambda LAM": [EXIT_OK, False],
        "fit BIG_FILE --at 4.6 --lambda BIG_LAM": [EXIT_OK, True],
    }
    assert {command: _loaded(probe_record, command, "scipy") for command in expected} == expected


def test_one_shot_dense_fit_loads_neither_scipy_nor_hashlib(probe_record):
    # One whitening per process: the kept-Λ⁻¹F slot copies Λ and never digests it.  The fit is the
    # probe's first command, so its whitening is the process's only one when it is recorded.
    assert list(probe_record)[1] == "fit FILE --at 4.6 --lambda LAM"
    assert _loaded(probe_record, "fit FILE --at 4.6 --lambda LAM", "scipy", "hashlib") == [EXIT_OK, False, False]


def test_one_block_simulate_loads_no_thread_pool(probe_record):
    # A run of one block is filled inline: the thread pool and its imports are for longer runs.
    assert _loaded(probe_record, "simulate --replicates 1000", "concurrent.futures") == [EXIT_OK, False]


def test_multi_block_simulate_loads_no_executor(probe_record):
    # The blocks of a longer run (three here) are filled by plain threads, with no executor behind them.
    assert _loaded(probe_record, "simulate --replicates 10000", "concurrent.futures") == [EXIT_OK, False]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _reject_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def _optional_flags(data, *flags):
    return [f"{flag}={data.draw(_FINITE)!r}" for flag in flags if data.draw(st.booleans())]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_output_contract(tmp_path_factory, data):
    """Any finite input: exit 0, 2 or 3 and no escaping exception; exit 0 prints strict JSON."""
    command = data.draw(st.sampled_from(("fit", "complex-mean", "zero-points", "simulate")))
    if command == "simulate":
        argv = [command, f"--replicates={data.draw(st.integers(1, 50))}"]
        argv += _optional_flags(data, "--sigma", "--beta1", "--beta2")
        if data.draw(st.booleans()):
            argv.append(f"--at={complex(data.draw(_FINITE), data.draw(_FINITE))!r}")
    else:
        rows = data.draw(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=12))
        path = tmp_path_factory.getbasetemp() / "contract.csv"
        path.write_text("".join(f"{x!r},{v!r}\n" for x, v in rows))
        argv = [command, str(path)]
        if command == "fit":
            argv.append(f"--basis={data.draw(st.sampled_from(('constant', 'linear')))}")
            argv += _optional_flags(data, "--at", "--sigma2")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json"])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE)
    if code == EXIT_OK:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error: ")
