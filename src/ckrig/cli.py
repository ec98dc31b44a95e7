"""Command line front end: CSV in, fitted and complex-point statistics out.

Four commands: ``fit`` (trend coefficients and the variance factor at a real
point), ``complex-mean`` (the complex mean/variance of a sample with its
standard errors), ``zero-points`` (the covariate moments and the conjugate
zero-variance points), and ``simulate`` (seeded Monte-Carlo error moments).
Output is an aligned table by default or a single JSON document with
``--json``; diagnostics go to stderr.

Exit codes: 0 success, 2 input or parse errors (and a result that overflows
double precision), 3 degenerate mathematics.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
import warnings
from decimal import ROUND_HALF_EVEN, Context, Decimal
from math import isfinite

import numpy as np

from .kriging import (
    DegenerateDesign,
    Sample,
    TrendBasis,
    _noise_scale,
    build_design,
    feature_vector,
    gls_beta,
    kriging_weights,
    predict,
    trend_variance,
)
from .moments import DegenerateCovariates, complex_variance, zero_variance_points
from .moments import _nondegenerate_moments
from .numerics import NotPositiveDefinite
from .validation import _NOISE_KINDS, MonteCarloReport, SimulationConfig, SingularSystem, monte_carlo_mse

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

# Wide enough to quantize any finite float to one decimal: 309 integer digits plus one.
_ONE_DECIMAL = Context(prec=400, rounding=ROUND_HALF_EVEN)
_NOT_FINITE = "result is not finite; it overflows double precision"


class ParseError(ValueError):
    """CSV input failure, carrying the 1-based row and column of the offence."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"row {row}, column {col}: {message}")
        self.row = row
        self.col = col


def _parse_cell(cell: str, kind: type = float, expected: str = "a number"):
    """The one rule for text to a finite float, complex or int (``kind``).

    The ValueError says what is wrong; ``expected`` names what the text is not.
    """
    try:
        if "_" in cell:  # float(), complex() and int() read Python's digit grouping, "1_0" as 10
            raise ValueError
        value = kind(cell)
    except ValueError:
        raise ValueError(f"not {expected}: {cell!r}") from None
    # An int is finite, and cmath.isfinite would overflow on one of 309 digits or more.
    if kind is not int and not cmath.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def parse_csv(text: str) -> Sample:
    """Parse a two-column numeric CSV into a ``Sample``, skipping blank rows and a header:
    a first row with a cell that is not a float literal."""
    reader = csv.reader(io.StringIO(text))
    rows, line = [], 1
    try:
        for row in reader:
            cells = [cell.strip() for cell in row]
            if any(cells):
                rows.append((line, cells))
            # A quoted cell may span lines: the next record starts after this one's last line.
            line = reader.line_num + 1
    except csv.Error as exc:  # e.g. an unbalanced quote that runs past the field size limit
        raise ParseError(f"malformed record: {exc}", row=line, col=1) from None
    if not rows:
        raise ParseError("empty input", row=1, col=1)

    header_row, first = rows[0]
    try:
        # Only a cell that is not a float literal makes a header; "nan" is a bad data cell.
        for cell in first:
            float(cell)
    except ValueError:
        if len(first) != 2:
            raise ParseError(f"expected 2 columns, found {len(first)}", row=header_row, col=1)
        rows = rows[1:]

    xs, vs = [], []
    for number, row in rows:
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, found {len(row)}", row=number, col=1)
        pair = []
        for j, cell in enumerate(row):
            try:
                pair.append(_parse_cell(cell))
            except ValueError as exc:
                raise ParseError(str(exc), row=number, col=j + 1) from None
        xs.append(pair[0])
        vs.append(pair[1])
    if not xs:
        raise ParseError("no data rows", row=header_row + 1, col=1)
    return Sample(covariates=xs, observations=vs)


def render_one_decimal(value: float) -> str:
    """One-decimal rendering with round-half-even ties, e.g. 6.1454 -> '6.1'; finite values only."""
    if not isfinite(value):
        raise ValueError(_NOT_FINITE)
    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), context=_ONE_DECIMAL))


def _complex_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


# The branches of a conjugate pair that each ``--branch`` value reports, plus before minus.
_BRANCHES = {"plus": ("plus",), "minus": ("minus",), "both": ("plus", "minus")}


def _pair_doc(pair, branch: str) -> dict:
    return {name: _complex_doc(getattr(pair, name)) for name in _BRANCHES[branch]}


def _load_csv(path: str) -> Sample:
    # utf-8-sig drops a leading byte-order mark, which would otherwise make row 1 a header.
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_csv(handle.read())


def _load_lambda(source: str, n: int):
    if source == "identity":
        return None
    with open(source, "r", encoding="utf-8-sig") as handle:
        values = handle.read().split()
    if len(values) != n * n:
        raise ValueError(
            f"correlation file must hold {n}x{n} = {n * n} values, found {len(values)}"
        )
    try:
        return np.array([_parse_cell(v) for v in values]).reshape(n, n)
    except ValueError as exc:
        raise ValueError(f"correlation file: {exc}") from None


def cmd_fit(args) -> dict:
    _noise_scale(args.sigma2, "sigma2")
    sample = _load_csv(args.file)
    basis = TrendBasis(args.basis)
    lam = _load_lambda(args.lam, sample.n)
    design = build_design(basis, sample.covariates)
    if args.at is None:
        beta = gls_beta(design, lam, sample.observations)
    else:
        solution = kriging_weights(
            design, lam, feature_vector(basis, args.at), obs=sample.observations
        )
        beta = solution.beta_hat

    outputs = {
        "beta_hat": [float(b) for b in beta],
        "rendered": {"beta_hat": [render_one_decimal(b) for b in beta]},
    }
    if args.at is not None:
        outputs["at"] = {
            "point": float(args.at),
            "variance_factor": _complex_doc(solution.variance_factor),
            "trend_variance": _complex_doc(trend_variance(solution, args.sigma2)),
            "prediction": _complex_doc(predict(solution, sample.observations)),
        }
    return {
        "command": "fit",
        "inputs": {
            "n": sample.n,
            "basis": args.basis,
            "sigma2": float(args.sigma2),
            "lambda": "identity" if lam is None else "file",
            "at": None if args.at is None else float(args.at),
        },
        "outputs": outputs,
    }


def cmd_complex_mean(args) -> dict:
    sample = _load_csv(args.file)
    stats = complex_variance(sample)
    mom = stats.moments
    branch = args.branch

    rendered = {
        "mean_re": render_one_decimal(stats.mean.plus.real),
        "real_standard_error": render_one_decimal(stats.real_se),
        "imaginary_standard_error": render_one_decimal(stats.imag_se),
    }
    for name in _BRANCHES[branch]:
        rendered[f"mean_im_{name}"] = render_one_decimal(getattr(stats.mean, name).imag)

    return {
        "command": "complex-mean",
        "inputs": {"n": sample.n, "basis": "linear", "branch": branch},
        "outputs": {
            "index_moments": {"m_n": mom.m_n, "m_sn": mom.m_sn, "sigma_n": mom.sigma_n},
            "zero_variance_points": _pair_doc(mom.zero_variance_points, branch),
            "mean": _pair_doc(stats.mean, branch),
            "weighted_square": _pair_doc(stats.weighted_square, branch),
            "variance": _pair_doc(stats.variance, branch),
            "slope": stats.slope,
            "real_standard_error": stats.real_se,
            "imaginary_standard_error": stats.imag_se,
            "rendered": rendered,
        },
    }


def cmd_zero_points(args) -> dict:
    sample = _load_csv(args.file)
    mom = _nondegenerate_moments(sample.covariates)
    return {
        "command": "zero-points",
        "inputs": {"n": sample.n},
        "outputs": {
            "m_n": mom.m_n,
            "m_sn": mom.m_sn,
            "sigma_n": mom.sigma_n,
            "points": _pair_doc(mom.zero_variance_points, "both"),
            "rendered": {
                "m_n": render_one_decimal(mom.m_n),
                "m_sn": render_one_decimal(mom.m_sn),
                "sigma_n": render_one_decimal(mom.sigma_n),
            },
        },
    }


def cmd_simulate(args) -> dict:
    covariates = tuple(float(i) for i in range(1, args.n + 1))
    config = SimulationConfig(
        covariates=covariates,
        beta=(args.beta1, args.beta2),
        sigma=args.sigma,
        replicates=args.replicates,
        seed=args.seed,
        noise_kind=args.noise,
    )
    if args.at == "zero-variance":
        point = zero_variance_points(covariates).plus
    else:
        point = args.at
    report: MonteCarloReport = monte_carlo_mse(config, point)
    return {
        "command": "simulate",
        "inputs": {
            "n": args.n,
            "beta": [float(args.beta1), float(args.beta2)],
            "sigma": float(args.sigma),
            "replicates": args.replicates,
            "seed": args.seed,
            "noise": args.noise,
            "at": _complex_doc(point),
        },
        "outputs": {
            "mean_error_re": report.mean_error_re,
            "mean_error_im": report.mean_error_im,
            "var_re": report.var_re,
            "var_im": report.var_im,
            "cov_re_im": report.cov_re_im,
            "bilinear_mse": _complex_doc(report.bilinear_mse),
            "replicates_used": report.replicates_used,
            "rendered": {
                "var_re": render_one_decimal(report.var_re),
                "var_im": render_one_decimal(report.var_im),
            },
        },
    }


def _flag(kind: type = float, expected: str = "a number"):
    """An argparse type: ``_parse_cell`` for ``kind``, with its message as the usage error."""

    def parse(text: str):
        try:
            return _parse_cell(text, kind, expected)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_real_point = _flag(float)
_integer = _flag(int, "an integer")
_complex_point = _flag(complex, "a number or 'zero-variance'")


def _at_point(text: str):
    # 'zero-variance' is resolved per command against the covariates.
    return text if text == "zero-variance" else _complex_point(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckrig",
        description="Kriging under white noise with polynomial trends, "
        "including the complex-point mean and variance estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="trend coefficients and variance factor")
    fit.add_argument("file", help="two-column CSV of covariates and observations")
    fit.add_argument("--basis", choices=("constant", "linear"), default="linear")
    fit.add_argument("--sigma2", type=_real_point, default=1.0, help="noise variance (default 1)")
    fit.add_argument(
        "--lambda",
        dest="lam",
        default="identity",
        help="'identity' or a file with a whitespace-separated n-by-n correlation matrix",
    )
    fit.add_argument("--at", type=_real_point, default=None, help="real evaluation point")
    fit.add_argument("--json", action="store_true")
    fit.set_defaults(handler=cmd_fit)

    cmean = sub.add_parser("complex-mean", help="complex mean, variance and standard errors")
    cmean.add_argument("file")
    cmean.add_argument("--branch", choices=_BRANCHES, default="both")
    cmean.add_argument("--json", action="store_true")
    cmean.set_defaults(handler=cmd_complex_mean)

    zero = sub.add_parser("zero-points", help="covariate moments and zero-variance points")
    zero.add_argument("file")
    zero.add_argument("--json", action="store_true")
    zero.set_defaults(handler=cmd_zero_points)

    sim = sub.add_parser("simulate", help="Monte-Carlo error moments of the predictor")
    sim.add_argument("--n", type=_integer, default=11, help="sample size; covariates are 1..n")
    sim.add_argument("--beta1", type=_real_point, default=0.0, help="true intercept")
    sim.add_argument("--beta2", type=_real_point, default=0.0, help="true slope")
    sim.add_argument("--sigma", type=_real_point, default=1.0, help="noise standard deviation")
    sim.add_argument("--replicates", type=_integer, default=1000)
    sim.add_argument("--seed", type=_integer, default=0)
    sim.add_argument("--noise", choices=_NOISE_KINDS, default="gaussian")
    sim.add_argument(
        "--at",
        type=_at_point,
        default="zero-variance",
        help="evaluation point: a real/complex literal like '4.6' or '4.6+2.7j', "
        "or 'zero-variance' (default)",
    )
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(handler=cmd_simulate)

    return parser


def _emit_table(doc: dict, stream) -> None:
    lines = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(f"{prefix}.{key}" if prefix else key, value)
        elif isinstance(node, list):
            lines.append((prefix, "[" + ", ".join(_scalar_text(v) for v in node) + "]"))
        else:
            lines.append((prefix, _scalar_text(node)))

    def _scalar_text(value) -> str:
        if isinstance(value, float):
            return repr(value)
        return str(value)

    walk("", doc)
    width = max(len(key) for key, _ in lines)
    for key, value in lines:
        print(f"{key.ljust(width)}  {value}", file=stream)


def _json_text(doc: dict) -> str:
    """The document as strict JSON; a NaN or infinity anywhere in it is a ValueError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(_NOT_FINITE) from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            doc = args.handler(args)
        doc["warnings"] = [str(w.message) for w in caught]
        text = _json_text(doc)
    except (DegenerateDesign, DegenerateCovariates, NotPositiveDefinite, SingularSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for message in doc["warnings"]:
        print(f"warning: {message}", file=sys.stderr)
    if args.json:
        print(text)
    else:
        _emit_table(doc, sys.stdout)
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
