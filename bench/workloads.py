"""One workload process: set up, run timed operations until its budget is spent.

Run by ``run.py`` as ``python bench/workloads.py <workload> --seed S
--budget B --start I --trace 0|1 --work-dir D [--setup-only]``; it writes
``result.json`` into the work directory.  With ``--setup-only`` it stops
where the first operation would start.  Every operation is timed on its
own and then checked, untimed, against an independent reference; an
operation that raises or fails its check counts as failed and its time is
dropped.

The workloads are closed loops with one client: one call (or one ckrig
child process) at a time.  ``--start`` is the number of operations earlier
workload processes of the same run made, so mixes continue across them.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import refs
from tracer import Tracer, read_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_CSV = ROOT / "tests" / "data" / "example.csv"
GOLDEN_JSON = ROOT / "tests" / "data" / "complex_mean_golden.json"

MC_REPLICATES = 100_000
MC_COVARIATES = tuple(float(i) for i in range(1, 12))
MC_BETA = (1.0, 0.5)
MC_NOISE = ("gaussian", "uniform")
WHITE_SAMPLES = 4
WHITE_SIZES = (11, 100_000)
# Real grid points per sample, and as many complex points.  At n=11 one
# point takes ~0.3 ms, so a longer operation keeps its tail out of the
# scheduler's noise.
WHITE_POINTS = {11: 64, 100_000: 8}
WHITE_CHECKED = 2  # points per operation checked against the reference
KKT_MAX_N = 2000  # kkt_solve factors a dense (n + 2)-square system
DENSE_SAMPLES = 2
DENSE_POINTS = 4
DENSE_N = 2000


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cli_inputs(seed, work_dir):
    """Example data, a seeded Λ file for it, and the command mix (name, arguments)."""
    with open(EXAMPLE_CSV, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    x = [float(r[0]) for r in rows]
    v = [float(r[1]) for r in rows]
    rng = _seed_stream(seed, 10)
    lam, _ = refs.exp_correlation(np.array(x), 0.5 + 2.5 * rng.random())
    lam_file = work_dir / "lambda.txt"
    lam_file.write_text("\n".join(" ".join(map(repr, row)) for row in lam.tolist()) + "\n", encoding="utf-8")
    sim_seed = rng.randrange(2**31)
    csv_path = str(EXAMPLE_CSV)
    mix = [
        ("zero-points", ["zero-points", csv_path, "--json"]),
        ("complex-mean-json", ["complex-mean", csv_path, "--json"]),
        ("complex-mean-table", ["complex-mean", csv_path]),
        ("fit", ["fit", csv_path, "--at", "4.6", "--json"]),
        ("fit-lambda", ["fit", csv_path, "--lambda", str(lam_file), "--at", "4.6", "--json"]),
        ("simulate", ["simulate", "--replicates", "1000", "--seed", str(sim_seed), "--json"]),
    ]
    return x, v, lam, sim_seed, mix


class CliExample:
    """``python -m ckrig.cli`` on tests/data/example.csv, cycling a fixed command mix."""

    def __init__(self, seed, start, work_dir):
        self.seed, self.start, self.work_dir = seed, start, work_dir
        self.env = cli_env()
        self.spans_file = work_dir / "cli-spans.txt"
        self.tracer = None  # set for a traced run: spans come from the ckrig child processes
        self._expected = {}

    def setup(self):
        self.x, self.v, self.lam, self.sim_seed, self.mix = cli_inputs(self.seed, self.work_dir)
        self._call(self.mix[0][1])  # untimed warm-up call

    def _call(self, args):
        if self.tracer is not None:
            argv = [sys.executable, str(Path(__file__).parent / "traced_cli.py"), str(self.spans_file)]
        else:
            argv = [sys.executable, "-m", "ckrig.cli"]
        return subprocess.run(
            argv + args, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )

    def kernel(self):
        _interp_kernel()

    def kind(self, i):
        return self.mix[(self.start + i) % len(self.mix)][0]

    def op(self, i):
        return self._call(self.mix[(self.start + i) % len(self.mix)][1])

    def work(self, i):
        return 1

    def check(self, i, proc):
        if self.tracer is not None:
            self.tracer.graft(read_spans(self.spans_file))
        if proc.returncode != 0 or proc.stderr:
            return False
        kind = self.kind(i)
        if kind == "complex-mean-json":
            return proc.stdout == GOLDEN_JSON.read_text(encoding="utf-8")
        if kind == "complex-mean-table":
            return _table_matches(proc.stdout, json.loads(GOLDEN_JSON.read_text(encoding="utf-8")))
        if kind not in self._expected:
            self._expected[kind] = self._reference(kind)
        doc = json.loads(proc.stdout)
        outputs = {key: doc["outputs"][key] for key in self._expected[kind]}
        return outputs == self._expected[kind] and doc["warnings"] == []

    def _reference(self, kind):
        """The CLI's numeric outputs, recomputed in process from the library."""
        from ckrig import kriging, moments, validation

        x, v = np.array(self.x), np.array(self.v)
        if kind == "zero-points":
            mom = moments.index_moments(x)
            points = moments.zero_variance_points(x)
            return {
                "m_n": mom.m_n,
                "m_sn": mom.m_sn,
                "sigma_n": mom.sigma_n,
                "points": {"plus": _cdoc(points.plus), "minus": _cdoc(points.minus)},
            }
        if kind in ("fit", "fit-lambda"):
            lam = None if kind == "fit" else self.lam
            basis = kriging.TrendBasis.linear()
            design = kriging.build_design(basis, x)
            solution = kriging.kriging_weights(design, lam, kriging.feature_vector(basis, 4.6))
            return {
                "beta_hat": [float(b) for b in kriging.gls_beta(design, lam, v)],
                "at": {
                    "point": 4.6,
                    "variance_factor": _cdoc(solution.variance_factor),
                    "trend_variance": _cdoc(kriging.trend_variance(solution, 1.0)),
                    "prediction": _cdoc(kriging.predict(solution, v)),
                },
            }
        config = validation.SimulationConfig(
            covariates=MC_COVARIATES, beta=(0.0, 0.0), sigma=1.0,
            replicates=1000, seed=self.sim_seed, noise_kind="gaussian",
        )
        report = validation.monte_carlo_mse(config, moments.zero_variance_points(config.covariates).plus)
        return {
            "var_re": report.var_re,
            "var_im": report.var_im,
            "cov_re_im": report.cov_re_im,
            "bilinear_mse": _cdoc(report.bilinear_mse),
            "replicates_used": 1000,
        }


class McAcceptance:
    """``monte_carlo_mse`` on the acceptance configuration, alternating noise kinds."""

    def __init__(self, seed, start, work_dir):
        self.seed, self.start = seed, start
        self.reports = []

    def setup(self):
        from ckrig import moments, validation

        self.validation = validation
        self.point = moments.zero_variance_points(MC_COVARIATES).plus
        self.mc_seed = _seed_stream(self.seed, 20).randrange(2**31)
        validation.monte_carlo_mse(self._config("gaussian", 200), self.point)  # warm-up

    def _config(self, kind, replicates=MC_REPLICATES):
        return self.validation.SimulationConfig(
            covariates=MC_COVARIATES, beta=MC_BETA, sigma=1.0,
            replicates=replicates, seed=self.mc_seed, noise_kind=kind,
        )

    def kernel(self):
        _interp_kernel()

    def kind(self, i):
        return MC_NOISE[(self.start + i) % 2]

    def op(self, i):
        return self.validation.monte_carlo_mse(self._config(self.kind(i)), self.point)

    def work(self, i):
        return MC_REPLICATES

    def check(self, i, report):
        # The acceptance bounds of tests/test_acceptance.py.
        target = 1.0 / len(MC_COVARIATES)
        doc = {k: repr(getattr(report, k)) for k in report.__dataclass_fields__}
        self.reports.append({"kind": self.kind(i), "seed": self.mc_seed, "report": doc})
        return (
            report.replicates_used == MC_REPLICATES
            and abs(report.var_re - target) <= 0.05 * target
            and abs(report.var_im - target) <= 0.05 * target
            and abs(report.cov_re_im) <= 0.005
            and abs(report.bilinear_mse) <= 0.01
        )


class FitWhite:
    """Library path under white noise: an n=11 and an n=10^5 sample fitted, queried and summarised."""

    def __init__(self, seed, start, work_dir):
        self.seed, self.start = seed, start
        self._oracle, self._qr = {}, {}

    def setup(self):
        from ckrig import kriging, moments, validation

        self.kriging, self.moments, self.validation = kriging, moments, validation
        self.basis = kriging.TrendBasis.linear()
        self.samples = {}
        for n in WHITE_SIZES:
            rng = refs.rng_for(self.seed, 30, n)
            self.samples[n] = []
            for x, y in refs.white_samples(self.seed, n, WHITE_SAMPLES):
                m_n, sigma_n = float(np.mean(x)), float(np.std(x))
                real = np.linspace(x.min(), x.max(), WHITE_POINTS[n])
                t = np.concatenate([[1.0], rng.uniform(0.2, 2.0, WHITE_POINTS[n] - 1)])
                points = list(real) + list(m_n + 1j * sigma_n * t)
                self.samples[n].append((x, y, points))
            self.fit_and_query(self.samples[n][0])  # warm-up

    def fit_and_query(self, sample):
        k, m = self.kriging, self.moments
        x, y, points = sample
        s = k.Sample(x, y)
        design = k.build_design(self.basis, s.covariates)
        evaluated = []
        for point in points:
            f = k.feature_vector(self.basis, point)
            solution = k.kriging_weights(design, None, f, obs=s.observations)
            evaluated.append((f, solution, k.predict(solution, s.observations), k.trend_variance(solution)))
        stats = (m.zero_variance_points(s.covariates), m.complex_mean(s), m.complex_variance(s))
        return evaluated, stats

    def kernel(self):
        _interp_kernel()
        _stream_kernel(self.samples[WHITE_SIZES[-1]][0][0])

    def kind(self, i):
        return "sample-fit"

    def op(self, i):
        index = (self.start + i) % WHITE_SAMPLES
        return [self.fit_and_query(self.samples[n][index]) for n in WHITE_SIZES]

    def work(self, i):
        return sum(2 * WHITE_POINTS[n] for n in WHITE_SIZES)

    def check(self, i, result):
        index = (self.start + i) % WHITE_SAMPLES
        return all(self._check_sample(i, n, index, r) for n, r in zip(WHITE_SIZES, result))

    def _check_sample(self, i, n, index, result):
        x, y, _ = self.samples[n][index]
        evaluated, (points, mean, cv) = result
        pick = refs.rng_for(self.seed, 31, n, self.start + i).choice(len(evaluated), WHITE_CHECKED, replace=False)
        for j in pick:
            f, sol, prediction, variance = evaluated[j]
            if n <= KKT_MAX_N:
                design = self.kriging.build_design(self.basis, x)
                weights, multipliers = self.validation.kkt_solve(design, None, f)
                _, _, beta, factor = refs.white_reference(refs.white_qr(x, y), f)
            else:
                if (n, index) not in self._qr:
                    self._qr[n, index] = refs.white_qr(x, y)
                weights, multipliers, beta, factor = refs.white_reference(self._qr[n, index], f)
            scale = float(np.sum(np.abs(f * multipliers)))
            if not (
                refs.close(sol.weights, weights)
                and refs.close(sol.multipliers, multipliers)
                and refs.close(sol.beta_hat, beta)
                and refs.close(variance, factor, scale)
                and refs.close(prediction, np.dot(weights, y), float(np.sum(np.abs(weights * y))))
            ):
                return False
        if (n, index) not in self._oracle:
            self._oracle[n, index] = refs.summation_moments(x, y)
        o = self._oracle[n, index]
        return (
            refs.close(points.plus, o["point"])
            and points.minus == points.plus.conjugate()
            and refs.close(mean.plus, o["mean"])
            and cv.mean == mean
            and refs.close(cv.weighted_square.plus, o["weighted_square"])
            and refs.close(cv.variance.plus, o["variance"], o["variance_scale"])
            and refs.close(cv.real_se, o["real_se"])
            and refs.close(cv.imag_se, o["imag_se"])
        )


class FitDense:
    """``gls_beta`` then ``kriging_weights`` at real points under a dense Λ (``cmd_fit``, more points).

    Each call is one operation, so that a run of a few dense fits still
    times some tens of operations.
    """

    def __init__(self, seed, start, work_dir):
        self.seed, self.start, self.n = seed, start, DENSE_N
        self._beta = {}

    def setup(self):
        from ckrig import kriging, validation

        self.kriging, self.validation = kriging, validation
        self.basis = kriging.TrendBasis.linear()
        rng = refs.rng_for(self.seed, 40, self.n)
        self.samples = []
        for _ in range(DENSE_SAMPLES):
            x = refs.jittered_grid(rng, self.n)
            lam, lower = refs.exp_correlation(x, rng.uniform(0.5, 2.0))
            b0, b1 = rng.uniform(-2.0, 2.0, 2)
            y = b0 + b1 * x + lower @ rng.standard_normal(self.n)
            points = rng.uniform(x[0], x[-1], DENSE_POINTS)
            self.samples.append((x, y, lam, lower, points))
        # Warm-up at full size: until an n-by-n block has been freed once, the
        # allocator maps each one afresh, which made the first timed fit slow.
        x, _, lam, _, points = self.samples[0]
        design = kriging.build_design(self.basis, x)
        kriging.kriging_weights(design, lam, kriging.feature_vector(self.basis, points[0]))

    def kernel(self):
        _cholesky_kernel(self.samples[0][3])

    def _position(self, i):
        """(dense fit, call within it): call 0 is ``gls_beta``, call c > 0 is ``kriging_weights`` at point c - 1."""
        return divmod(self.start + i, DENSE_POINTS + 1)

    def kind(self, i):
        return "gls_beta" if self._position(i)[1] == 0 else "kriging_weights"

    def op(self, i):
        k = self.kriging
        fit, call = self._position(i)
        x, y, lam, _, points = self.samples[fit % DENSE_SAMPLES]
        design = k.build_design(self.basis, x)
        if call == 0:
            return k.gls_beta(design, lam, y)
        return k.kriging_weights(design, lam, k.feature_vector(self.basis, points[call - 1]))

    def work(self, i):
        return 1

    def check(self, i, result):
        """β̂ against LAPACK; weights against the unbiasedness constraint, and on one seeded call per fit against ``kkt_solve``."""
        fit, call = self._position(i)
        index = fit % DENSE_SAMPLES
        x, y, lam, lower, points = self.samples[index]
        design = self.kriging.build_design(self.basis, x)
        if call == 0:
            if index not in self._beta:
                self._beta[index] = refs.dense_beta(design.F, lower, y)
            return refs.close(result, self._beta[index])
        f = self.kriging.feature_vector(self.basis, points[call - 1])
        if not refs.close(design.F.T @ result.weights, f):
            return False
        if call - 1 != int(refs.rng_for(self.seed, 41, fit).integers(DENSE_POINTS)):
            return True
        weights, multipliers = self.validation.kkt_solve(design, lam, f)
        return (
            refs.close(result.weights, weights)
            and refs.close(result.multipliers, multipliers)
            and refs.close(result.variance_factor, -(f @ multipliers), float(np.sum(np.abs(f * multipliers))))
        )


WORKLOADS = {
    "cli-example": CliExample,
    "mc-acceptance": McAcceptance,
    "fit-white": FitWhite,
    "fit-dense": FitDense,
}


def _seed_stream(seed, tag):
    return random.Random(f"{seed}:{tag}")


def _cdoc(z):
    return {"re": float(z.real), "im": float(z.imag)}


def _flatten(prefix, node, out):
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else key, value, out)
    else:
        out[prefix] = node
    return out


def _table_matches(text, golden) -> bool:
    """Each table line is 'key  value'; compare the values with the golden document."""
    expected = _flatten("", golden, {})
    expected.pop("warnings")
    rows = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        rows[key.strip()] = value.strip()
    if rows.pop("warnings", None) != "[]" or rows.keys() != expected.keys():
        return False
    for key, want in expected.items():
        got = rows[key]
        if isinstance(want, float):
            if float(got) != want:
                return False
        elif got != str(want):
            return False
    return True


# A shared 2-vCPU x86-64 VM changes speed by up to 40 % within a minute,
# and CPU time changes with wall time.  Each workload has a short kernel of
# the benchmark's own code that does the kind of work its operations do:
# interpreter and small-array numpy for the CLI and Monte-Carlo loops,
# O(n) passes over an n=10^5 array for large white-noise fits, and
# Cholesky matrix-vector products on an n=2000 factor for dense fits.
#
# The kernel is warmed up, then timed before the first operation and after
# about every CALIBRATION_INTERVAL_S of operations: CALIBRATION_REPEATS
# times, or for CALIBRATION_SHARE of the operation time since the last
# calibration if that is longer, because one kernel call is noisy and a
# Monte-Carlo call lasts several seconds.  Each operation's time is also
# reported scaled to the speed at which the kernel takes the workload's
# KERNEL_REF_S.  Operations shorter than CALIBRATION_INTERVAL_S are scaled
# by the median of the CALIBRATION_WINDOW calibrations around them, timed
# within a fraction of a second of them; longer ones by the median of all
# the run's calibrations, because kernel calls only between operations
# sample their speed too thinly to follow it.  Ten-seed sets on the VM
# above were steadiest that way.
CALIBRATION_REPEATS = 3
CALIBRATION_SHARE = 0.02
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_WINDOW = 4
KERNEL_REF_S = {
    "cli-example": 1.5e-3,
    "mc-acceptance": 1.5e-3,
    "fit-white": 4.0e-3,
    "fit-dense": 3.0e-3,
}
_KERNEL_ARRAY = np.arange(64.0)
# Columns of the n=2000 factor whose update products the dense kernel times.
_CHOLESKY_COLUMNS = range(300, 1800, 75)


def _interp_kernel():
    acc = 0
    for i in range(20_000):
        acc += i * i
    b = _KERNEL_ARRAY
    for _ in range(200):
        b = np.sqrt(b * b + 1.0)


def _stream_kernel(x):
    for _ in range(2):
        f = np.column_stack([np.ones_like(x), x])
        gram = f.T @ f
        w = f @ np.array([gram[0, 1], 1j])
        float(np.dot(w.real, x))


def _cholesky_kernel(lower):
    # Only the matrix-vector product: the column arithmetic around it makes
    # temporaries whose cost alternates between calls by a factor of three.
    for j in _CHOLESKY_COLUMNS:
        lower[j + 1 :, :j] @ lower[j, :j]


def calibrate(kernel, seconds=0.0) -> float:
    """Median seconds of the workload's kernel, called CALIBRATION_REPEATS times or for ``seconds``."""
    times = []
    start = perf_counter()
    while len(times) < CALIBRATION_REPEATS or perf_counter() - start < seconds:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run(workload, budget, tracer, name):
    """Timed loop: start another operation while it should end within half a mean length of the budget.

    The budget is wall time from the first operation, checks and calibration
    included; only the operations themselves are timed.
    """
    ops, since, work = 0, 0.0, 0
    outcomes = []  # (seconds, passed, index of the calibration before it)
    first = perf_counter()
    calibrate(workload.kernel)  # warm-up: the first kernel calls touch cold memory
    kernels = [calibrate(workload.kernel)]
    kinds = defaultdict(lambda: [0, 0, 0])
    while True:
        mark = len(tracer.spans) if tracer else 0
        t0 = perf_counter()
        try:
            if tracer is None:
                result = workload.op(ops)
            else:
                result = tracer.span(f"op.{name}", workload.op, ops)
            elapsed = perf_counter() - t0
            ok = workload.check(ops, result)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            elapsed, ok = perf_counter() - t0, False
        outcomes.append((elapsed, ok, len(kernels) - 1))
        if ok:
            work += workload.work(ops)
        if tracer is not None:
            tally = kinds[workload.kind(ops)]
            tally[0] += 1
            for span in tracer.spans[mark:]:
                if span[4] == mark:  # inside this operation, not its check
                    tally[1] += span[0] == "numerics.solve_spd.gram"
                    tally[2] += span[0] == "numerics.solve_spd.lambda"
        ops += 1
        since += elapsed
        spent = perf_counter() - first
        # Stop where the next operation would end more than half an operation past the budget.
        last = spent + 0.5 * spent / ops > budget
        if last or since >= CALIBRATION_INTERVAL_S:
            kernels.append(calibrate(workload.kernel, CALIBRATION_SHARE * since))
            since = 0.0
        if last:
            break

    ref = KERNEL_REF_S[name]
    local = sum(t for t, _, _ in outcomes) / ops < CALIBRATION_INTERVAL_S
    run_kernel = statistics.median(kernels)

    def scaled(seconds, k):
        if not local:
            return seconds * ref / run_kernel
        # Calibrations k and k + 1 bracket the operation; the window is centred on them.
        low = max(0, min(k + 1 - CALIBRATION_WINDOW // 2, len(kernels) - CALIBRATION_WINDOW))
        return seconds * ref / statistics.median(kernels[low : low + CALIBRATION_WINDOW])

    return {
        "first_op": first,
        "times_s": [scaled(t, k) for t, ok, k in outcomes if ok],
        "raw_times_s": [t for t, ok, _ in outcomes if ok],
        "outcomes": outcomes,
        "failed_times_s": [scaled(t, k) for t, ok, k in outcomes if not ok],
        "calibration_s": kernels,
        "work": work,
        "ops": ops,
        "failed": sum(not ok for _, ok, _ in outcomes),
        "solve_counts": dict(kinds),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop where the first operation would start")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.start, args.work_dir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        if isinstance(workload, CliExample):
            workload.tracer = tracer
        else:
            tracer.install()
    workload.setup()
    if args.setup_only:
        result = {"first_op": perf_counter(), "ops": 0, "failed": 0}
    else:
        result = run(workload, args.budget, tracer, args.workload)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(workload, CliExample) else resource.RUSAGE_SELF
    )
    result.update(max_rss_kb=usage.ru_maxrss, mc_reports=getattr(workload, "reports", []))
    if tracer is not None:
        tracer.dump(args.work_dir / "spans.txt")
    (args.work_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
