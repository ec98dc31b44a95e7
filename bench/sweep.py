"""Per-layer probe: times each public ckrig function at fixed sizes, then counts calls.

Run by ``run.py`` for a traced run as ``python bench/sweep.py --seed S
--work-dir D``; writes ``result.json`` (metric name -> value) and
``spans.txt`` into the work directory.  The timings run untraced and
report the median per call.  The Monte-Carlo timings, its self time and
every call count come from spans recorded afterwards with the tracer on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import refs
import workloads
from tracer import Tracer

WHITE_SIZES = (11, 1000, 100_000)
DENSE_SIZES = (100, 500, 2000)


def per_call(fn, *args, min_calls=5, min_time=0.05):
    """Median seconds per call over at least ``min_calls`` calls and ``min_time`` seconds."""
    times = []
    while len(times) < min_calls or sum(times) < min_time:
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def process_ms(argv, runs):
    env = workloads.cli_env()
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        subprocess.run(argv, env=env, cwd=workloads.ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cli_layer(seed, work_dir, out):
    import ckrig.cli as cli

    interp = process_ms([sys.executable, "-c", "pass"], 5)
    out["cli.interp_ms"] = interp
    out["cli.import_ms"] = process_ms([sys.executable, "-c", "import ckrig.cli"], 3) - interp
    *_, mix = workloads.cli_inputs(seed, work_dir)
    for name, args in mix:

        def call(args=args):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(args) != 0:
                    raise RuntimeError(f"ckrig {' '.join(args)} failed")

        out[f"cli.main_us.{name}"] = 1e6 * per_call(call)
    text = workloads.EXAMPLE_CSV.read_text(encoding="utf-8")
    out["cli.parse_csv_us.n11"] = 1e6 * per_call(cli.parse_csv, text)


def white_layers(seed, out):
    from ckrig import kriging, moments, numerics

    basis = kriging.TrendBasis.linear()
    for n in WHITE_SIZES:
        (x, y), = refs.white_samples(seed, n, 1)
        sample = kriging.Sample(x, y)
        design = kriging.build_design(basis, x)
        f_real = kriging.feature_vector(basis, float(np.median(x)))
        f_complex = kriging.feature_vector(basis, moments.zero_variance_points(x).plus)
        solution = kriging.kriging_weights(design, None, f_real, obs=y)
        out[f"kriging.Sample_us.n{n}"] = 1e6 * per_call(kriging.Sample, x, y)
        out[f"kriging.build_design_us.n{n}"] = 1e6 * per_call(kriging.build_design, basis, x)
        for kind, f in (("real", f_real), ("complex", f_complex)):
            out[f"kriging.kriging_weights_us.{kind}.n{n}"] = 1e6 * per_call(
                lambda f=f: kriging.kriging_weights(design, None, f, obs=y)
            )
        out[f"kriging.predict_us.n{n}"] = 1e6 * per_call(kriging.predict, solution, y)
        for name in ("index_moments", "zero_variance_points"):
            out[f"moments.{name}_us.n{n}"] = 1e6 * per_call(getattr(moments, name), x)
        for name in ("complex_mean", "complex_variance"):
            out[f"moments.{name}_us.n{n}"] = 1e6 * per_call(getattr(moments, name), sample)
        if n == 11:
            gram = design.F.T @ design.F
            for kind, f in (("real", f_real), ("complex", f_complex)):
                out[f"numerics.solve_spd_us.gram.{kind}"] = 1e6 * per_call(numerics.solve_spd, gram, f)


def dense_layers(seed, out):
    from ckrig import kriging, numerics

    basis = kriging.TrendBasis.linear()
    rng = refs.rng_for(seed, 50)
    for n in DENSE_SIZES:
        x = refs.jittered_grid(rng, n)
        lam, lower = refs.exp_correlation(x, 1.0)
        y = 1.0 + 0.5 * x + lower @ rng.standard_normal(n)
        design = kriging.build_design(basis, x)
        f = kriging.feature_vector(basis, 5.0)
        calls = 3 if n > 1000 else 5
        out[f"kriging.gls_beta_ms.dense.n{n}"] = 1e3 * per_call(
            kriging.gls_beta, design, lam, y, min_calls=calls
        )
        out[f"kriging.kriging_weights_ms.dense.n{n}"] = 1e3 * per_call(
            kriging.kriging_weights, design, lam, f, min_calls=calls
        )
        seconds = per_call(numerics.solve_spd, lam, design.F, min_calls=calls)
        out[f"numerics.solve_spd_ms.lambda.n{n}"] = 1e3 * seconds
    # Computed, not counted: the n³/3 flops of a Cholesky factorisation over
    # the whole solve time (the two triangular solves on F add 4n² flops).
    out["numerics.cholesky_gflops.n2000"] = 2000**3 / 3 / seconds / 1e9


def traced_layers(seed, out, tracer):
    """Monte-Carlo spans and the exact call counts, with the tracer installed."""
    import ckrig.kriging as kriging
    import ckrig.moments as moments
    import ckrig.validation as validation

    config = dict(
        covariates=workloads.MC_COVARIATES, beta=workloads.MC_BETA, sigma=1.0,
        replicates=workloads.MC_REPLICATES, seed=int(refs.rng_for(seed, 60).integers(2**31)),
    )
    point = moments.zero_variance_points(config["covariates"]).plus
    simulate = validation.SimulationConfig(**config)
    out["validation.simulate_process_us"] = 1e6 * per_call(
        validation.simulate_process, simulate, 7, min_calls=200
    )

    tracer.install()
    self_times = []
    for kind in workloads.MC_NOISE:
        root = len(tracer.spans)
        validation.monte_carlo_mse(validation.SimulationConfig(**config, noise_kind=kind), point)
        _, start, end, _, _ = tracer.spans[root]
        out[f"validation.monte_carlo_mse_s.{kind}"] = end - start
        self_times.append(tracer.self_time(root))
        counts = tracer.counts(root)
        out["validation.simulate_process.calls.per_monte_carlo_mse"] = counts["validation.simulate_process"]
        out["validation.Sample.calls.per_monte_carlo_mse"] = counts["validation.Sample"]
    out["validation.monte_carlo_mse.self_s"] = statistics.median(self_times)

    basis = kriging.TrendBasis.linear()
    (x, y), = refs.white_samples(seed, 11, 1)
    design = kriging.build_design(basis, x)

    def white_point():
        solution = kriging.kriging_weights(design, None, kriging.feature_vector(basis, 3.0), obs=y)
        kriging.predict(solution, y)
        kriging.trend_variance(solution)

    lam, _ = refs.exp_correlation(x, 1.0)

    def dense_fit():
        kriging.gls_beta(design, lam, y)
        for p in np.linspace(1.0, 9.0, workloads.DENSE_POINTS):
            kriging.kriging_weights(design, lam, kriging.feature_vector(basis, p))

    for probe, fn in (("white_point", white_point), ("dense_fit", dense_fit)):
        root = len(tracer.spans)
        tracer.span(f"probe.{probe}", fn)
        counts = tracer.counts(root)
        for kind in ("gram", "lambda"):
            out[f"numerics.solve_spd.calls.{kind}.per_{probe}"] = counts[f"numerics.solve_spd.{kind}"]
    root = len(tracer.spans)
    moments.complex_variance(kriging.Sample(x, y))
    out["moments.kriging_weights.calls.per_complex_variance"] = tracer.counts(root)["moments.kriging_weights"]
    tracer.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(workloads.SRC))

    out = {}
    cli_layer(args.seed, args.work_dir, out)
    white_layers(args.seed, out)
    dense_layers(args.seed, out)
    tracer = Tracer()
    traced_layers(args.seed, out, tracer)
    tracer.dump(args.work_dir / "spans.txt")
    (args.work_dir / "result.json").write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
