"""Workloads and metrics of the benchmark, with the end-to-end metric each layer metric should move.

``BENCHMARK.json`` is generated from this file (``python3 bench/run.py
--manifest``), so the two cannot drift apart.
"""

RUN_SECONDS = 25

WORKLOADS = {
    "cli-example": "ckrig CLI child processes on tests/data/example.csv, six-command mix: "
    "interpreter start and imports dominate, the n=11 math is microseconds",
    "mc-acceptance": "monte_carlo_mse at the acceptance config (n=11, 10^5 replicates, "
    "gaussian/uniform): the per-replicate loop in validation dominates",
    "fit-white": "white-noise fits of an n=11 sample (64+64 real/complex points) and an n=10^5 one "
    "(8+8) plus moments: 2x2 Gram per-call overhead and O(n) passes",
    "fit-dense": "gls_beta then kriging_weights at 4 real points under a dense n=2000 "
    "exponential correlation: the hand-written Cholesky of the correlation matrix dominates",
}

# What one operation and one unit of work are on each workload.
OPERATION = {
    "cli-example": ("one ckrig child process", "call"),
    "mc-acceptance": ("one monte_carlo_mse call", "replicate"),
    "fit-white": ("one n=11 and one n=10^5 sample fitted and queried", "evaluation point"),
    "fit-dense": ("one gls_beta or kriging_weights call of a dense fit at n=2000", "call"),
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.tail", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
]

_CLI = "op_ms.p50, op_ms.tail on cli-example"
_WHITE = "work_per_s, op_ms.p50 on fit-white"
_DENSE = "work_per_s, op_ms.p50 on fit-dense"
_MC = "work_per_s on mc-acceptance"
_NONE = "no end-to-end workload at this size"


def _per_layer():
    rows = [
        ("cli.interp_ms", "ms", "lower", "floor of op_ms.p50 on cli-example"),
        ("cli.import_ms", "ms", "lower", _CLI),
    ]
    for command in ("zero-points", "complex-mean-json", "complex-mean-table", "fit", "fit-lambda", "simulate"):
        rows.append((f"cli.main_us.{command}", "us", "lower", _CLI))
    rows.append(("cli.parse_csv_us.n11", "us", "lower", _CLI))
    for n in (11, 1000, 100000):
        moves = _NONE if n == 1000 else _WHITE
        for name in ("Sample_us", "build_design_us", "kriging_weights_us.real", "kriging_weights_us.complex"):
            rows.append((f"kriging.{name}.n{n}", "us", "lower", moves))
        rows.append((f"kriging.predict_us.n{n}", "us", "lower", moves + ("; " + _MC if n == 11 else "")))
        for name in ("index_moments", "zero_variance_points", "complex_mean", "complex_variance"):
            rows.append((f"moments.{name}_us.n{n}", "us", "lower", moves))
    for n in (100, 500, 2000):
        moves = _DENSE if n == 2000 else _NONE
        rows.append((f"kriging.gls_beta_ms.dense.n{n}", "ms", "lower", moves))
        rows.append((f"kriging.kriging_weights_ms.dense.n{n}", "ms", "lower", moves))
        rows.append((f"numerics.solve_spd_ms.lambda.n{n}", "ms", "lower", moves))
    rows += [
        ("numerics.solve_spd_us.gram.real", "us", "lower", _WHITE),
        ("numerics.solve_spd_us.gram.complex", "us", "lower", _WHITE),
        ("numerics.cholesky_gflops.n2000", "GFLOP/s", "higher", _DENSE + " (computed: n^3/3 over solve time)"),
        ("validation.simulate_process_us", "us", "lower", _MC),
        ("validation.monte_carlo_mse_s.gaussian", "s", "lower", _MC),
        ("validation.monte_carlo_mse_s.uniform", "s", "lower", _MC),
        ("validation.monte_carlo_mse.self_s", "s", "lower", _MC),
        # Counts repeat exactly; they compare two versions of the code, not speed.
        ("numerics.solve_spd.calls.gram", "count", "lower", "every workload: Gram solves per operation"),
        ("numerics.solve_spd.calls.lambda", "count", "lower", "every workload: Λ solves per operation"),
        ("numerics.solve_spd.calls.gram.per_white_point", "count", "lower", _WHITE),
        ("numerics.solve_spd.calls.lambda.per_white_point", "count", "lower", _WHITE),
        ("numerics.solve_spd.calls.gram.per_dense_fit", "count", "lower", _DENSE),
        ("numerics.solve_spd.calls.lambda.per_dense_fit", "count", "lower", _DENSE),
        ("moments.kriging_weights.calls.per_complex_variance", "count", "lower", _WHITE),
        ("validation.simulate_process.calls.per_monte_carlo_mse", "count", "lower", _MC),
        ("validation.Sample.calls.per_monte_carlo_mse", "count", "lower", _MC),
    ]
    for name, unit, better, _ in END_TO_END:
        rows.append((f"trace_overhead.{name}", unit, better, f"none: traced minus untraced {name}"))
    return rows


PER_LAYER = _per_layer()


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
