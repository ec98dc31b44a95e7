"""The names that the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` swaps public names in the ckrig module namespaces for
timing wrappers.  A refactor that drops one of them would only fail under
``bench/run.py --trace 1``; this test makes it fail here instead.  The
tracer keeps one span stack and is not thread-safe, so the threads that
fill the Monte-Carlo blocks must call none of the wrapped names.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import pytest

from ckrig import validation

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("ckrig_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _boundaries():
    wrapped = [(module, attr) for module, attr, _ in _load_tracer().BOUNDARIES]
    return wrapped + [("ckrig.kriging", "solve_spd")]


@pytest.mark.parametrize("module,attr", _boundaries())
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _traced_monte_carlo(monkeypatch, workers):
    """Spans of a three-block ``monte_carlo_mse`` filled on ``workers`` threads, and the thread
    that opened each span."""
    monkeypatch.setattr(validation, "_fill_workers", lambda blocks: workers)
    tracer = _load_tracer().Tracer()
    openers = []
    span = tracer.span

    def span_on_thread(name, fn, *args, **kwargs):
        openers.append(threading.current_thread())
        return span(name, fn, *args, **kwargs)

    tracer.span = span_on_thread
    tracer.install()
    try:
        cfg = validation.SimulationConfig(
            covariates=tuple(float(i) for i in range(1, 12)), beta=(1.0, 0.5), sigma=1.0,
            replicates=2 * validation.BLOCK + 5, seed=20261019,
        )
        validation.monte_carlo_mse(cfg, 4.6 + 2.7j)
    finally:
        tracer.uninstall()
    return tracer, openers


def test_concurrent_fill_opens_no_span_off_the_calling_thread(monkeypatch):
    serial, _ = _traced_monte_carlo(monkeypatch, 1)
    concurrent, openers = _traced_monte_carlo(monkeypatch, 2)
    assert serial.counts()["validation.monte_carlo_mse"] == 1
    assert concurrent.counts() == serial.counts()
    assert set(openers) == {threading.current_thread()}
    for name, start, end, parent, _ in concurrent.spans:
        if parent >= 0:
            _, parent_start, parent_end, _, _ = concurrent.spans[parent]
            assert parent_start <= start <= end <= parent_end, name
