"""The names that the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` swaps public names in the ckrig module namespaces for
timing wrappers.  A refactor that drops one of them would only fail under
``bench/run.py --trace 1``; this test makes it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("ckrig_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = [(module, attr) for module, attr, _ in tracer.BOUNDARIES]
    return wrapped + [("ckrig.kriging", "solve_spd")]


@pytest.mark.parametrize("module,attr", _boundaries())
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
