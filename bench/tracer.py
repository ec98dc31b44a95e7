"""In-memory spans recorded around the calls between ckrig modules.

The tracer replaces public names in the ckrig module namespaces with
wrappers, so a call that one module makes into another (for example
``ckrig.validation.monte_carlo_mse`` calling ``simulate_process``) opens a
span.  The program itself is not edited: every span comes from this file.

A span is ``(name, start, end, parent, op)``: perf-counter seconds, the
index of the enclosing span (-1 for none) and the index of the root span of
the operation it belongs to, so spans of one operation share ``op``.  Spans
stay in memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name) for every boundary where one ckrig module
# calls another, plus the entry points the benchmark itself calls.
BOUNDARIES = (
    ("ckrig.moments", "kriging_weights", "moments.kriging_weights"),
    ("ckrig.validation", "simulate_process", "validation.simulate_process"),
    ("ckrig.validation", "predict", "validation.predict"),
    ("ckrig.validation", "Sample", "validation.Sample"),
    ("ckrig.validation", "kriging_weights", "validation.kriging_weights"),
    ("ckrig.cli", "complex_variance", "cli.complex_variance"),
    ("ckrig.cli", "gls_beta", "cli.gls_beta"),
    ("ckrig.cli", "kriging_weights", "cli.kriging_weights"),
    ("ckrig.cli", "monte_carlo_mse", "cli.monte_carlo_mse"),
    ("ckrig.kriging", "Sample", "kriging.Sample"),
    ("ckrig.kriging", "build_design", "kriging.build_design"),
    ("ckrig.kriging", "gls_beta", "kriging.gls_beta"),
    ("ckrig.kriging", "kriging_weights", "kriging.kriging_weights"),
    ("ckrig.kriging", "predict", "kriging.predict"),
    ("ckrig.kriging", "trend_variance", "kriging.trend_variance"),
    ("ckrig.moments", "zero_variance_points", "moments.zero_variance_points"),
    ("ckrig.moments", "complex_mean", "moments.complex_mean"),
    ("ckrig.moments", "complex_variance", "moments.complex_variance"),
    ("ckrig.validation", "monte_carlo_mse", "validation.monte_carlo_mse"),
)

# kriging -> numerics: the Gram solve has order k (1 or 2 for the constant
# and linear bases used here); every correlation matrix Λ has order n >= 11.
GRAM_MAX_ORDER = 2


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._op = -1
        self._originals: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1]
        if parent < 0:
            self._op = index
        op = self._op
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, op)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _wrap_solve(self, fn):
        def traced(a, b):
            kind = "gram" if len(a) <= GRAM_MAX_ORDER else "lambda"
            return self.span(f"numerics.solve_spd.{kind}", fn, a, b)

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        kriging = importlib.import_module("ckrig.kriging")
        self._originals.append((kriging, "solve_spd", kriging.solve_spd))
        kriging.solve_spd = self._wrap_solve(kriging.solve_spd)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def graft(self, spans) -> None:
        """Append spans recorded by a child process under the current root span."""
        root, offset = self._op, len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, root if parent < 0 else parent + offset, root))

    def counts(self, first: int = 0) -> Counter:
        return Counter(s[0] for s in self.spans[first:])

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the time its direct children cover."""
        name, start, end, _, _ = self.spans[index]
        children = sum(s[2] - s[1] for s in self.spans[index + 1 :] if s[3] == index)
        return (end - start) - children

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "names": names}, out)
            out.write("\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"[{code[name]},{start!r},{end!r},{parent},{op}]\n")


def read_spans(path) -> list:
    """Spans written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as handle:
        names = json.loads(handle.readline())["names"]
        return [(names[s[0]], *s[1:]) for s in map(json.loads, handle)]
