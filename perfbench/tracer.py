"""Outside-in tracer: spans around specforge's public functions.

Nothing under ``src/`` knows about tracing.  While a ``Tracer`` is
installed, each traced function is replaced by a wrapper in *every*
``specforge.*`` module namespace that holds it, because callers bind names
at import time (``build_family`` calls ``constructor``'s own
``check_very_weak_positivity``; the ``check_jobs`` lambdas look up
``cli.main`` globals).  Nested calls therefore show up as child spans.

Cache traffic is counted by wrapping ``SingletonFamily.cached`` and
``DensityFamily.cached`` with a counting ``compute`` callback, so no
private state is read.  Spans are kept in memory; ``summary`` reduces them
to per-function busy time, call counts and per-layer self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, defining module, attribute path).  The span name's prefix
# before the first dot is the layer the time is charged to.
TARGETS = (
    ("cli.main", "specforge.cli.main", "main"),
    ("modelfile.parse", "specforge.cli.modelfile", "parse_model_file"),
    ("models.normalize", "specforge.cli.modelfile", "ModelFile.realize"),
    ("hypotheses.good_symbols", "specforge.hypotheses", "good_symbols"),
    ("hypotheses.very_weak_positivity", "specforge.hypotheses",
     "check_very_weak_positivity"),
    ("hypotheses.order_consistency", "specforge.hypotheses",
     "check_order_consistency"),
    ("hypotheses.pointwise_compatibility", "specforge.hypotheses",
     "check_pointwise_compatibility"),
    ("hypotheses.uniqueness_condition", "specforge.hypotheses",
     "check_uniqueness_condition"),
    ("hypotheses.bounded_positivity", "specforge.hypotheses",
     "check_bounded_positivity"),
    ("constructor.build_family", "specforge.constructor", "build_family"),
    ("constructor.extension_divisor", "specforge.constructor",
     "extension_divisor"),
    ("constructor.assemble_kernel", "specforge.constructor", "assemble_kernel"),
    ("constructor.order_independence", "specforge.constructor",
     "check_order_independence"),
    ("verifier.specification_axioms", "specforge.verifier",
     "check_specification_axioms"),
    ("verifier.uniqueness_probe", "specforge.verifier", "uniqueness_probe"),
    ("verifier.good_support", "specforge.verifier", "good_support_report"),
    ("verifier.measure_consistency", "specforge.verifier",
     "check_measure_consistency"),
    ("verifier.support_mass", "specforge.verifier", "check_good_support_mass"),
    ("verifier.ratio_bounds", "specforge.verifier", "ratio_bounds"),
    ("verifier.quasilocality", "specforge.verifier", "quasilocality_diagnostic"),
    ("cli.exchange_identity", "specforge.cli.main", "exchange_suite"),
    ("cli.measure_perturbations", "specforge.cli.main",
     "measure_perturbation_suite"),
    ("cli.rho_write", "specforge.cli.main", "write_rho_table"),
    ("report.render_json", "specforge.cli.report", "render_json"),
)

LAYERS = ("cli", "modelfile", "models", "hypotheses", "constructor",
          "verifier", "report")

# Memo slots counted per cache-key kind (the key's first element).
CACHE_OWNERS = (
    ("specforge.models", "SingletonFamily"),
    ("specforge.constructor", "DensityFamily"),
)


def _specforge_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "specforge" or name.startswith("specforge.")]


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans are kept in memory.

    ``spans`` holds ``(name, start, end, parent index)`` tuples, parent -1
    for a root; ``lookups`` and ``misses`` count memo traffic per key kind.
    """

    def __init__(self):
        self.spans: list = []
        self.lookups: Counter = Counter()
        self.misses: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _counting(self, cached):
        lookups, misses = self.lookups, self.misses

        @functools.wraps(cached)
        def counted(owner, key, compute):
            kind = key[0]
            lookups[kind] += 1

            def counting_compute():
                misses[kind] += 1
                return compute()

            return cached(owner, key, counting_compute)

        return counted

    def _patch(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = _specforge_modules()
        for name, module_name, path in TARGETS:
            holder = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner)
            original = getattr(holder, attr)
            wrapped = self._wrap(name, original)
            if owners:
                self._patch(holder, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for module_name, cls_name in CACHE_OWNERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "cached", self._counting(cls.cached))

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Busy time and calls per span name, self time per layer.

        Busy time counts only the outermost span of a name, so a function
        that re-enters itself is not counted twice.  A span's self time is
        its duration minus the durations of its direct children.
        """
        spans = self.spans
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            outermost = True
            while parent >= 0:
                if spans[parent][0] == name:
                    outermost = False
                    break
                parent = spans[parent][3]
            if outermost:
                busy[name] += end - start
        layer_self: Counter = Counter()
        for (name, start, end, _), inner in zip(spans, child_time):
            layer_self[name.split(".", 1)[0]] += end - start - inner
        return {"busy": busy, "calls": calls, "self": layer_self,
                "spans": len(spans), "lookups": Counter(self.lookups),
                "misses": Counter(self.misses)}
