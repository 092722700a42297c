"""Spans around the engine's public functions, installed only for the traced run.

`Tracer.install` replaces each listed function by a wrapper that records a
span (name, start, end, parent span, op id) and a few counters.  The wrapper
also replaces every other module-level name the function was imported under
(for example `dw.character_table_mod`), so calls between modules are seen.
Spans stay in memory until `write`.  A layer's self time is the sum of its
spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# per-layer metric -> the span names whose self time it sums
SELF_TIME_METRICS = {
    "pgroup.build_s": ("pgroup.group_from_spec",),
    "pgroup.classes_s": ("pgroup.conjugacy_classes", "pgroup.structure_constants"),
    "pgroup.subgroups_s": ("pgroup.all_subgroups", "pgroup.subgroup_as_group"),
    "pgroup.aut_s": ("pgroup.automorphism_count",),
    "chartab.table_s": ("chartab.character_table_mod",),
    "chartab.char_sum_s": ("chartab.char_sum",),
    "chartab.crt_s": ("chartab.recover_integer",),
    "dw.hom_s": ("dw.hom_count", "dw._surface_hom_count", "dw.counting_summary"),
    "dw.epi_s": ("dw.epi_count", "dw.hall_mobius", "dw.extension_count"),
    "dw.generator_s": ("dw.DWAlgebra.__init__", "dw.DWAlgebra.token_matrix", "dw.dw_generator_map_exact"),
    "frobenius.precheck_s": ("frobenius.ensure_prechecked", "frobenius.check_axioms"),
    "frobenius.eval_dw_s": ("frobenius.evaluate_diagram[dw]",),
    "frobenius.eval_universal_s": ("frobenius.evaluate_diagram[universal]",),
    "cobordism.parse_s": ("cobordism.parse_diagram",),
    "cobordism.rewrite_s": ("cobordism.apply_relation",),
    "cobordism.canonicalize_s": ("cobordism.canonicalize",),
    "oracle.solutions_s": ("oracle.run_task[solutions]", "oracle.count_solutions"),
    "oracle.epis_s": ("oracle.run_task[epis]", "oracle.count_epis"),
    "oracle.decorated_s": ("oracle.decorated_generator_count",),
    "cli.self_s": ("cli.run",),
}
COUNT_METRICS = (
    "pgroup.subgroups_n",
    "chartab.tables_n",
    "chartab.seed_retries",
    "chartab.table_failures",
    "dw.mobius_terms",
    "frobenius.guard_refusals",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counters: Counter = Counter()
        self.scanned = 0  # tuples the oracle accounted for in run_task
        self.primes: list = []  # len(primes_used) of each answered homcount
        self.op = None
        self.enabled = False
        self._stack: list = []

    # -- recording ----------------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def in_span(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name, fn, cached=None, before=None, after=None, failed=None):
        """A traced `fn`.  `cached(*args)` true skips the span (a cache hit); the hooks
        update counters: `before(*args)` returns a state, `after(result, state, *args)`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (cached is not None and cached(*args, **kwargs)):
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            state = before(*args, **kwargs) if before is not None else None
            try:
                result = self._span(label, fn, args, kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            if after is not None:
                after(result, state, *args, **kwargs)
            return result

        return wrapper

    # -- installation -------------------------------------------------------------------

    def install(self):
        from arith_tqft import chartab, cli, cobordism, dw, frobenius, oracle, pgroup
        from arith_tqft.errors import EngineError

        modules = [m for n, m in sys.modules.items() if n.startswith("arith_tqft.")]

        def patch_function(module, attr, name=None, **hooks):
            original = getattr(module, attr)
            wrapped = self.wrap(name or f"{module.__name__.split('.')[-1]}.{attr}", original, **hooks)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is original:
                        setattr(m, k, wrapped)

        def patch_method(cls, attr, name, **hooks):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), **hooks))

        for module, attrs in (
            (pgroup, ("group_from_spec",)),
            (chartab, ("char_sum", "recover_integer")),
            (dw, ("_surface_hom_count", "counting_summary", "epi_count", "hall_mobius",
                  "extension_count", "dw_generator_map_exact")),
            (frobenius, ("ensure_prechecked", "check_axioms")),
            (cobordism, ("parse_diagram", "apply_relation", "canonicalize")),
            (oracle, ("count_solutions", "count_epis", "decorated_generator_count")),
            (cli, ("run",)),
        ):
            for attr in attrs:
                patch_function(module, attr)

        # pgroup: only calls that compute (the methods memoize in G._cache) get spans
        G = pgroup.FiniteGroup
        hit = lambda key: (lambda g, *a, **k: key in g._cache)
        patch_method(G, "conjugacy_classes", "pgroup.conjugacy_classes", cached=hit("conj"))
        patch_method(G, "structure_constants", "pgroup.structure_constants", cached=hit("structure"))
        patch_method(G, "automorphism_count", "pgroup.automorphism_count", cached=hit("aut"))
        patch_method(G, "subgroup_as_group", "pgroup.subgroup_as_group")

        def count_subgroups(result, state, g):
            self.counters["pgroup.subgroups_n"] += len(result)

        patch_method(G, "all_subgroups", "pgroup.all_subgroups", cached=hit("subgroups"), after=count_subgroups)

        def table_was_cached(G_, l, seed=0):
            return ("chartab", l, seed) in G_._cache

        def table_done(result, was_cached, G_, l, seed=0):
            if not was_cached:
                self.counters["chartab.tables_n"] += 1
                self.counters["chartab.seed_retries"] += result.seed - seed

        def table_failed(exc):
            if isinstance(exc, EngineError):
                self.counters["chartab.table_failures"] += 1

        patch_function(
            chartab, "character_table_mod", before=table_was_cached, after=table_done, failed=table_failed
        )

        def hom_entered(*a, **k):
            if self.in_span("dw.epi_count"):
                self.counters["dw.mobius_terms"] += 1

        patch_function(dw, "hom_count", before=hom_entered)
        patch_method(dw.DWAlgebra, "__init__", "dw.DWAlgebra.__init__")
        patch_method(dw.DWAlgebra, "token_matrix", "dw.DWAlgebra.token_matrix")

        def eval_name(D, A):
            kind = "dw" if isinstance(A, dw.DWAlgebra) else "universal"
            return f"frobenius.evaluate_diagram[{kind}]"

        def eval_failed(exc):
            if getattr(exc, "code", None) == "dimension-guard":
                self.counters["frobenius.guard_refusals"] += 1

        patch_function(frobenius, "evaluate_diagram", name=eval_name, failed=eval_failed)

        def task_name(task, mode=None):
            epis = mode == "epis" or (isinstance(task, dict) and task.get("epis"))
            return "oracle.run_task[epis]" if epis else "oracle.run_task[solutions]"

        def task_done(result, state, task, mode=None):
            self.scanned += result["scanned"]

        patch_function(oracle, "run_task", name=task_name, after=task_done)

    # -- results ------------------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self) -> dict:
        own = self.self_times()
        values = {m: sum(own[n] for n in names) for m, names in SELF_TIME_METRICS.items()}
        values.update({m: self.counters[m] for m in COUNT_METRICS})
        values["dw.primes_per_query"] = sum(self.primes) / len(self.primes) if self.primes else 0.0
        scan_s = own["oracle.run_task[solutions]"] + own["oracle.run_task[epis]"]
        values["oracle.tuples_per_s"] = self.scanned / scan_s if scan_s else 0.0
        return values

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")
