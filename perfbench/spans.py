"""Span tracing of ``substdyn`` from outside the package.

``Tracer.install`` wraps the public entry points of each module of the
package (and a few methods) so that every call records a span: layer name,
start, end, parent span and operation id.  A function imported by name
into other modules is replaced in every module namespace that holds it,
found by identity; modules are taken from ``sys.modules`` because the
package attribute ``substdyn.primitivize`` is the function, not the
submodule.  ``Tracer.remove`` puts every original back.

Spans stay in memory; ``layer_metrics`` turns them into per-layer figures.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "substdyn"

# (module, function, span name).  Spans with no metric of their own (parse,
# complex build, induced map, inverse limit) keep their time out of their
# callers' self time, so that cli.self_s is argument handling plus JSON
# building and emitting.
FUNCTIONS = [
    ("substdyn.cli", "main", "cli.main"),
    ("substdyn.core", "parse_substitution", "core.parse"),
    ("substdyn.language", "periodic_point_search", "language.periodic_search"),
    ("substdyn.classify", "decide_tameness", "classify.tameness"),
    ("substdyn.classify", "is_minimal", "classify.minimality"),
    ("substdyn.classify", "find_seed", "classify.find_seed"),
    ("substdyn.primitivize", "primitivize", "primitivize.primitivize"),
    ("substdyn.primitivize", "return_words", "primitivize.return_words"),
    ("substdyn.primitivize", "verify_conjugacy", "primitivize.verify"),
    ("substdyn.collar", "collar", "collar.collar"),
    ("substdyn.collar", "border_forcing_level", "collar.forcing"),
    ("substdyn.apcomplex", "build_complex", "apcomplex.build"),
    ("substdyn.apcomplex", "induced_map", "apcomplex.induced_map"),
    ("substdyn.apcomplex", "h1_presentation", "apcomplex.h1"),
    ("substdyn.apcomplex", "inverse_limit_presentation", "apcomplex.inverse_limit"),
    ("substdyn.intlin", "mat_pow", "intlin.mat_pow"),
    ("substdyn.intlin", "mat_mul", "intlin.mat_mul"),
    ("substdyn.intlin", "rank", "intlin.rank"),
    ("substdyn.intlin", "det", "intlin.det"),
    ("substdyn.intlin", "column_lattice_basis", "intlin.column_lattice_basis"),
    ("substdyn.intlin", "express_in_basis", "intlin.express_in_basis"),
    ("substdyn.cis", "enumerate_cis", "cis.enumerate"),
    ("substdyn.cis", "diagram_compare", "cis.compare"),
]

# (module, class, method, span name)
METHODS = [
    ("substdyn.language", "LanguageTable", "__init__", "language.table"),
    ("substdyn.cis", "CanonicalizeContext", "__init__", "cis.context"),
    ("substdyn.cis", "CanonicalizeContext", "canonicalize", "cis.canonicalize"),
]

# Called hundreds of thousands of times per pass, so counted without a span.
COUNTED_METHODS = [
    ("substdyn.core", "Substitution", "format_word", "core.format_word"),
]

# (metric, unit): every per-layer figure the traced run reports.
LAYER_METRICS = [
    ("language.tables_built", "count"),
    ("language.table_reuse", "ratio"),
    ("language.table_self_s", "s"),
    ("language.periodic_search_self_s", "s"),
    ("classify.tameness_self_s", "s"),
    ("classify.minimality_self_s", "s"),
    ("classify.find_seed_self_s", "s"),
    ("primitivize.return_words_self_s", "s"),
    ("primitivize.verify_self_s", "s"),
    ("primitivize.self_s", "s"),
    ("collar.collar_self_s", "s"),
    ("collar.letters", "count"),
    ("collar.forcing_self_s", "s"),
    ("apcomplex.h1_self_s", "s"),
    ("apcomplex.edges", "count"),
    ("apcomplex.cycle_rank", "count"),
    ("intlin.self_s", "s"),
    ("intlin.mat_pow_calls", "count"),
    ("intlin.max_entry_bits", "bits"),
    ("cis.context_builds", "count"),
    ("cis.canonicalize_calls", "count"),
    ("cis.canonicalize_self_s", "s"),
    ("cis.enumerate_self_s", "s"),
    ("cis.nodes", "count"),
    ("cis.compare_self_s", "s"),
    ("core.format_word_calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# per-layer metric -> span name whose self time it sums
SELF_TIME_SPANS = {
    "language.table_self_s": "language.table",
    "language.periodic_search_self_s": "language.periodic_search",
    "classify.tameness_self_s": "classify.tameness",
    "classify.minimality_self_s": "classify.minimality",
    "classify.find_seed_self_s": "classify.find_seed",
    "primitivize.return_words_self_s": "primitivize.return_words",
    "primitivize.verify_self_s": "primitivize.verify",
    "primitivize.self_s": "primitivize.primitivize",
    "collar.collar_self_s": "collar.collar",
    "collar.forcing_self_s": "collar.forcing",
    "apcomplex.h1_self_s": "apcomplex.h1",
    "cis.canonicalize_self_s": "cis.canonicalize",
    "cis.enumerate_self_s": "cis.enumerate",
    "cis.compare_self_s": "cis.compare",
    "cli.self_s": "cli.main",
}


def _max_entry_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.table_keys: set = set()
        self.max_entry_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _observe(self, name, args, result):
        """Sizes read off a finished call, at the layer that made them."""
        if name == "language.table":
            table = args[0]
            self.table_keys.add((table.sub, table.max_length, table.margin))
        elif name == "collar.collar":
            self.sizes["collar.letters"] += len(result.sub.alphabet)
        elif name == "apcomplex.build":
            self.sizes["apcomplex.edges"] += len(result.edges)
        elif name == "apcomplex.h1":
            self.sizes["apcomplex.cycle_rank"] += result.rank
        elif name == "cis.enumerate":
            self.sizes["cis.nodes"] += len(result.nodes)
        elif name == "intlin.mat_pow":
            self.max_entry_bits = max(self.max_entry_bits, _max_entry_bits(result))

    def _wrap(self, name, fn):
        spans, child_time, stack = self.spans, self.child_time, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), None, parent, self.op_id]
            spans.append(span)
            child_time.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    child_time[parent] += end - span[1]
            self._observe(name, args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for module_name, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._count(name, cls.__dict__[attr]))

    def remove(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, self.child_time):
            if span[2] is not None:
                out[span[0]] += span[2] - span[1] - children
        return out

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Per-layer figures of the traced pass; ``table_reuse`` is distinct
        (substitution, max_length, margin) keys over tables built."""
        self_times = self.self_times()
        calls = self.span_counts()
        values = {metric: self_times.get(span, 0.0) for metric, span in SELF_TIME_SPANS.items()}
        values["intlin.self_s"] = sum(t for span, t in self_times.items()
                                      if span.startswith("intlin."))
        built = calls["language.table"]
        values["language.tables_built"] = built
        values["language.table_reuse"] = len(self.table_keys) / built if built else 1.0
        values["intlin.mat_pow_calls"] = calls["intlin.mat_pow"]
        values["intlin.max_entry_bits"] = self.max_entry_bits
        values["cis.context_builds"] = calls["cis.context"]
        values["cis.canonicalize_calls"] = calls["cis.canonicalize"]
        values["core.format_word_calls"] = self.counts["core.format_word"]
        for metric in ("collar.letters", "apcomplex.edges", "apcomplex.cycle_rank", "cis.nodes"):
            values[metric] = self.sizes[metric]
        values["trace.overhead_frac"] = overhead_frac
        return {metric: values[metric] for metric, _ in LAYER_METRICS}

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
