"""Per-layer tracing of congsub, installed from outside the package.

A layer is a congsub module, plus ``abelianize.smith`` for the
``smith_invariants`` kernel.  The tracer wraps each public function at
the places where another module reaches it: names bound by
``from .x import f`` are replaced by traced wrappers, and module
references (``from . import rewriting``) by views whose public
functions are traced.  Calls inside one module stay untraced, except for
three probes that count work the layer does internally:
``abelianize.smith_invariants``, ``autpres.signed_coset_table`` and
``fingroups.orbit_stabilizer``.

Each call becomes a span (parent span, job id, layer, start, end), kept
in memory.  A layer's self time is its spans' durations minus the time
covered by their child spans.  Counters read the arguments and results
at the same boundaries; the time they take is recorded as ``tracing``
spans, so it is charged to the tracer and not to any layer.
"""
from __future__ import annotations

import functools
import itertools
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "abelianize", "autpres", "rewriting", "cosets", "fingroups", "matgroup")
LAYERS = ("cli", "abelianize", "abelianize.smith", "autpres", "rewriting", "cosets", "fingroups", "matgroup")
LAYER_OF = {("abelianize", "smith_invariants"): "abelianize.smith"}
INNER_PROBES = (
    ("abelianize", "smith_invariants"),
    ("autpres", "signed_coset_table"),
    ("fingroups", "orbit_stabilizer"),
)
COUNTS = (
    "cosets.cosets",
    "rewriting.schreier_gens",
    "rewriting.pres_gens",
    "rewriting.pres_relators",
    "autpres.states",
    "autpres.rows",
    "autpres.cols",
    "autpres.cells",
    "abelianize.smith.rows",
    "abelianize.smith.cols",
    "abelianize.smith.nnz",
    "abelianize.smith.empty_cols",
    "fingroups.epis",
    "fingroups.orbit_states",
)
TRACING = "tracing"


def _count_table(tracer, args, table):
    tracer.counts["cosets.cosets"] += table.n


def _count_schreier(tracer, args, gens):
    tracer.counts["rewriting.schreier_gens"] += len(gens)


def _count_presentation(tracer, args, pres):
    tracer.counts["rewriting.pres_gens"] += pres.n_generators
    tracer.counts["rewriting.pres_relators"] += len(pres.relators)


def _count_signed_table(tracer, args, table):
    tracer.counts["autpres.states"] += table.n
    tracer.last_signed_states = table.n


def _count_relation_rows(tracer, args, result):
    # the signed table of this call was counted by the probe just before
    rows, n_syms = result
    n_relators = len(tracer.modules["autpres"].presentation().relators)
    tracer.counts["autpres.rows"] += len(rows)
    tracer.counts["autpres.cols"] += n_syms
    # one dense row of n_syms cells is built per (relator, state)
    tracer.counts["autpres.cells"] += n_relators * tracer.last_signed_states * n_syms


def _count_smith(tracer, args, result):
    rows, n_cols = args[0], args[1]
    used: set[int] = set()
    nnz = 0
    for r in rows:
        nnz += len(r) - r.count(0)
        used.update(itertools.compress(range(len(r)), r))
    tracer.counts["abelianize.smith.rows"] += len(rows)
    tracer.counts["abelianize.smith.cols"] += n_cols
    tracer.counts["abelianize.smith.nnz"] += nnz
    tracer.counts["abelianize.smith.empty_cols"] += n_cols - len(used)
    tracer.smith_cells += len(rows) * n_cols


def _count_epis(tracer, args, epis):
    tracer.counts["fingroups.epis"] += len(epis)


def _count_orbit(tracer, args, orbit):
    tracer.counts["fingroups.orbit_states"] += orbit.signed_orbit_size


COUNTERS = {
    ("cosets", "congruence_table"): _count_table,
    ("cosets", "enumerate_cosets"): _count_table,
    ("rewriting", "schreier_generators"): _count_schreier,
    ("rewriting", "subgroup_presentation"): _count_presentation,
    ("autpres", "signed_coset_table"): _count_signed_table,
    ("autpres", "stabilizer_relation_rows"): _count_relation_rows,
    ("abelianize", "smith_invariants"): _count_smith,
    ("fingroups", "epi_set"): _count_epis,
    ("fingroups", "orbit_stabilizer"): _count_orbit,
}


class _TracedModule:
    """A module whose public functions are looked up as traced wrappers."""

    def __init__(self, module, wrappers):
        self._module = module
        self._wrappers = wrappers

    def __getattr__(self, name):
        wrapper = self._wrappers.get(name)
        return wrapper if wrapper is not None else getattr(self._module, name)


class Tracer:
    """Spans and counters for one pass of jobs."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.spans: list = []  # (parent span index or None, job id, layer, start, end)
        self.counts: Counter = Counter()
        self.smith_cells = 0
        self.last_signed_states = 0
        self.job = None
        self._open: list[int] = []
        self._wrappers: dict[str, dict[str, object]] = {name: {} for name in modules}

    def _wrap(self, short: str, name: str, fn):
        layer = LAYER_OF.get((short, name), short)
        counter = COUNTERS.get((short, name))
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (parent, self.job, layer, start, end)
            if counter is not None:
                counter(self, args, result)
                spans.append((parent, self.job, TRACING, end, perf_counter()))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the package while the block runs; yields the traced api."""
        originals = {short: dict(vars(mod)) for short, mod in self.modules.items()}
        by_module = {mod.__name__: short for short, mod in self.modules.items()}
        for short, names in originals.items():
            for name, value in names.items():
                if isinstance(value, types.FunctionType) and not name.startswith("_") \
                        and value.__module__ == self.modules[short].__name__:
                    self._wrappers[short][name] = self._wrap(short, name, value)
        undo = []

        def patch(module, name, value):
            undo.append((module, name, getattr(module, name)))
            setattr(module, name, value)

        views = {short: _TracedModule(mod, self._wrappers[short]) for short, mod in self.modules.items()}
        try:
            for short, names in originals.items():
                module = self.modules[short]
                for name, value in names.items():
                    if isinstance(value, types.ModuleType) and value.__name__ in by_module:
                        patch(module, name, views[by_module[value.__name__]])
                    elif isinstance(value, types.FunctionType):
                        owner = by_module.get(value.__module__)
                        wrapper = self._wrappers[owner].get(value.__name__) if owner else None
                        if wrapper is not None and owner != short:
                            patch(module, name, wrapper)
            for short, name in INNER_PROBES:
                patch(self.modules[short], name, self._wrappers[short][name])
            yield types.SimpleNamespace(**views)
        finally:
            for module, name, value in reversed(undo):
                setattr(module, name, value)

    @contextmanager
    def job_span(self, job_id: str):
        """Root span of one job; its self time is the job's own glue code."""
        self.job = job_id
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = (None, job_id, None, start, perf_counter())
            self.job = None

    def self_times(self) -> dict:
        """Self time per layer, with ``tracing`` and ``None`` (job glue)."""
        covered = [0.0] * len(self.spans)
        for parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for (_, _, layer, start, end), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric by name; layers a pass did not reach read 0."""
        own = self.self_times()
        calls = Counter(layer for _, _, layer, _, _ in self.spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = own.get(layer, 0.0)
            out[layer + ".calls"] = calls.get(layer, 0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        out["abelianize.smith.fill"] = (
            self.counts["abelianize.smith.nnz"] / self.smith_cells if self.smith_cells else 0.0
        )
        return out
