"""Outside-in layer trace for the desk benchmark.

Spans are recorded from the benchmark's side: every public module-level
function of the traced hyperlab modules is replaced, in every hyperlab
namespace that binds it, by a wrapper that opens a span named
``<layer>.<function>``.  A few methods that carry the hot loops get the same
treatment, and ``WeightSeq.weight`` gets a bare counter with no span.

Spans are folded into per-name totals as they close (self time is the span's
duration minus the durations of its direct children), so memory stays flat
however many calls a workload makes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("seqspace", "fhc", "density", "checkers", "matops", "hardy", "cli")

# Functions reported under one metric name.  The two eigencheck entry points
# and the nuclear variant are one kernel layer; the four checkers are one
# checker layer; the two public weight-product loops are one engine.
ALIASES = {
    "seqspace.weight_log_product": "seqspace.weight_product",
    "hardy.adjoint_kernel_eigencheck": "hardy.eigencheck",
    "hardy.conjugation_eigencheck": "hardy.eigencheck",
    "hardy.nuclear_eigencheck": "hardy.eigencheck",
    "checkers.check_unilateral_growth": "checkers.check",
    "checkers.check_bilateral_growth_decay": "checkers.check",
    "checkers.check_schatten_summability": "checkers.check",
    "checkers.check_diagonal_forward_summability": "checkers.check",
}

# Span opened around the benchmark's own bookkeeping inside a wrapper, so it
# is charged neither to the traced function nor to its caller.
HOOK_SPAN = "trace.hook"

# Every per-layer metric the trace reports, with its unit.  A metric whose
# span or counter is installed but never reached on a workload reads 0.
PER_LAYER_UNITS = {
    "seqspace.weight.evals": "count",
    "seqspace.weight_product.calls": "count",
    "seqspace.weight_product.factors": "count",
    "seqspace.weight_product.self_s": "s",
    "seqspace.prefix.max_index": "count",
    "seqspace.prefix.self_s": "s",
    "seqspace.shift_power_apply.calls": "count",
    "seqspace.shift_power_apply.jump_total": "count",
    "seqspace.shift_power_apply.self_s": "s",
    "seqspace.lp_norm.calls": "count",
    "seqspace.lp_norm.self_s": "s",
    "fhc.verify_q_frequent_visits.self_s": "s",
    "fhc.verify_q_frequent_visits.times_scanned": "count",
    "fhc.verify_q_frequent_visits.truncated_classes": "count",
    "fhc.assemble_vector.self_s": "s",
    "fhc.assemble_vector.support": "count",
    "fhc.inverse_point.calls": "count",
    "fhc.inverse_point.self_s": "s",
    "fhc.find_tail_threshold.calls": "count",
    "fhc.find_tail_threshold.self_s": "s",
    "fhc.find_tail_threshold.thresholds": "count",
    "density.q_lower_density.calls": "count",
    "density.q_lower_density.profile_points": "count",
    "density.q_lower_density.self_s": "s",
    "checkers.check.self_s": "s",
    "checkers.check.grid_cells": "count",
    "checkers.check.table_indices": "count",
    "matops.singular_values.calls": "count",
    "matops.singular_values.sweeps": "count",
    "matops.singular_values.pair_visits": "count",
    "matops.singular_values.unconverged": "count",
    "matops.singular_values.window.self_s": "s",
    "matops.singular_values.dense.self_s": "s",
    "matops.singular_values.repeat_ratio": "ratio",
    "matops.shift_matrix.self_s": "s",
    "matops.conjugation.self_s": "s",
    "hardy.eigencheck.self_s": "s",
    "hardy.eigencheck.dim_total": "count",
    "hardy.unimodular_locus_sample.self_s": "s",
    "hardy.unimodular_locus_sample.points": "count",
    "hardy.span_density_residual.self_s": "s",
    "hardy.mult_op_matrix.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class SpanClock:
    """Folds nested spans into per-name self time and call counts.

    Callers pass the clock readings, so the arithmetic can be checked on a
    synthetic span tree.  ``covered_s`` is the total duration of top-level
    spans, i.e. the part of the run some span covers.
    """

    def __init__(self):
        self._stack: list = []           # [name, start, child_seconds]
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.covered_s = 0.0

    def enter(self, name: str, t: float) -> None:
        self._stack.append([name, t, 0.0])

    def exit(self, t: float) -> float:
        """Close the innermost span at time t; returns its self time."""
        name, start, child = self._stack.pop()
        dur = t - start
        own = dur - child
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.covered_s += dur
        return own


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


class Tracer:
    """Installs the wrappers into the imported hyperlab modules and turns the
    folded spans and counters into the per-layer metrics.

    Every target is reached directly, so a renamed or removed one makes
    install() raise instead of reading 0."""

    def __init__(self):
        self.clock = SpanClock()
        self.counts: dict = {}
        self._spans: set = set()         # metric names some wrapper feeds
        self._seen_matrices: set = set()

    # -- task boundaries -----------------------------------------------------

    def start_task(self) -> None:
        """Matrix repeats are counted within one task."""
        self._seen_matrices.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name, after=None):
        """fn inside a span; after(arguments, out, own) then reads the call's
        bound arguments and result under the hook span, so its time is
        charged to no layer."""
        clock = self.clock
        perf = time.perf_counter
        sig = inspect.signature(fn) if after is not None else None
        self._spans.add(ALIASES.get(name, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock.enter(name, perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                own = clock.exit(perf())
            if after is not None:
                clock.enter(HOOK_SPAN, perf())
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, out, own)
                finally:
                    clock.exit(perf())
            return out

        return wrapper

    def _after_hooks(self) -> dict:
        """Hooks by metric name, each with the counters it feeds."""
        c = self.counts

        def weight_product(a, out, own):
            c["seqspace.weight_product.factors"] += max(0, a["stop"] - a["start"] + 1)

        def shift_power_apply(a, out, own):
            c["seqspace.shift_power_apply.jump_total"] += a["m"]

        def verify(a, out, own):
            if out:
                c["fhc.verify_q_frequent_visits.times_scanned"] += out[0].visit_times.horizon
            c["fhc.verify_q_frequent_visits.truncated_classes"] += sum(r.truncated for r in out)

        def assemble(a, out, own):
            c["fhc.assemble_vector.support"] += len(out)

        def threshold(a, out, own):
            c["fhc.find_tail_threshold.thresholds"] += out

        def density(a, out, own):
            c["density.q_lower_density.profile_points"] += len(out.profile)

        def check(a, out, own):
            grid = a["grid"]
            c["checkers.check.grid_cells"] += (len(grid.i_range) * len(grid.j_range)
                                               * (grid.r_max + 1))

        def singular_values(a, out, own):
            A = a["A"]
            n = min(A.rows, A.cols)
            c["matops.singular_values.sweeps"] += out.sweeps
            c["matops.singular_values.pair_visits"] += out.sweeps * n * (n - 1) // 2
            c["matops.singular_values.unconverged"] += not out.converged
            # one sweep with no rotation means the columns were already
            # orthogonal: the shift-window path
            path = "window" if out.sweeps <= 1 else "dense"
            c[f"matops.singular_values.{path}.self_s"] += own
            key = hashlib.sha1(repr(A.data.shape).encode()
                               + A.data.tobytes()).digest()
            if key in self._seen_matrices:
                c["matops.singular_values.repeats"] += 1
            self._seen_matrices.add(key)

        def eigencheck(a, out, own):
            c["hardy.eigencheck.dim_total"] += out.truncation_dim

        def locus(a, out, own):
            c["hardy.unimodular_locus_sample.points"] += len(out)

        sv = "matops.singular_values"
        return {
            "seqspace.weight_product": (weight_product, ["seqspace.weight_product.factors"]),
            "seqspace.shift_power_apply": (shift_power_apply,
                                           ["seqspace.shift_power_apply.jump_total"]),
            "fhc.verify_q_frequent_visits": (verify, [
                "fhc.verify_q_frequent_visits.times_scanned",
                "fhc.verify_q_frequent_visits.truncated_classes"]),
            "fhc.assemble_vector": (assemble, ["fhc.assemble_vector.support"]),
            "fhc.find_tail_threshold": (threshold, ["fhc.find_tail_threshold.thresholds"]),
            "density.q_lower_density": (density, ["density.q_lower_density.profile_points"]),
            "checkers.check": (check, ["checkers.check.grid_cells"]),
            sv: (singular_values, [f"{sv}.sweeps", f"{sv}.pair_visits", f"{sv}.unconverged",
                                   f"{sv}.window.self_s", f"{sv}.dense.self_s",
                                   f"{sv}.repeats"]),
            "hardy.eigencheck": (eigencheck, ["hardy.eigencheck.dim_total"]),
            "hardy.unimodular_locus_sample": (locus, ["hardy.unimodular_locus_sample.points"]),
        }

    def install(self) -> None:
        """Wrap the traced names, once per process.  Import hyperlab from the
        checkout first.  Raises when a target is missing or a per-layer
        metric has no span or counter to feed it."""
        mods = {layer: importlib.import_module(f"hyperlab.{layer}") for layer in LAYERS}
        hooks = self._after_hooks()
        replaced = {}
        for layer, mod in mods.items():
            for name, fn in _public_functions(mod):
                span = f"{layer}.{name}"
                hook, keys = hooks.get(ALIASES.get(span, span), (None, []))
                for key in keys:
                    self.counts[key] = 0
                replaced[fn] = self._span(fn, span, hook)
        # a name imported with `from .x import f` is bound in the importing
        # module too; replace it wherever it is bound
        for modname, mod in list(sys.modules.items()):
            if modname == "hyperlab" or modname.startswith("hyperlab."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in replaced:
                        setattr(mod, attr, replaced[val])
        self._install_methods(mods)
        missing = sorted(set(hooks) - self._spans)
        if missing:
            raise RuntimeError(f"no traced function feeds the hooks of {missing}")
        self.metrics()      # raises when a per-layer metric has no source

    def _install_methods(self, mods) -> None:
        c = self.counts
        seqspace, fhc, checkers = mods["seqspace"], mods["fhc"], mods["checkers"]

        weight = seqspace.WeightSeq.weight
        c["seqspace.weight.evals"] = 0

        def counted_weight(*args, **kwargs):
            c["seqspace.weight.evals"] += 1
            return weight(*args, **kwargs)

        seqspace.WeightSeq.weight = counted_weight

        # the instance is the method's first parameter however the call
        # passes the others; reading the table sizes needs no binding, which
        # would cost more than the lookup it times
        prefix_cls = seqspace.WeightPrefix
        c["seqspace.prefix.max_index"] = 0

        def sized(spanned):
            @functools.wraps(spanned)
            def method(pre, *args, **kwargs):
                out = spanned(pre, *args, **kwargs)
                top = max(len(pre._pos_log), len(pre._neg_log)) - 1
                if top > c["seqspace.prefix.max_index"]:
                    c["seqspace.prefix.max_index"] = top
                return out
            return method

        for meth in ("product", "inverse_product"):
            fn = getattr(prefix_cls, meth)
            setattr(prefix_cls, meth, sized(self._span(fn, "seqspace.prefix")))

        family_cls = fhc.BackwardOrbitFamily
        family_cls.inverse_point = self._span(family_cls.inverse_point, "fhc.inverse_point")

        table_cls = checkers._LogTable
        table_init = table_cls.__init__
        table_sig = inspect.signature(table_init)
        c["checkers.check.table_indices"] = 0

        def counted_init(*args, **kwargs):
            a = table_sig.bind(*args, **kwargs).arguments
            c["checkers.check.table_indices"] += a["hi"] - a["lo"] + 1
            table_init(*args, **kwargs)

        table_cls.__init__ = counted_init

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values (without the run-level trace.* entries).
        A metric that no installed span or counter feeds raises KeyError."""
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for name in self._spans:
            layer = name.split(".", 1)[0]
            self_s[name], calls[name], self_s[layer] = 0.0, 0, 0.0
        for name, own in self.clock.self_s.items():
            if name == HOOK_SPAN:
                continue
            metric = ALIASES.get(name, name)
            self_s[metric] += own
            calls[metric] += self.clock.calls[name]
            self_s[name.split(".", 1)[0]] += own
        out = {}
        for key in PER_LAYER_UNITS:
            base, _, field = key.rpartition(".")
            if key in self.counts:
                out[key] = self.counts[key]
            elif field == "self_s" and base in self_s:
                out[key] = self_s[base]
            elif field == "calls" and base in calls:
                out[key] = calls[base]
            elif key != "matops.singular_values.repeat_ratio":
                raise KeyError(f"no installed span or counter feeds {key}")
        runs = calls["matops.singular_values"]
        repeats = self.counts["matops.singular_values.repeats"]
        out["matops.singular_values.repeat_ratio"] = repeats / runs if runs else 0.0
        return out
