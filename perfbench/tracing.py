"""Per-layer tracing of equilab from outside the package.

`Tracer.install()` replaces selected equilab functions, at every module
binding that refers to them, by wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory in compact
arrays and are written out once, at the end of a run.  Alongside the spans
the wrappers keep the deterministic counters the layer metrics need (LP
pivots, branch-and-bound nodes, demand pieces, euphemia combos), so that
ratios are measured where the work happens.

Self time is a span's duration minus the time covered by its direct child
spans; a layer's `_s` figure is the summed self time of its functions.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

from equilab.lp import InfeasibleError

# (span name, module, attribute, workload).  The attribute is looked up in
# `module`; a dotted attribute names a method on a class of that module.  The
# span name is the layer followed by the function; the workload is the one
# whose end-to-end metrics the layer is expected to move.
TRACED = (
    ("lp.solve_lp", "equilab.lp", "solve_lp", "clear_large"),
    ("convexify.build", "equilab.convexify", "build_convexified", "montecarlo"),
    ("convexify.solve", "equilab.convexify", "solve_lp", "montecarlo"),
    ("convexify.dual_value", "equilab.convexify", "dual_value", "montecarlo"),
    ("welfare.solve_welfare", "equilab.welfare", "solve_welfare", "clear_large"),
    ("demand.demand_set", "equilab.demand", "demand_set", "approx_corpus"),
    ("demand.contains", "equilab.demand", "DemandSet.contains", "montecarlo"),
    ("demand.nonconvexity", "equilab.demand", "nonconvexity", "approx_corpus"),
    ("demand.best_surplus", "equilab.demand", "agent_best_surplus", "approx_corpus"),
    ("geometry.piece_nearest", "equilab.geometry", "piece_nearest", "approx_corpus"),
    ("geometry.union_nearest", "equilab.geometry", "union_nearest", "approx_corpus"),
    ("equilibria.approximate", "equilab.equilibria", "approximate_equilibria",
     "approx_corpus"),
    ("equilibria.lp_allocation", "equilab.equilibria", "balanced_lp_allocation",
     "approx_corpus"),
    ("equilibria.snapped", "equilab.equilibria", "demand_snapped_allocation",
     "approx_corpus"),
    ("equilibria.hull_pricing", "equilab.equilibria", "convex_hull_pricing",
     "approx_corpus"),
    ("equilibria.detect", "equilab.equilibria", "detect_equilibrium", "approx_corpus"),
    ("equilibria.loc", "equilab.equilibria", "lost_opportunity_cost", "approx_corpus"),
    ("euphemia.clear", "equilab.euphemia", "clear_euphemia_style", "euphemia_corpus"),
    ("euphemia.clear_combo", "equilab.euphemia", "_clear_combo", "euphemia_corpus"),
    ("random_markets.monte_carlo", "equilab.random_markets",
     "monte_carlo_equilibrium_probability", "montecarlo"),
    ("random_markets.gen", "equilab.random_markets", "gen_simple_random_market",
     "montecarlo"),
    ("random_markets.certify", "equilab.random_markets", "certified_equilibrium",
     "montecarlo"),
    ("market_io.parse", "equilab.market_io", "parse_market", "clear_large"),
    ("market_io.emit", "equilab.market_io", "emit_outcome", "clear_large"),
    ("cli.clear", "equilab.cli", "cmd_clear", "clear_large"),
)

# Span names whose open calls attribute inner LP solves to their layer.
_LP_OWNERS = ("welfare.solve_welfare", "euphemia.clear")


class Tracer:
    """Records spans and counters for the traced equilab functions.

    Spans are recorded only while `enabled` is true, so set-up, warm-up and
    output checks between ops leave no trace.
    """

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []       # [span index, child seconds]
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each equilab binding of it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "equilab" or name.startswith("equilab.")) and m]
        for span, modname, attr, _ in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def _patch(self, target, key, value) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    # -- recording ---------------------------------------------------------

    def _wrap(self, span: str, fn):
        code = self._code.setdefault(span, len(self.names))
        if code == len(self.names):
            self.names.append(span)
        on_result = _RESULT_COUNTERS.get(span)
        lp_call = span == "lp.solve_lp"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(code)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer._open[span] += 1
            start = clock()
            tracer.span_start.append(start)   # index idx, like the others
            failed = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                failed = exc
                raise
            finally:
                end = clock()
                tracer.span_end[idx] = end
                stack.pop()
                tracer._open[span] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[1]
                if lp_call:
                    tracer._count_lp(failed)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return traced

    def _count_lp(self, failed) -> None:
        infeasible = isinstance(failed, InfeasibleError)
        self.counts["lp.infeasible"] += infeasible
        for owner in _LP_OWNERS:
            if self._open[owner]:
                self.counts[f"{owner}.lp_calls"] += 1
                self.counts[f"{owner}.lp_infeasible"] += infeasible

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the spans as CSV (name, start, end, parent, op); returns count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r},"
                         f"{self.span_parent[i]},{self.span_op[i]}\n")
        return len(self.span_start)


def _lp_result(counts, res):
    counts["lp.pivots"] += res.iterations


def _welfare_result(counts, res):
    counts["welfare.nodes"] += res.nodes


def _demand_result(counts, res):
    counts["demand.pieces"] += len(res.pieces)


def _euphemia_result(counts, res):
    counts["euphemia.combos"] += res.combos_checked


def _combo_result(counts, res):
    counts["euphemia.useful"] += res is not None


_RESULT_COUNTERS = {
    "lp.solve_lp": _lp_result,
    "welfare.solve_welfare": _welfare_result,
    "demand.demand_set": _demand_result,
    "euphemia.clear": _euphemia_result,
    "euphemia.clear_combo": _combo_result,
}


def layer_metrics(tracer: Tracer, agents: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}.

    `agents` is the number of agents whose markets the traced ops handled; it
    is the base of `demand.demand_set_per_agent`.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    lp_s = self_s["lp.solve_lp"]
    pivots = counts["lp.pivots"]
    out = {
        "lp.calls": (calls["lp.solve_lp"], "count"),
        "lp.pivots": (pivots, "count"),
        "lp.infeasible": (counts["lp.infeasible"], "count"),
        "lp.busy_s": (lp_s, "s"),
        "lp.us_per_pivot": (ratio(lp_s * 1e6, pivots), "us"),
        "lp.us_per_call": (ratio(lp_s * 1e6, calls["lp.solve_lp"]), "us"),
        "convexify.build_calls": (calls["convexify.build"], "count"),
        "convexify.build_s": (self_s["convexify.build"], "s"),
        "convexify.solve_calls": (calls["convexify.solve"], "count"),
        "convexify.solve_s": (self_s["convexify.solve"], "s"),
        "convexify.dual_value_calls": (calls["convexify.dual_value"], "count"),
        "convexify.dual_value_s": (self_s["convexify.dual_value"], "s"),
        "welfare.calls": (calls["welfare.solve_welfare"], "count"),
        "welfare.nodes": (counts["welfare.nodes"], "count"),
        "welfare.lp_calls": (counts["welfare.solve_welfare.lp_calls"], "count"),
        "welfare.nodes_per_lp": (ratio(counts["welfare.nodes"],
                                       counts["welfare.solve_welfare.lp_calls"]), "ratio"),
        "welfare.busy_s": (self_s["welfare.solve_welfare"], "s"),
        "demand.demand_set_calls": (calls["demand.demand_set"], "count"),
        "demand.demand_set_per_agent": (ratio(calls["demand.demand_set"], agents), "ratio"),
        "demand.pieces": (counts["demand.pieces"], "count"),
        "demand.demand_set_s": (self_s["demand.demand_set"], "s"),
        "demand.contains_calls": (calls["demand.contains"], "count"),
        "demand.contains_s": (self_s["demand.contains"], "s"),
        "demand.nonconvexity_calls": (calls["demand.nonconvexity"], "count"),
        "demand.nonconvexity_s": (self_s["demand.nonconvexity"], "s"),
        "demand.best_surplus_calls": (calls["demand.best_surplus"], "count"),
        "demand.best_surplus_s": (self_s["demand.best_surplus"], "s"),
        "geometry.nearest_calls": (calls["geometry.piece_nearest"]
                                   + calls["geometry.union_nearest"], "count"),
        "geometry.nearest_s": (self_s["geometry.piece_nearest"]
                               + self_s["geometry.union_nearest"], "s"),
        "equilibria.lp_allocation_s": (self_s["equilibria.lp_allocation"], "s"),
        "equilibria.snapped_s": (self_s["equilibria.snapped"], "s"),
        "equilibria.hull_pricing_s": (self_s["equilibria.hull_pricing"], "s"),
        "equilibria.detect_s": (self_s["equilibria.detect"], "s"),
        "equilibria.loc_s": (self_s["equilibria.loc"], "s"),
        "euphemia.calls": (calls["euphemia.clear"], "count"),
        "euphemia.combos": (counts["euphemia.combos"], "count"),
        "euphemia.lp_calls": (counts["euphemia.clear.lp_calls"], "count"),
        "euphemia.lp_infeasible": (counts["euphemia.clear.lp_infeasible"], "count"),
        "euphemia.useful_ratio": (ratio(counts["euphemia.useful"],
                                        counts["euphemia.combos"]), "ratio"),
        "euphemia.busy_s": (self_s["euphemia.clear"] + self_s["euphemia.clear_combo"], "s"),
        "random_markets.gen_s": (self_s["random_markets.gen"], "s"),
        "random_markets.certify_s": (self_s["random_markets.certify"], "s"),
        "market_io.parse_s": (self_s["market_io.parse"], "s"),
        "market_io.emit_s": (self_s["market_io.emit"], "s"),
        "cli.clear_s": (self_s["cli.clear"], "s"),
    }
    return out
