"""Per-layer spans and counters around statesel's public functions.

``install`` wraps each traced function and rebinds the wrapper under every
name that refers to the original in a loaded ``statesel`` module, so a call
through ``from .dmdc import rollout`` is seen as well as one through
``dmdc.rollout``. Spans are aggregated as they close: per name, the call
count, total time and self time (total minus the direct children's totals).
Nothing inside ``src/`` changes.

Worker processes forked by the program inherit the wrappers, but what they
record stays in the worker. The traced run reports what it cannot see as
counts (``selection.pool_subsets``, ``selection.pool_restarts``), never as an
estimate of time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); an attribute "Class.method" wraps a method.
TRACED = (
    ("statesel.datamodel", "ingest", "datamodel.ingest"),
    ("statesel.datamodel", "assemble_snapshots", "datamodel.assemble_snapshots"),
    ("statesel.prefilter", "prefilter", "prefilter.prefilter"),
    ("statesel.rfe", "within_subsystem_rfe", "rfe.within_subsystem_rfe"),
    ("statesel.rfe", "cross_influence", "rfe.cross_influence"),
    ("statesel.rfe", "merged_search", "rfe.merged_search"),
    ("statesel.ga", "ga_select", "ga.ga_select"),
    ("statesel.selection", "SubsetEvaluator.evaluate", "selection.evaluate"),
    ("statesel.selection", "SubsetEvaluator.breakdown", "selection.breakdown"),
    ("statesel.selection", "SubsetEvaluator.fit", "selection.fit"),
    ("statesel.selection", "evaluate_subsets", "selection.evaluate_subsets"),
    ("statesel.selection", "run_restarts", "selection.run_restarts"),
    ("statesel.dmdc", "fit_model", "dmdc.fit_model"),
    ("statesel.dmdc", "truncated_svd", "dmdc.truncated_svd"),
    ("statesel.dmdc", "rollout", "dmdc.rollout"),
    ("statesel.cost", "rollout_cost", "cost.rollout_cost"),
    ("statesel.cli", "cmd_select", "cli.cmd_select"),
)


class Tracer:
    """Aggregated spans plus the counters the per-layer metrics need."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.parent_calls: Counter = Counter()  # (parent span, span) -> calls
        self.counts: Counter = Counter()
        self.pool_s = 0.0
        self._stack: list[list] = []  # [name, time covered by direct children]
        self._fitted: set[tuple[int, ...]] = set()

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.parent_calls[(parent, name)] += 1
            self._observe(name, args, kwargs, result, dt)
            return result

        return functools.wraps(fn)(traced)

    def _observe(self, name, args, kwargs, result, dt) -> None:
        """Counters read off a finished call's arguments and result."""
        c = self.counts
        arg = lambda pos, key, default=None: args[pos] if len(args) > pos else kwargs.get(key, default)
        if name == "datamodel.ingest":
            c["ingest_cells"] += sum(r.size for r in result.realizations)
        elif name == "dmdc.rollout":
            c["rollout_steps"] += arg(2, "V").shape[1]
        elif name == "selection.fit":
            key = tuple(sorted(arg(1, "subset")))
            c["refits"] += key in self._fitted
            self._fitted.add(key)
        elif name == "rfe.within_subsystem_rfe":
            c["eliminate_iterations"] += sum(r.iterations for r in result.values())
        elif name == "rfe.merged_search":
            c["subsets_examined"] += result.diagnostics["subsets_examined"]
        elif name == "ga.ga_select":
            c["generations"] += sum(r["generations"] for r in result.diagnostics["restart_best"])
        elif name in ("selection.evaluate_subsets", "selection.run_restarts"):
            if arg(2, "workers", 1) > 1:
                self.pool_s += dt
                if name == "selection.evaluate_subsets":
                    c["pool_subsets"] += len(arg(0, "subsets"))
                else:
                    c["pool_restarts"] += arg(1, "n_restarts")

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        t, s, n, c, pc = self.total, self.self_time, self.calls, self.counts, self.parent_calls
        breakdowns = n["selection.breakdown"]
        misses = pc[("selection.breakdown", "selection.fit")]
        rate = lambda work, secs: work / secs if secs > 0 else 0.0
        return {
            "datamodel.ingest_s": t["datamodel.ingest"],
            "datamodel.ingest_cells_per_s": rate(c["ingest_cells"], t["datamodel.ingest"]),
            "datamodel.snapshot_s": t["datamodel.assemble_snapshots"],
            "prefilter.s": t["prefilter.prefilter"],
            "rfe.eliminate_s": t["rfe.within_subsystem_rfe"],
            "rfe.eliminate_iterations": c["eliminate_iterations"],
            "rfe.cross_influence_s": t["rfe.cross_influence"],
            "rfe.sweep_s": t["rfe.merged_search"],
            "rfe.subsets_examined": c["subsets_examined"],
            "ga.self_s": s["ga.ga_select"],
            "ga.generations": c["generations"],
            # a query is an evaluate call, or a breakdown call made from outside evaluate
            "selection.evaluations": n["selection.evaluate"]
            + breakdowns
            - pc[("selection.evaluate", "selection.breakdown")],
            "selection.fits": n["selection.fit"],
            "selection.cache_hit_ratio": rate(breakdowns - misses, breakdowns),
            "selection.refits": c["refits"],
            "selection.pool_s": self.pool_s,
            "selection.pool_subsets": c["pool_subsets"],
            "selection.pool_restarts": c["pool_restarts"],
            "dmdc.fit_s": t["dmdc.fit_model"],
            "dmdc.svd_s": t["dmdc.truncated_svd"],
            "dmdc.svd_calls": n["dmdc.truncated_svd"],
            "dmdc.rollout_s": t["dmdc.rollout"],
            "dmdc.rollout_steps": c["rollout_steps"],
            "dmdc.rollout_steps_per_s": rate(c["rollout_steps"], t["dmdc.rollout"]),
            "cost.score_s": s["cost.rollout_cost"],
            "cli.self_s": s["cli.cmd_select"],
        }

    def spans(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` under every name bound to it in statesel."""
    for module, attr, name in TRACED:
        importlib.import_module(module)
    modules = [m for k, m in sys.modules.items() if k == "statesel" or k.startswith("statesel.")]
    for module, attr, name in TRACED:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
