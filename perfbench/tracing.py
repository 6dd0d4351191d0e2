"""Per-layer tracing of ``impartial`` from outside the package.

``Tracer.install`` replaces the public functions of engine, closed_forms,
rulesets, isomorphism, verification and cli with wrappers, at every place a
caller looks them up: the module attribute, names bound by ``from ...
import`` in isomorphism, and the function references the ``Ruleset``
objects hold.  Two kinds of wrapper:

* spans (name, start, end, parent, seconds spent in hot functions, seconds
  excluded) at the coarse boundaries: cli.main, each verification check,
  the grid builders, check_isomorphism, and engine grundy / best_move;
* aggregated counters (calls, seconds) for the per-position functions that
  run millions of times: scalar closed forms, option enumerators, mex and
  the isomorphism map.  Their time is charged to the innermost open span so
  its self time excludes it.

Everything stays in memory until ``write``; ``layer_metrics`` turns a
written trace into the per-layer metrics.
"""

from __future__ import annotations

import json
import tracemalloc
from time import perf_counter

# The verify checks, in the order verification.CHECK_NAMES lists them.
CHECKS = ["delete-nim", "vdn", "bouton", "sum", "proof-steps", "iso"]

# Hot function groups: group -> (module, function names).
HOT = {
    "closed_forms.scalar": ("closed_forms", ["delete_nim_grundy", "vdn_grundy", "nim_sum", "bouton_is_p"]),
    "rulesets.options": ("rulesets", ["delete_nim_options", "vdn_options", "nim_options", "sum_options"]),
    "engine.mex": ("engine", ["mex"]),
    "isomorphism.map": ("isomorphism", ["vdn_to_delete", "delete_to_vdn"]),
}


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, hot seconds, excluded seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # group -> [calls, seconds, edges]; edges only for option enumerators
        self.hot = {group: [0, 0.0, 0] for group in HOT}
        self.counts = {"engine.dense_grid.cells": 0, "engine.dense_grid.diagonals": 0,
                       "engine.dense_grid.lookups": 0, "engine.dense_grid.peak_alloc_mb": 0.0,
                       "closed_forms.grid.cells": 0, "closed_forms.grid.peak_alloc_mb": 0.0,
                       "engine.grundy.memo_entries": 0}

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _hot(self, group: str, fn):
        totals, spans, stack = self.hot[group], self.spans, self.stack
        busy = [False]  # an inner call of the same group (bouton_is_p -> nim_sum) is not counted again

        def wrapper(*args, **kwargs):
            if busy[0]:
                return fn(*args, **kwargs)
            busy[0] = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy[0] = False
            seconds = perf_counter() - start
            totals[0] += 1
            totals[1] += seconds
            if group == "rulesets.options":
                totals[2] += len(result)
            if stack:
                spans[stack[-1]][4] += seconds
            return result

        return wrapper

    def _grid(self, layer: str, fn, diagonals=None):
        """Span plus cells, peak traced allocation and, for engine grids, a
        view that counts the cells callers read back."""
        import numpy as np

        counts = self.counts
        probed = [-1]  # largest bound measured so far; peak memory grows with the bound

        class Counted(np.ndarray):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                counts["engine.dense_grid.lookups"] += int(np.size(out))
                return out

        def build(bound, *args, **kwargs):
            grid = fn(bound, *args, **kwargs)
            counts[f"{layer}.cells"] += grid.size
            if diagonals is not None:
                counts[f"{layer}.diagonals"] += diagonals(bound)
            return grid

        timed = self._span(layer, build)

        def wrapper(bound, *args, **kwargs):
            grid = timed(bound, *args, **kwargs)
            if bound > probed[0]:
                probed[0] = bound
                self._memory_probe(f"{layer}.peak_alloc_mb", fn, bound, args, kwargs)
            return grid if diagonals is None else grid.view(Counted)

        return wrapper

    def _memory_probe(self, key: str, fn, bound, args, kwargs) -> None:
        """Peak traced allocation of one more call under tracemalloc, which
        slows allocation several-fold; its time is excluded from every
        enclosing span."""
        start = perf_counter()
        tracemalloc.start()
        try:
            fn(bound, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.counts[key] = max(self.counts[key], peak)
        seconds = perf_counter() - start
        for index in self.stack:
            self.spans[index][5] += seconds

    def _grundy(self, fn):
        counts = self.counts

        def grundy(pos, rules, memo=None, budget=None):
            if memo is None:
                memo = {}
            before = len(memo)
            try:
                return fn(pos, rules, memo, budget)
            finally:
                counts["engine.grundy.memo_entries"] += len(memo) - before

        return self._span("engine.grundy", grundy)

    def _check(self, fn):
        spans = {name: self._span(f"verification.{name}", fn) for name in CHECKS}

        def run_check(name, *args, **kwargs):
            return spans[name](name, *args, **kwargs)

        return run_check

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from impartial import cli, closed_forms, engine, isomorphism, rulesets, verification

        modules = {"closed_forms": closed_forms, "rulesets": rulesets,
                   "engine": engine, "isomorphism": isomorphism}
        for group, (module_name, names) in HOT.items():
            module = modules[module_name]
            for name in names:
                setattr(module, name, self._hot(group, getattr(module, name)))
        # isomorphism binds the enumerators by name; Ruleset objects hold their own references
        for name in ("delete_nim_options", "vdn_options"):
            setattr(isomorphism, name, getattr(rulesets, name))
        for rules in rulesets.RULESETS.values():
            object.__setattr__(rules, "options", getattr(rulesets, rules.options.__name__))
        engine.delete_nim_grid = self._grid("engine.dense_grid", engine.delete_nim_grid,
                                            lambda n: 2 * n + 1)
        engine.vdn_grid = self._grid("engine.dense_grid", engine.vdn_grid,
                                     lambda n: max(2 * n - 1, 0))
        for name in ("delete_nim_grundy_grid", "vdn_grundy_grid"):
            setattr(closed_forms, name, self._grid("closed_forms.grid", getattr(closed_forms, name)))
        engine.grundy = self._grundy(engine.grundy)
        engine.best_move = self._span("engine.best_move", engine.best_move)
        isomorphism.check_isomorphism = self._span("isomorphism.check", isomorphism.check_isomorphism)
        verification.run_check = self._check(verification.run_check)
        cli.main = self._span("cli.main", cli.main)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hot": self.hot, "counts": self.counts}, fh)


# -- turning a trace into per-layer metrics -----------------------------------

PER_LAYER = {
    "engine.dense_grid.calls": "count",
    "engine.dense_grid.s": "s",
    "engine.dense_grid.cells": "count",
    "engine.dense_grid.diagonals": "count",
    "engine.dense_grid.peak_alloc_mb": "MB",
    "engine.dense_grid.useful_ratio": "ratio",
    "closed_forms.grid.calls": "count",
    "closed_forms.grid.s": "s",
    "closed_forms.grid.cells": "count",
    "closed_forms.grid.peak_alloc_mb": "MB",
    "closed_forms.scalar.calls": "count",
    "closed_forms.scalar.s": "s",
    "rulesets.options.calls": "count",
    "rulesets.options.s": "s",
    "rulesets.options.edges": "count",
    "engine.grundy.calls": "count",
    "engine.grundy.self_s": "s",
    "engine.grundy.memo_entries": "count",
    "engine.mex.calls": "count",
    "engine.best_move.calls": "count",
    "engine.best_move.self_s": "s",
    "isomorphism.check.s": "s",
    "isomorphism.map.calls": "count",
    **{f"verification.{name}.s": "s" for name in CHECKS},
    "verification.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.table.bytes_written": "B",
    "trace.overhead_s": "s",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the two the trace
    cannot know (cli.table.bytes_written and trace.overhead_s)."""
    spans = trace["spans"]
    durations = [end - start - excluded for _, start, end, _, _, excluded in spans]
    child_s = [0.0] * len(spans)
    for (_, _, _, parent, _, _), duration in zip(spans, durations):
        if parent >= 0:
            child_s[parent] += duration
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, _, _, _, hot_s, _), duration, children in zip(spans, durations, child_s):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - children - hot_s
    counts, hot = trace["counts"], trace["hot"]
    cells = counts["engine.dense_grid.cells"]
    m = {
        "engine.dense_grid.calls": calls.get("engine.dense_grid", 0),
        "engine.dense_grid.s": total.get("engine.dense_grid", 0.0),
        "engine.dense_grid.cells": cells,
        "engine.dense_grid.diagonals": counts["engine.dense_grid.diagonals"],
        "engine.dense_grid.peak_alloc_mb": counts["engine.dense_grid.peak_alloc_mb"],
        "engine.dense_grid.useful_ratio": counts["engine.dense_grid.lookups"] / cells if cells else 0.0,
        "closed_forms.grid.calls": calls.get("closed_forms.grid", 0),
        "closed_forms.grid.s": total.get("closed_forms.grid", 0.0),
        "closed_forms.grid.cells": counts["closed_forms.grid.cells"],
        "closed_forms.grid.peak_alloc_mb": counts["closed_forms.grid.peak_alloc_mb"],
        "closed_forms.scalar.calls": hot["closed_forms.scalar"][0],
        "closed_forms.scalar.s": hot["closed_forms.scalar"][1],
        "rulesets.options.calls": hot["rulesets.options"][0],
        "rulesets.options.s": hot["rulesets.options"][1],
        "rulesets.options.edges": hot["rulesets.options"][2],
        "engine.grundy.calls": calls.get("engine.grundy", 0),
        "engine.grundy.self_s": self_s.get("engine.grundy", 0.0),
        "engine.grundy.memo_entries": counts["engine.grundy.memo_entries"],
        "engine.mex.calls": hot["engine.mex"][0],
        "engine.best_move.calls": calls.get("engine.best_move", 0),
        "engine.best_move.self_s": self_s.get("engine.best_move", 0.0),
        "isomorphism.check.s": total.get("isomorphism.check", 0.0),
        "isomorphism.map.calls": hot["isomorphism.map"][0],
        "verification.self_s": sum(self_s.get(f"verification.{c}", 0.0) for c in CHECKS),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    for c in CHECKS:
        m[f"verification.{c}.s"] = total.get(f"verification.{c}", 0.0)
    return m
