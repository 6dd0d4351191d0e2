"""The one rule by which both certificate sweeps, proof-steps and iso,
explain the positions their array twins flag.  It runs no closed form:
each sweep passes its own scalar and array routes."""

from __future__ import annotations

from typing import Callable, Iterable

from . import engine, rulesets


def explain(flagged: Iterable, recheck: Callable, twin: tuple, layouts: Callable) -> list:
    """``(cell, expected, actual)`` lines for the ``flagged`` positions,
    ``(x, y, *values)`` each, ``values`` the array route's there.

    ``recheck(p)`` gives position p's lines from the scalar routes;
    ``twin`` is ``(scalar, array, texts)``: a cell's values as a tuple,
    the arrays of the values of cells (xs, ys), and the expected and
    actual texts of a disagreement of the two; ``layouts(s)`` lists the
    ``(rules, heap)`` whose option layouts (``engine.heap_options``) heap
    s feeds, the twin's first.  At each flagged position p, in row-major
    order: (1) p's lines are what ``recheck`` finds; (2) if that is
    nothing, the twin is audited at p; (3) each heap of p no earlier
    position audited is audited, the larger first: a layout that differs
    as a set from ``rulesets.<game>_heap_options(heap)`` is reported at p,
    and each cell of the first layout where the twin disagrees, once.
    The lines are sorted stably by cell."""
    scalar, array, texts = twin
    lines: list[tuple] = []
    reported: set = set()  # the cells whose disagreement is reported
    audited: set = set()  # the heaps audited

    def audit(cells: Iterable, values: Iterable) -> None:
        for q, h in zip(cells, values):
            if q not in reported and (g := scalar(q)) != h:
                reported.add(q)
                lines.append((q, *texts(g, h)))

    for x, y, *values in sorted(flagged):
        p = (x, y)
        found = recheck(p)
        lines += found
        if not found:
            audit([p], [tuple(values)])
        for s in sorted({x, y} - audited, reverse=True):
            audited.add(s)
            for i, (rules, heap) in enumerate(layouts(s)):
                _, xs, ys = engine.heap_options(rules, heap, heap + 1)
                layout = set(zip(xs.tolist(), ys.tolist()))
                name = rules.name.replace("-", "_") + "_heap_options"
                if layout != (options := getattr(rulesets, name)(heap)):
                    lines.append((p, "equal heap options", f"{name}({heap}) gives "
                                  f"{sorted(options)}, the option layout gives {sorted(layout)}"))
                if i == 0:
                    audit(zip(xs.tolist(), ys.tolist()), zip(*(a.tolist() for a in array(xs, ys))))
    return sorted(lines, key=lambda line: line[0])
