"""The componentwise-decrement map from VDN positions to Delete Nim
positions, its array twin, and an exhaustive check that the map commutes
with option enumeration (i.e. that it is a game isomorphism).  The check
returns its counterexamples as a list of (position, reason) pairs, empty
when the map commutes everywhere inside the bound.  It maps each heap's
moves once and tests every position, both on bands of arrays with the
twin, so its Python work is a fixed number of numpy steps per band and
the flagged positions, not the bound**3/4 option edges of the
positions; it explains the flagged ones by the rule proof-steps shares
(``_flagged.explain``)."""

from __future__ import annotations

import numpy as np

from . import _flagged, engine, rulesets
from .rulesets import (
    Pair,
    canonical_pair,
    check_bound,
    delete_nim_options,
    validate_delete_nim,
    validate_vdn,
    vdn_options,
)

__all__ = ["vdn_to_delete", "vdn_to_delete_array", "delete_to_vdn", "check_isomorphism"]


def vdn_to_delete(p: Pair) -> Pair:
    """Map VDN position (x, y) to Delete Nim position (x - 1, y - 1)."""
    x, y = validate_vdn(p)
    return canonical_pair(x - 1, y - 1)


def vdn_to_delete_array(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """The array twin of vdn_to_delete: the images of the VDN cells
    (xs, ys), integer arrays that broadcast together, as the two arrays of
    (x - 1, y - 1) in canonical order, the larger heap first."""
    xs, ys = np.broadcast_arrays(xs, ys)
    low = (xs < 1) | (ys < 1)
    if low.any():
        validate_vdn((int(xs[low][0]), int(ys[low][0])))  # raises the scalar map's error
    return np.maximum(xs, ys) - 1, np.minimum(xs, ys) - 1


def delete_to_vdn(p: Pair) -> Pair:
    """Inverse map: Delete Nim position (x, y) to VDN position (x + 1, y + 1)."""
    x, y = validate_delete_nim(p)
    return canonical_pair(x + 1, y + 1)


def _matched(bound: int) -> np.ndarray:
    """``matched[s]`` for every VDN heap s <= bound: the twin,
    vdn_to_delete_array, sends the options of VDN heap s onto those of
    Delete Nim heap s - 1, as sets, both from the option layout
    (``engine.heap_options``), a band of heaps at a time
    (``engine.heap_bands``).  The layouts of the two heaps list their
    options in the same order, so a band whose images equal the Delete
    Nim cells one for one matches whole; a heap where they do not, or
    every heap of a band whose two layouts do not pair cell for cell, is
    compared as sets.  A heap that reaches nothing in both games
    matches."""
    matched = np.ones(bound + 1, dtype=bool)
    matched[0] = False  # VDN has no heap 0
    # VDN heap s reaches as many positions as Delete Nim heap s - 1, so
    # the two games' bands hold the same heaps less one and pair one to one
    for (heaps, xs, ys), (dn_heaps, *dn_cells) in zip(
        engine.heap_bands(rulesets.VDN, bound),
        engine.heap_bands(rulesets.DELETE_NIM, bound - 1),
        strict=True,
    ):
        images = vdn_to_delete_array(xs, ys)
        if len(heaps) == len(dn_heaps) and (heaps - 1 == dn_heaps).all():
            differ = (images[0] != dn_cells[0]) | (images[1] != dn_cells[1])
            suspects = set(heaps[differ].tolist())
        else:
            suspects = set(heaps.tolist()) | set((dn_heaps + 1).tolist())
        for s in suspects:
            matched[s] = _cells(heaps == s, *images) == _cells(dn_heaps == s - 1, *dn_cells)
    return matched


def _cells(where, xs: np.ndarray, ys: np.ndarray) -> set[Pair]:
    """The cells (xs[where], ys[where]) as a set of pairs."""
    return set(zip(xs[where].tolist(), ys[where].tolist()))


def _recheck(p: Pair) -> list[tuple]:
    """Position p's line if its options, mapped, differ from its image's."""
    mapped = set(map(vdn_to_delete, vdn_options(p)))
    direct = delete_nim_options(vdn_to_delete(p))
    if mapped == direct:
        return []
    extra, missing = sorted(mapped - direct), sorted(direct - mapped)
    return [(p, "equal option sets", f"extra={extra} missing={missing}")]


def check_isomorphism(bound: int) -> list[tuple[Pair, str]]:
    """For every VDN position with 1 <= y <= x <= bound, check that mapping
    each VDN option componentwise gives exactly the Delete Nim options of the
    mapped position.  Returns the counterexamples, in (x, y) order, as
    (position, "extra=[...] missing=[...]") pairs, or with one of the
    reasons below; none are raised.

    Both games' option sets are the union of what choosing each heap
    reaches (``rulesets.vdn_heap_options``/``delete_nim_heap_options``), so
    the check runs once per heap s: the map must send the VDN moves of
    heap s exactly onto the Delete Nim moves of heap s - 1 (``_matched``,
    on the option layout and the twin).  A position whose two heaps both
    pass, and which itself maps to (x - 1, y - 1), then commutes by
    construction.  The positions are tested on the bands that
    ``engine.band_rows`` lays out, in its narrow heap types, each band's
    images taken from the array twin, vdn_to_delete_array.  Only flagged
    positions reach the scalar map and the option sets, through the rule
    both certificate sweeps share (``_flagged.explain``): its recheck
    compares the position's options in full; its twin is the two maps,
    whose disagreement has the reason
    "vdn_to_delete gives (a, b), vdn_to_delete_array gives (c, d)"; and
    heap s feeds the layouts of VDN heap s and Delete Nim heap s - 1, a
    layout that differs from its option set having the reason
    "vdn_heap_options(s) gives [...], the option layout gives [...]" (or
    delete_nim_heap_options).  The tier-1 tests hold each scalar route to
    its array twin on every canonical cell and heap through bound 1024."""
    return [(p, reason) for p, _, reason in _lines(bound)]


def _lines(bound: int) -> list[tuple]:
    """check_isomorphism's counterexamples as ``_flagged.explain``'s lines."""
    check_bound(1, bound)
    matched = _matched(bound)
    flagged_cells: list = []
    for rows, cols, xs, ys in engine.band_rows(1, bound):
        big, small = vdn_to_delete_array(xs, ys)
        flagged = ~(matched[None, cols] & matched[rows, None])
        flagged |= big != xs - 1
        flagged |= small != ys - 1
        engine.band_cells(flagged_cells, flagged, xs, ys, big, small)
    return _flagged.explain(
        flagged_cells,
        _recheck,
        (vdn_to_delete, vdn_to_delete_array, lambda image, twin: (
            "equal images", f"vdn_to_delete gives {image}, vdn_to_delete_array gives {twin}")),
        lambda s: [(rulesets.VDN, s), (rulesets.DELETE_NIM, s - 1)],
    )
