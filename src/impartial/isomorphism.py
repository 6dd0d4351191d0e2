"""The componentwise-decrement map from VDN positions to Delete Nim
positions, its array twin, and an exhaustive check that the map commutes
with option enumeration (i.e. that it is a game isomorphism).  The check
returns its counterexamples as a list of (position, reason) pairs, empty
when the map commutes everywhere inside the bound.  It maps each heap's
moves once with the scalar map and tests every position on bands of
broadcast arrays with the twin, so its Python work grows as the bound**2/4
heap options, not with the bound**3/4 option edges of the positions."""

from __future__ import annotations

import numpy as np

from . import engine, rulesets
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


def check_isomorphism(bound: int) -> list[tuple[Pair, str]]:
    """For every VDN position with 1 <= y <= x <= bound, check that mapping
    each VDN option componentwise gives exactly the Delete Nim options of the
    mapped position.  Returns the counterexamples, in (x, y) order, as
    (position, "extra=[...] missing=[...]") pairs, or with the reason
    below where the map and its twin disagree; none are raised.

    Both games' option sets are the union of what choosing each heap
    reaches (``rulesets.vdn_heap_options``/``delete_nim_heap_options``), so
    the check runs once per heap s: the scalar map must send the VDN moves
    of heap s exactly onto the Delete Nim moves of heap s - 1.  A position
    whose two heaps both pass, and which itself maps to (x - 1, y - 1),
    then commutes by construction.  The positions are tested on the bands
    that ``engine.band_rows`` lays out, in its narrow heap types, each
    band's images taken from the array twin, vdn_to_delete_array.  Only
    flagged positions reach Python: each is compared in full, one option
    at a time, with the scalar map.  If that finds nothing and the two
    maps give different images there, the position is reported with the
    reason
    "vdn_to_delete gives (a, b), vdn_to_delete_array gives (c, d)".

    So the scalar map is applied to every heap option, the VDN pairs
    summing to at most ``bound``, and to flagged positions; every other
    position's image is the twin's.  A fault in the scalar map alone, at a
    position with x + y > bound whose twin image passes, is not seen
    here; the two maps are compared cell by cell only by
    ``tests/test_isomorphism.py``, through 64 and on random heaps up to
    2**62."""
    check_bound(1, bound)
    vdn_heap_options = rulesets.vdn_heap_options
    delete_nim_heap_options = rulesets.delete_nim_heap_options
    # matched[s]: heap s maps move for move; VDN has no heap 0
    matched = np.array([False] + [
        set(map(vdn_to_delete, vdn_heap_options(s))) == delete_nim_heap_options(s - 1)
        for s in range(1, bound + 1)
    ])
    flagged_cells: list = []
    for rows, cols, xs, ys in engine.band_rows(1, bound):
        big, small = vdn_to_delete_array(xs, ys)
        flagged = ~(matched[None, cols] & matched[rows, None])
        flagged |= big != xs - 1
        flagged |= small != ys - 1
        engine.band_cells(flagged_cells, flagged, xs, ys, big, small)
    failures: list[tuple[Pair, str]] = []
    for x, y, *twin in sorted(flagged_cells):
        p, twin = (x, y), tuple(twin)
        image = vdn_to_delete(p)
        mapped = set(map(vdn_to_delete, vdn_options(p)))
        direct = delete_nim_options(image)
        if mapped != direct:
            extra = sorted(mapped - direct)
            missing = sorted(direct - mapped)
            failures.append((p, f"extra={extra} missing={missing}"))
        elif image != twin:
            failures.append((p, f"vdn_to_delete gives {image}, vdn_to_delete_array gives {twin}"))
    return failures
