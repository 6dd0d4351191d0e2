"""The componentwise-decrement map from VDN positions to Delete Nim
positions, and an exhaustive check that it commutes with option enumeration
(i.e. that it is a game isomorphism).  The check returns its counterexamples
as a list of (position, reason) pairs, empty when the map commutes
everywhere inside the bound.  It maps each heap's moves once, so its work
grows as bound**2, not with the bound**3/4 option edges of the positions."""

from __future__ import annotations

from . import rulesets
from .errors import DomainError
from .rulesets import (
    Pair,
    canonical_pair,
    delete_nim_options,
    echo_number,
    validate_delete_nim,
    validate_vdn,
    vdn_options,
)

__all__ = ["vdn_to_delete", "delete_to_vdn", "check_isomorphism"]


def vdn_to_delete(p: Pair) -> Pair:
    """Map VDN position (x, y) to Delete Nim position (x - 1, y - 1)."""
    x, y = validate_vdn(p)
    return canonical_pair(x - 1, y - 1)


def delete_to_vdn(p: Pair) -> Pair:
    """Inverse map: Delete Nim position (x, y) to VDN position (x + 1, y + 1)."""
    x, y = validate_delete_nim(p)
    return canonical_pair(x + 1, y + 1)


def check_isomorphism(bound: int) -> list[tuple[Pair, str]]:
    """For every VDN position with 1 <= y <= x <= bound, check that mapping
    each VDN option componentwise gives exactly the Delete Nim options of the
    mapped position.  Returns the counterexamples, in (x, y) order, as
    (position, "extra=[...] missing=[...]") pairs; none are raised.

    Both games' option sets are the union of what choosing each heap
    reaches (``rulesets.vdn_heap_options``/``delete_nim_heap_options``), so
    the check runs once per heap s: the map must send the VDN moves of heap
    s exactly onto the Delete Nim moves of heap s - 1.  A position whose two
    heaps both pass, and which itself maps to (x - 1, y - 1), then commutes
    by construction.  Every other position is compared in full.  The map,
    one Python call per position, takes most of the check's time."""
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {echo_number(bound)}")
    vdn_heap_options = rulesets.vdn_heap_options
    delete_nim_heap_options = rulesets.delete_nim_heap_options
    matched = [False]  # matched[s]: heap s maps move for move; VDN has no heap 0
    failures: list[tuple[Pair, str]] = []
    for x in range(1, bound + 1):
        mapped_heap = {vdn_to_delete(q) for q in vdn_heap_options(x)}
        matched.append(mapped_heap == delete_nim_heap_options(x - 1))
        for y in range(1, x + 1):
            p = (x, y)
            image = vdn_to_delete(p)
            if matched[x] and matched[y] and image == (x - 1, y - 1):
                continue
            mapped = {vdn_to_delete(q) for q in vdn_options(p)}
            direct = delete_nim_options(image)
            if mapped != direct:
                extra = sorted(mapped - direct)
                missing = sorted(direct - mapped)
                failures.append((p, f"extra={extra} missing={missing}"))
    return failures
