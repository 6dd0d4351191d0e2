"""The componentwise-decrement map from VDN positions to Delete Nim
positions, and an exhaustive check that it commutes with option enumeration
(i.e. that it is a game isomorphism).  The check returns its counterexamples
as a list of (position, reason) pairs, empty when the map commutes
everywhere inside the bound."""

from __future__ import annotations

from .errors import DomainError
from .rulesets import (
    Pair,
    canonical_pair,
    delete_nim_options,
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

    Every option of such a position is a canonical pair 1 <= b <= a with
    a + b <= bound, so the map is evaluated once per such pair up front and
    each option set is mapped through that table.  An option outside it
    (only a faulty ruleset returns one) is mapped one call at a time."""
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    table = {
        (a, b): vdn_to_delete((a, b))
        for b in range(1, bound // 2 + 1)
        for a in range(b, bound - b + 1)
    }
    failures: list[tuple[Pair, str]] = []
    for x in range(1, bound + 1):
        for y in range(1, x + 1):
            p = (x, y)
            opts = vdn_options(p)
            mapped = set(map(table.get, opts))
            if None in mapped:
                mapped = {vdn_to_delete(q) for q in opts}
            direct = delete_nim_options(vdn_to_delete(p))
            if mapped != direct:
                extra = sorted(mapped - direct)
                missing = sorted(direct - mapped)
                failures.append((p, f"extra={extra} missing={missing}"))
    return failures
