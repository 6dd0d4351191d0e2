"""The three game rulesets (Delete Nim, VDN, Nim) plus disjoint sums:
canonical position forms, option enumeration, and the text syntax shared by
the CLI and verification reports.

Positions are plain tuples.  Two-heap positions are unordered pairs kept in
canonical order x >= y; Nim positions are sorted descending with zero heaps
dropped.  Option functions accept either heap order and always return sets
of canonical positions.

The two-heap games share one move: choosing a heap of s stones deletes the
other heap, removes ``removed`` stones, and splits the rest into two heaps
of at least ``lo`` stones each.  ``TWO_HEAP_MOVES`` holds ``(lo, removed)``
per game, the one statement of the rule that every module reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import BudgetExceededError, DomainError, ParseError

Pair = tuple[int, int]

# Enumerating the options of a heap of size s materializes ~s/2 positions, so
# a single oversized heap could exhaust memory before any engine budget check
# runs.  Closed forms stay O(1) at any width; only enumeration is capped.
ENUMERATION_LIMIT = 1 << 20

# VDN (x, y) is Delete Nim (x - 1, y - 1) because of exactly this pair
TWO_HEAP_MOVES = {"delete-nim": (0, 1), "vdn": (1, 0)}


def canonical_pair(x: int, y: int) -> Pair:
    """Unordered pair in canonical order: larger heap first."""
    return (x, y) if x >= y else (y, x)


def canonical_nim(heaps: Iterable[int]) -> tuple[int, ...]:
    """Nim canonical form: sorted descending, zero heaps dropped."""
    return tuple(sorted((h for h in heaps if h != 0), reverse=True))


def validate_delete_nim(p: Pair) -> Pair:
    x, y = p
    if x < 0 or y < 0:
        shown = ", ".join(map(echo_number, (x, y)))
        raise DomainError(f"Delete Nim heaps must be >= 0, got ({shown})")
    return x, y


def validate_vdn(p: Pair) -> Pair:
    x, y = p
    if x < 1 or y < 1:
        shown = ", ".join(map(echo_number, (x, y)))
        raise DomainError(f"VDN heaps must be >= 1, got ({shown})")
    return x, y


def validate_nim(p: Iterable[int]) -> tuple[int, ...]:
    heaps = tuple(p)
    if any(h < 0 for h in heaps):
        raise DomainError(f"Nim heaps must be >= 0, got {echo_position(str(heaps))}")
    return heaps


def _check_enumerable(s: int) -> None:
    if s > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"enumerating the options of a heap of {echo_number(s)} stones exceeds the "
            f"limit of {ENUMERATION_LIMIT}"
        )


def _heap_options(game: str, label: str, s: int) -> set[Pair]:
    """What choosing a heap of s stones reaches in the two-heap ``game``:
    every canonical pair summing to s - removed with both parts >= lo."""
    lo, removed = TWO_HEAP_MOVES[game]
    if s < lo:
        raise DomainError(f"{label} heaps must be >= {lo}, got {echo_number(s)}")
    _check_enumerable(s)
    rest = s - removed
    # (rest - a, a) for lo <= a <= rest / 2; zip stops at the shorter range
    return set(zip(range(rest - lo, lo - 1, -1), range(lo, rest // 2 + 1)))


def delete_nim_heap_options(s: int) -> set[Pair]:
    """The positions a Delete Nim move reaches by choosing a heap of s stones,
    whatever the other heap holds.

    Choosing the heap deletes the other heap, removes one stone, and
    optionally splits the remainder: every canonical (a, b) with
    a + b == s - 1 is reachable, with "no split" being the pair (s - 1, 0).
    An empty heap cannot be chosen, so s == 0 reaches nothing.
    """
    return _heap_options("delete-nim", "Delete Nim", s)


def vdn_heap_options(s: int) -> set[Pair]:
    """The positions a VDN move reaches by choosing a heap of s stones: the
    other heap is deleted and this one split into two nonempty heaps.  A
    heap of one stone cannot be split, so s == 1 reaches nothing."""
    return _heap_options("vdn", "VDN", s)


def delete_nim_options(p: Pair) -> set[Pair]:
    """All positions reachable from Delete Nim position p: the union of
    delete_nim_heap_options over its two heaps (the certificate sweeps rely
    on this identity).  (0, 0) is terminal."""
    x, y = validate_delete_nim(p)
    opts = delete_nim_heap_options(x)
    opts |= delete_nim_heap_options(y)
    return opts


def vdn_options(p: Pair) -> set[Pair]:
    """All positions reachable from VDN position p: the union of
    vdn_heap_options over its two heaps (the certificate sweeps rely on
    this identity).  (1, 1) is terminal."""
    x, y = validate_vdn(p)
    opts = vdn_heap_options(x)
    opts |= vdn_heap_options(y)
    return opts


def nim_options(p: Iterable[int]) -> set[tuple[int, ...]]:
    """All positions reachable from Nim position p by shrinking one heap to
    any smaller size (possibly zero)."""
    heaps = canonical_nim(validate_nim(p))
    opts: set[tuple[int, ...]] = set()
    for i, h in enumerate(heaps):
        if i and h == heaps[i - 1]:
            continue  # an equal heap reaches the same positions
        _check_enumerable(h)
        rest = heaps[:i] + heaps[i + 1 :]
        opts.add(rest)  # shrunk to zero
        # rest is descending and every heap in rest[:i] exceeds v < h, so v goes
        # in at the first index j >= i with rest[j] <= v: index j takes the v in
        # range(rest[j], rest[j - 1]), capped above by h and below by 1.
        top = h
        for j in range(i, len(rest) + 1):
            below = rest[j] if j < len(rest) else 1
            head, tail = rest[:j], rest[j:]
            opts.update(head + (v,) + tail for v in range(below, top))
            top = below
    return opts


@dataclass(frozen=True)
class Ruleset:
    """A game: canonical form plus option enumeration over tuple positions.

    ``options`` must return canonical positions; the engine relies on this
    to memoize without re-canonicalizing children.
    """

    name: str
    canonical: Callable
    options: Callable
    validate: Callable


def _canonical_two_heap(p: Pair) -> Pair:
    return canonical_pair(*p)


DELETE_NIM = Ruleset("delete-nim", _canonical_two_heap, delete_nim_options, validate_delete_nim)
VDN = Ruleset("vdn", _canonical_two_heap, vdn_options, validate_vdn)
NIM = Ruleset("nim", canonical_nim, nim_options, validate_nim)

RULESETS = {r.name: r for r in (DELETE_NIM, VDN, NIM)}


def sum_options(p, left: Ruleset, right: Ruleset) -> set:
    """Options of the disjoint sum position (g, h): a move is a move in
    exactly one component."""
    g, h = p
    g, h = left.canonical(g), right.canonical(h)
    return {(q, h) for q in left.options(g)} | {(g, q) for q in right.options(h)}


def make_sum(left: Ruleset, right: Ruleset) -> Ruleset:
    """Ruleset for the disjoint sum of two games; positions are pairs
    (left_position, right_position), terminal exactly when both components
    are terminal."""

    def _canonical(p):
        return (left.canonical(p[0]), right.canonical(p[1]))

    def _options(p):
        return sum_options(p, left, right)

    def _validate(p):
        g, h = p
        left.validate(g)
        right.validate(h)
        return p

    return Ruleset(f"{left.name}+{right.name}", _canonical, _options, _validate)


_HEAP_TEXT = re.compile(r"-?[0-9]+")


def parse_position(rules: Ruleset, text: str):
    """Parse the shared text syntax: two-heap games as ``x,y``, Nim as a
    comma-separated heap list.  Whitespace around commas is ignored; each
    heap is ASCII digits with an optional leading minus (so no ``1_0``,
    ``+3`` or fullwidth digits, which ``int`` would accept).
    Returns the canonical position; raises ParseError / DomainError."""
    if rules.name not in RULESETS:
        raise ParseError(f"no text syntax for ruleset {rules.name!r}")
    parts = [s.strip() for s in text.split(",")]
    if not all(_HEAP_TEXT.fullmatch(s) for s in parts):
        raise ParseError(f"malformed position {echo_position(text, repr)}")
    try:
        values = tuple(int(s) for s in parts)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"malformed position {echo_position(text, repr)}") from exc
    if rules.name in TWO_HEAP_MOVES and len(values) != 2:
        raise ParseError(f"{rules.name} positions are pairs x,y, got {echo_position(text, repr)}")
    rules.validate(values)
    return rules.canonical(values)


def format_position(rules: Ruleset, pos) -> str:
    """Inverse of parse_position on canonical positions.  The empty Nim
    position renders as ``0`` (which parses back to the same canonical
    position)."""
    if rules.name == "nim" and not pos:
        return "0"
    return ",".join(str(v) for v in pos)


_ECHO = 60  # characters an error message echoes of a position or a number


def echo_head(text: str, chars: int, size: int, show: Callable = str) -> str:
    """The longest prefix of ``text`` of at most ``chars`` characters whose
    ``show`` is at most ``size`` bytes as stderr writes them (a lone
    surrogate, from argv bytes that are not UTF-8, as its escape)."""
    head = text[:chars]
    while len(show(head).encode("utf-8", "backslashreplace")) > size:
        head = head[:-1]
    return head


def echo_position(text: str, show: Callable = str) -> str:
    """``show(text)``, a position's text as an error message echoes it, if
    ``text`` is at most 60 characters and that is at most 180 bytes.  Past
    that, ``show`` of its longest prefix within both, then ``...`` and its
    number of comma-separated heaps, with the largest if each is a heap of
    at most 60 digits, so that no message grows with its input, nor with
    the escapes (up to 10 characters each under ``repr``) and multibyte
    characters of its text."""
    head = echo_head(text, _ECHO, 3 * _ECHO, show)
    if head == text:
        return show(text)
    parts = [s.strip() for s in text.split(",")]
    largest = ""
    if all(len(s) <= _ECHO and _HEAP_TEXT.fullmatch(s) for s in parts):
        largest = f", largest {max(map(int, parts))}"
    return f"{show(head)}... ({len(parts)} heaps{largest})"


def echo_number(n: int) -> str:
    """``str(n)``, a number as an error message echoes it, if it has at
    most 60 digits.  Past that, its first 60 digits, then ``...`` and its
    number of digits, as ``echo_position`` shortens a position, so that no
    message grows with the number, nor needs more digits than ``str``
    converts."""
    size = abs(n)
    if size < 10**_ECHO:
        return str(n)
    # 1233 / 4096 < log10(2), so this starts at or below the digit count
    digits = (size.bit_length() - 1) * 1233 >> 12
    while 10**digits <= size:
        digits += 1
    head = size // 10 ** (digits - _ECHO)
    return f"{'-' * (n < 0)}{head}... ({digits} digits)"


def check_bound(lo: int, bound: int) -> None:
    """Refuse a bound below ``lo``, the least heap of the grid it bounds."""
    if bound < lo:
        raise DomainError(f"bound must be >= {lo}, got {echo_number(bound)}")
