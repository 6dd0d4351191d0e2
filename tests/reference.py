"""Independent reference implementations used as test oracles.

Everything here is written from the game definitions alone, with naive
data structures and top-down recursion, on purpose.  None of it shares
code with the package under test, so agreement between the two is
evidence rather than tautology.
"""

from functools import lru_cache
from itertools import product


def ref_v2(n: int) -> int:
    """2-adic valuation of a positive integer by repeated division."""
    assert n > 0
    count = 0
    while n % 2 == 0:
        n //= 2
        count += 1
    return count


def ref_mex(values) -> int:
    seen = set(values)
    k = 0
    while k in seen:
        k += 1
    return k


def _pair(a: int, b: int) -> tuple:
    return (a, b) if a >= b else (b, a)


def ref_delete_options(x: int, y: int) -> set:
    """Delete one heap, take a stone from the survivor, split the rest."""
    out = set()
    for keep in (x, y):
        if keep >= 1:
            rest = keep - 1
            for a in range(rest + 1):
                out.add(_pair(a, rest - a))
    return out


def ref_vdn_options(x: int, y: int) -> set:
    """Delete one heap, split the survivor into two nonempty heaps."""
    out = set()
    for keep in (x, y):
        for a in range(1, keep):
            out.add(_pair(a, keep - a))
    return out


def ref_nim_options(heaps: tuple) -> set:
    out = set()
    for i, h in enumerate(heaps):
        for k in range(h):
            reduced = heaps[:i] + (k,) + heaps[i + 1 :]
            out.add(tuple(sorted((v for v in reduced if v > 0), reverse=True)))
    return out


@lru_cache(maxsize=None)
def ref_delete_grundy(x: int, y: int) -> int:
    x, y = _pair(x, y)
    return ref_mex(ref_delete_grundy(a, b) for a, b in ref_delete_options(x, y))


@lru_cache(maxsize=None)
def ref_vdn_grundy(x: int, y: int) -> int:
    x, y = _pair(x, y)
    return ref_mex(ref_vdn_grundy(a, b) for a, b in ref_vdn_options(x, y))


@lru_cache(maxsize=None)
def ref_nim_grundy(heaps: tuple) -> int:
    heaps = tuple(sorted((v for v in heaps if v > 0), reverse=True))
    return ref_mex(ref_nim_grundy(opt) for opt in ref_nim_options(heaps))


@lru_cache(maxsize=None)
def ref_sum_grundy(options, g: tuple, h: tuple) -> int:
    """Grundy value of the disjoint sum g + h of two boards of one two-heap
    game whose options are ``options`` (``ref_delete_options`` or
    ``ref_vdn_options``): a move is a move on either board.  Top-down mex
    over the sum itself; no XOR is taken."""
    g, h = _pair(*g), _pair(*h)
    moves = [(a, h) for a in options(*g)] + [(g, b) for b in options(*h)]
    return ref_mex(ref_sum_grundy(options, a, b) for a, b in moves)


def ref_nim_units(heaps: tuple) -> int:
    """The charge of a Nim query: one unit per nonempty heap for each Nim
    position the heaps dominate, listed one by one."""
    heaps = [h for h in heaps if h > 0]
    below = {tuple(sorted((v for v in q if v > 0), reverse=True))
             for q in product(*(range(h + 1) for h in heaps))}
    return len(heaps) * len(below)
