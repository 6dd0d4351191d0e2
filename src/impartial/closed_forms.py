"""O(1) bitwise formulas: nim-sum, binary OR, 2-adic valuation, and the
closed-form Grundy values of Delete Nim and VDN.

Everything here is a pure stateless function.  Each array closed form is
stated once, in bit form: ``*_grundy_bits`` gives ``1 << value`` per cell,
the lowest set bit of the valuation's argument, in the heaps' own integer
type, with no Python-level loop.  The two-heap sweeps compare those words
with the engine's (``engine.band_bits``), a band of rows at a time, and
read values only at the cells they flag.  The ``*_array`` variants read
the value out of the bit form, the bits below the set bit counted, for
the ``table`` command (one x-row at a time) and the proof-steps sweep.
The ``*_grid`` variants build the full (bound+1)^2 table; they are
library API for the demos and tests.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable, Union

import numpy as np

from .errors import DomainError
from .rulesets import check_bound, echo_number

__all__ = [
    "INFINITY",
    "Valuation",
    "v2",
    "nim_sum",
    "bouton_is_p",
    "bit_or",
    "delete_nim_grundy",
    "vdn_grundy",
    "delete_nim_grundy_bits",
    "vdn_grundy_bits",
    "delete_nim_grundy_array",
    "vdn_grundy_array",
    "delete_nim_grundy_grid",
    "vdn_grundy_grid",
]


class _InfiniteValuation:
    """The 2-adic valuation of zero.

    A dedicated singleton rather than an integer sentinel: it compares
    unequal to every integer and arithmetic on it raises TypeError instead
    of silently wrapping.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfiniteValuation()

Valuation = Union[int, _InfiniteValuation]


def v2(n: int) -> Valuation:
    """Largest v such that 2**v divides n, i.e. the count of trailing zero
    bits; INFINITY for n == 0."""
    if n < 0:
        raise DomainError(f"v2 is defined for non-negative integers, got {echo_number(n)}")
    if n == 0:
        return INFINITY
    return (n & -n).bit_length() - 1


def nim_sum(heaps: Iterable[int]) -> int:
    """XOR fold of the heap sizes; 0 for an empty sequence."""
    return reduce(xor, heaps, 0)


def bouton_is_p(heaps: Iterable[int]) -> bool:
    """Bouton's criterion: a Nim position is a P-position iff its nim-sum is 0."""
    return nim_sum(heaps) == 0


def bit_or(a: int, b: int) -> int:
    """Bitwise inclusive OR."""
    return a | b


def delete_nim_grundy(x: int, y: int) -> int:
    """Closed-form Grundy value of Delete Nim position (x, y): v2((x | y) + 1).

    The valuation argument is >= 1, so the result is always a finite integer.
    """
    if x < 0 or y < 0:
        raise DomainError(f"Delete Nim heaps must be >= 0, got ({echo_number(x)}, {echo_number(y)})")
    return v2((x | y) + 1)


def vdn_grundy(x: int, y: int) -> int:
    """Closed-form Grundy value of VDN position (x, y): v2(((x-1) | (y-1)) + 1)."""
    if x < 1 or y < 1:
        raise DomainError(f"VDN heaps must be >= 1, got ({echo_number(x)}, {echo_number(y)})")
    return v2(((x - 1) | (y - 1)) + 1)


def delete_nim_grundy_bits(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``1 << delete_nim_grundy`` elementwise over broadcastable integer
    arrays of heap sizes, which must all be >= 0 (not checked): m & -m, the
    lowest set bit of m = (x | y) + 1, in the arrays' integer type, which
    must hold m and its negation (not checked): int16 holds them for heaps
    through 16383."""
    m = (xs | ys) + 1
    return m & -m


def vdn_grundy_bits(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``1 << vdn_grundy`` elementwise over broadcastable integer arrays of
    heap sizes, which must all be >= 1 (not checked): m & -m with m =
    ((x - 1) | (y - 1)) + 1, in the arrays' integer type, which must hold m
    and its negation (not checked): int16 holds them for heaps through
    16383."""
    m = ((xs - 1) | (ys - 1)) + 1
    return m & -m


# Each value form reads its bit form's 1 << v: the bits below it number v.


def delete_nim_grundy_array(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Elementwise delete_nim_grundy: the value that
    ``delete_nim_grundy_bits`` gives as a bit, under the same conditions."""
    return np.bitwise_count(delete_nim_grundy_bits(xs, ys) - 1)


def vdn_grundy_array(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Elementwise vdn_grundy: the value that ``vdn_grundy_bits`` gives as
    a bit, under the same conditions."""
    return np.bitwise_count(vdn_grundy_bits(xs, ys) - 1)


def delete_nim_grundy_grid(bound: int) -> np.ndarray:
    """Closed form evaluated on the full grid: grid[x, y] == delete_nim_grundy(x, y)
    for all 0 <= x, y <= bound."""
    check_bound(0, bound)
    xs = np.arange(bound + 1, dtype=np.int64)
    return delete_nim_grundy_array(xs[:, None], xs[None, :]).astype(np.int16)


def vdn_grundy_grid(bound: int) -> np.ndarray:
    """Closed form for VDN on 1 <= x, y <= bound; row and column 0 hold -1
    (a VDN heap is never empty)."""
    check_bound(1, bound)
    xs = np.arange(1, bound + 1, dtype=np.int64)
    grid = np.full((bound + 1, bound + 1), -1, dtype=np.int16)
    grid[1:, 1:] = vdn_grundy_array(xs[:, None], xs[None, :])
    return grid
