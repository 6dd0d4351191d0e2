"""Generic Sprague-Grundy machinery: mex, memoized Grundy values over any
ruleset, P/N classification, optimal moves, a fill-then-read bottom-up
backend for the two-heap games, and a prefix-mask kernel for Nim.

The generic path needs nothing from a ruleset beyond ``canonical`` and
``options``.  Grundy values are memoized in a plain dict keyed by
(ruleset name, canonical position); each entry is written exactly once, so
one table may be shared by every call of a sweep.

Every job is charged before any work by ``charge``, the one refusal of a
budget; the kernels take none.  A query takes one route in every game.
``check_query`` charges it whatever the tables hold, so what was asked
before changes no answer and no refusal; ``option_values`` returns
``{option: value}``, and the commands, each engine turn of ``play`` too,
answer from that map alone: its mex, its ``winning_move`` (else, in
``play``, its smallest option), or, if it is empty, a terminal position.  ``winning_move`` is the one statement
of the rule; ``best_move`` applies it to the generic engine's values.

The two-heap backend is one anti-diagonal kernel on the ``(lo, removed)``
of ``rulesets.TWO_HEAP_MOVES``: fill, then read.  It keeps, per heap size,
the bitmask of the values that choosing the heap does not reach.  A heap's
mask depends on no bound, so each game has one table of them for the whole
process, which every call extends and none rebuilds (``_TABLES``).  The
fill (``_fill``) gives every heap through a bound its final mask: it
reduces, on a copy of the table, the one diagonal each heap the table
lacks reaches, and hands the table the heaps it finished; a lock guards
the table, so threads may share it.  Then a reader reads cells from the
final masks alone, one AND and one lowest bit per cell, which is
``1 << value``.  The formula sweeps and the iso sweep read the grid in
bands of rows (``bands``); a query, and each engine move
in ``play``, reads its two option diagonals (``option_values``).  The
table saves work only where one interpreter asks more than one two-heap
question: each engine move of a ``play`` session after the first, a
``verify`` check that sweeps a game an earlier check swept, and a caller
that keeps one interpreter for many ``option_values`` or ``cli.main``
calls; a lone command starts from an empty table.
``grundy_grid`` writes the bands into a dense table; it is library API
only, and no command or sweep builds one.  ``heap_options``, the array
twin of ``rulesets.*_heap_options``, lays out the options each heap
reaches, and ``heap_bands`` gives the certificate sweeps that layout in
bands of heaps of about as many cells as a band of rows.

``sum_values`` is the same recursion on the sum of two boards of one
two-heap game: a move chooses a heap of either board, and so reaches one
whole smaller anti-diagonal of that board.  It keeps one bitmask per (heap
size, position of the other board), one table for both boards, as swapping
them maps the sum onto itself; and the sums of one wavefront, every
block of them that depends only on earlier wavefronts, take a few numpy
steps together.  It takes no XOR; the sum-theorem sweep compares its
values with the XOR of the component values itself.

``nim_values`` is the recursion for Nim: every position a Nim position
dominates, each from prefix bitmasks of what shrinking one heap reaches,
with O(heaps) integer work per position.  It serves the Bouton sweep; it
takes no nim-sum of heap sizes or values.  The Nim commands ask
``option_values``, which runs the same kernel and keeps, per heap count K,
one table for the whole process (``_NimTables``, in ``_TABLES``): the value
of every zero-padded descending K-tuple whose first heap is below some m,
in one flat array by the tuple's rank, with the kernel's rows to resume
from.  A query reads a table that knows its options.  Otherwise it grows
the table of max(heaps, 2) heaps through its first heap, but only if the
new shell, one unit per heap of each new position, fits the credit: the
charges of earlier Nim queries less what growth has already spent.
Otherwise it runs the kernel over its own down-set alone, as a lone
command and the first Nim query of a process always do.  So the tables
never do more work than earlier queries were charged for.  A lock is held
across each read and growth, and a growth that does not finish (an
interrupt during ``play``) empties its table rather than leave it half
grown.  The generic engine stays the library's reference route, which the
tests pin every kernel against; no command or sweep runs it.
"""

from __future__ import annotations

import enum
import threading
from array import array
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import BudgetExceededError
from .rulesets import (
    DELETE_NIM, NIM, TWO_HEAP_MOVES, VDN, Ruleset, check_bound, echo_number, echo_position,
    format_position,
)

MemoTable = dict

__all__ = [
    "MemoTable",
    "mex",
    "grundy",
    "Outcome",
    "classify",
    "best_move",
    "winning_move",
    "charge",
    "grid_cells",
    "check_query",
    "bands",
    "band_rows",
    "band_cells",
    "heap_options",
    "heap_bands",
    "option_values",
    "sum_positions",
    "sum_values",
    "NIM_HEAP_LIMIT",
    "check_nim_heap",
    "nim_values",
    "delete_nim_grid",
    "vdn_grid",
    "grundy_grid",
]


def mex(values: Iterable[int]) -> int:
    """Least non-negative integer absent from ``values``.

    Uses a presence bitmap over [0, n]: mex of an n-element set is at most n,
    so larger members cannot matter.
    """
    vals = list(values)
    present = bytearray(len(vals) + 1)
    for v in vals:
        if v <= len(vals):
            present[v] = 1
    return present.index(0)


def grundy(
    pos,
    rules: Ruleset,
    memo: MemoTable | None = None,
    budget: int | None = None,
) -> int:
    """Grundy value of ``pos`` under ``rules``: mex of the option values.

    Iterative postorder over the game graph; the subgraph below (x, 0) has
    depth proportional to x, which would overflow the recursion limit long
    before it strained memory.  ``budget`` caps the number of memoized
    positions and raises BudgetExceededError once exceeded; no command or
    sweep passes one, since each charges its kernel up front.  The result
    is independent of the order in which ``rules.options`` yields options.
    """
    if memo is None:
        memo = {}
    name = rules.name
    root = (name, rules.canonical(pos))
    if root in memo:
        return memo[root]
    # Each entry is (key, option keys): None on the first visit, which
    # enumerates the options once; the list on the second visit, once every
    # pending option above it on the stack has been memoized.
    stack = [(root, None)]
    while stack:
        key, keys = stack.pop()
        if keys is None:
            if key in memo:
                continue
            keys = [(name, q) for q in rules.options(key[1])]
            pending = [(k, None) for k in keys if k not in memo]
            if pending:
                stack.append((key, keys))
                stack.extend(pending)
                continue
        memo[key] = mex(memo[k] for k in keys)
        if budget is not None and len(memo) > budget:
            raise BudgetExceededError(
                f"grundy computation exceeded the budget of {echo_number(budget)} positions"
            )
    return memo[root]


class Outcome(enum.Enum):
    """Winner under optimal play: P = previous player, N = next (current) player."""

    P = "P"
    N = "N"


def classify(pos, rules: Ruleset, memo: MemoTable | None = None) -> Outcome:
    """P-position iff the Grundy value is 0."""
    return Outcome.P if grundy(pos, rules, memo) == 0 else Outcome.N


def winning_move(values: dict) -> Optional[tuple]:
    """The smallest option of value 0, a P-position, in an ``{option: value}``
    map: the winning move from an N-position.  None for the map of a
    P-position or of a terminal position."""
    return min((q for q, v in values.items() if v == 0), default=None)


def best_move(
    pos,
    rules: Ruleset,
    memo: MemoTable | None = None,
    value_fn: Callable | None = None,
) -> Optional[tuple]:
    """``winning_move`` over the options of ``pos``, valued by the generic
    engine or by ``value_fn``.  The commands call ``winning_move`` on the
    map ``option_values`` returns instead.
    """
    p = rules.canonical(pos)
    if value_fn is None:
        table = {} if memo is None else memo

        def value_fn(q):
            return grundy(q, rules, memo=table)

    return winning_move({q: value_fn(q) for q in rules.options(p)})


def charge(job: Callable[[], str], units: int, budget: int | None) -> int:
    """Return ``units``, or raise ``<job()> exceeds the budget of <budget>
    units`` if they exceed ``budget``; ``job`` is called only to refuse."""
    if budget is not None and units > budget:
        raise BudgetExceededError(f"{job()} exceeds the budget of {echo_number(budget)} units")
    return units


# --- dense backend -----------------------------------------------------------
#
# The option set of a two-heap position is a union of whole anti-diagonals:
# choosing a heap of s stones reaches exactly the canonical pairs (a, b) with
# a + b == s - removed and both heaps at least lo, where, in
# rulesets.TWO_HEAP_MOVES,
#
#   Delete Nim: (lo, removed) = (0, 1)   one stone goes, either part may be empty
#   VDN:        (lo, removed) = (1, 0)   no stone goes, both parts nonempty
#
# so a bottom-up pass over anti-diagonals needs only unreached[s], the
# complement of the set of Grundy values reachable by choosing a heap of s
# stones, as a bitmask per heap size.  Position (x, y) is the mex of the
# values both heaps reach, the lowest set bit of free = unreached[x] &
# unreached[y]; free & -free isolates it as 1 << mex, and the bits below it
# number exactly the mex.  This is the same mex recursion as the generic
# path (tests pin the two against each other), with no closed form involved.

_MASK_WIDTH = 62  # values stay below this, so every mex, at most 62, is a bit of a uint64


def grid_cells(lo: int, bound: int) -> int:
    """The units of a two-heap job up to ``bound``, which must be at least
    ``lo``: the (bound + 1)**2 cells of the full grid, built or not."""
    check_bound(lo, bound)
    return (bound + 1) ** 2


class _Unreached:
    """``unreached[s]`` of one two-heap game for every heap size s below
    ``known``, kept for the life of the process and only ever extended.

    A heap's mask depends on the diagonal that heap reaches and on nothing
    else, so every caller, whatever its bound, reads and extends the same
    table.  The fill works on its own copy (``snapshot``) and, when it
    ends, hands the table that copy if it knows more heaps (``publish``).
    So the fill itself takes no lock.  An array the table holds is never
    written again, and a reader reads it only below the ``known`` it saw;
    ``lock`` keeps each array with its own count, and since ``known``
    counts only finished heaps, a fill that raises leaves a consistent
    prefix.
    """

    def __init__(self, lo: int, removed: int) -> None:
        self.lo, self.removed = lo, removed
        self.lock = threading.Lock()
        # below 2 * lo + removed a heap reaches no diagonal, so nothing
        self.known = 2 * lo + removed
        self.masks = np.full(self.known, ~np.uint64(0))

    def snapshot(self, bound: int) -> tuple[np.ndarray, int]:
        """A copy of the masks of heaps 0 .. bound, all ones past the known
        ones, and the number of known heaps it holds."""
        with self.lock:
            masks, known = self.masks, min(self.known, bound + 1)
        copy = np.full(bound + 1, ~np.uint64(0))
        copy[:known] = masks[:known]
        return copy, known

    def publish(self, masks: np.ndarray, known: int) -> None:
        """Adopt ``masks``, final below ``known`` and never written again,
        if it knows more heaps than the table."""
        with self.lock:
            if known > self.known:
                self.masks, self.known = masks, known


def _moves(rules: Ruleset) -> tuple[int, int]:
    """``(lo, removed)`` of a two-heap ruleset."""
    try:
        return TWO_HEAP_MOVES[rules.name]
    except KeyError:
        raise ValueError(f"no dense backend for ruleset {rules.name!r}") from None


def bands(rules: Ruleset, bound: int) -> Iterator:
    """Grundy values of every two-heap position lo <= x, y <= bound, by mex
    recursion, in bands of consecutive rows y.

    First the fill gives every heap through ``bound`` its final mask,
    reducing only the diagonals of heaps the game's shared table lacks.
    Then each band is read from those masks alone.  Yields
    ``(xs, ys, values)`` per band of rows y0 <= y < y1: ``xs`` and ``ys``
    are the band's heap views from ``band_rows``, of shapes (1, w) and
    (k, 1), and ``values[i, j]`` the value of (xs[0, j], ys[i, 0]), fresh
    uint8 of shape (k, w).  Every canonical position y <= x falls in
    exactly one band; the k(k - 1)/2 cells of a band with x < y repeat
    their mirrored positions.  Memory is O(bound + _BAND_CELLS).  The bound
    is checked before anything runs; no budget is charged here.

    The masks are cast to the narrowest unsigned type that holds
    ``1 << top``, ``top`` the bit length of the OR of what every heap
    reaches, taken from the fill's masks alone: no cell's mex exceeds it.
    """
    lo, _ = _moves(rules)
    check_bound(lo, bound)
    return _bands(_TABLES[rules.name], bound)


def _bands(table: _Unreached, bound: int) -> Iterator:
    unreached = _fill(table, bound)
    # no cell's mex passes top, the highest value any heap reaches plus one,
    # so the masks' low top + 1 bits hold every 1 << mex a band reads
    top = int(np.bitwise_or.reduce(~unreached)).bit_length()
    unreached = unreached.astype(np.min_scalar_type(1 << top))
    for rows, cols, xs, ys in band_rows(table.lo, bound):
        free = unreached[rows, None] & unreached[None, cols]
        yield xs, ys, _values(free & -free)


# Cells per band of every banded sweep (``band_rows``).  Each band costs a
# fixed numpy dispatch per operation, so bands are wide; but glibc hands
# memory of 128 KiB and more back to the system when a band frees it, and
# the next band faults every page in afresh, so the sweeps' narrow types
# keep a band's temporaries near 80 KB.  One ``cli.main`` call of
# delete-nim 3072 and vdn 1536 (Linux x86-64, Python 3.11, numpy 2.4) took
# 74 minor page faults at every cap from 10,000 to 66,000 cells, 147 at
# 70,000 and 7,227 at 80,000 (64-bit bands: 30,596 at 40,000); its band
# compare fell from 32 ms at 10,000 cells to 19 ms at 40,000.
_BAND_CELLS = 40_000


def band_rows(lo: int, bound: int) -> Iterator[tuple]:
    """The layout of every banded sweep: ``(rows, cols, xs, ys)`` per band,
    the slices y0 .. y1 - 1 and y0 .. bound of the heaps lo .. bound,
    holding about ``_BAND_CELLS`` cells (rows times columns, read when the
    layout starts) and at least one row, and the read-only views of those
    heaps as a (1, w) row ``xs`` and a (k, 1) column ``ys``.  Every pair
    lo <= y <= x <= bound falls in exactly one band; the cells with x < y
    are the k(k - 1)/2 of a band's first k columns, k its number of rows.

    The heaps are of ``_heap_type(bound)``."""
    cells = _BAND_CELLS
    heaps = np.arange(bound + 1, dtype=_heap_type(bound))
    heaps.flags.writeable = False
    y0 = lo
    while y0 <= bound:
        y1 = min(bound + 1, y0 + max(1, cells // (bound + 1 - y0)))
        yield slice(y0, y1), slice(y0, bound + 1), heaps[None, y0:], heaps[y0:y1, None]
        y0 = y1


def _heap_type(bound: int) -> np.dtype:
    """The narrowest signed type that holds ``-(2 * bound + 2)``, so that
    ``(x | y) + 1`` and its negation fit in it for heaps through ``bound``
    and a formula on them cannot overflow: int16 through bound 16383."""
    return np.min_scalar_type(-(2 * bound + 2))


def _option_counts(rules: Ruleset, heaps: np.ndarray) -> np.ndarray:
    """How many positions choosing each heap of ``heaps`` reaches."""
    lo, removed = _moves(rules)
    return np.maximum((heaps - removed) // 2 - lo + 1, 0)


def heap_options(rules: Ruleset, first: int, last: int) -> tuple[np.ndarray, ...]:
    """The array twin of ``rulesets.*_heap_options`` for the heaps s,
    first <= s < last, of the two-heap game ``rules``: every canonical
    option (rest - a, a), lo <= a <= rest // 2 and rest = s - removed, as
    ``(heaps, xs, ys)``, one cell per option, by heap, then by a, where
    ``heaps[i]`` is the heap whose choice reaches (xs[i], ys[i]).  A heap
    below ``2 * lo + removed`` reaches nothing.  All three are of
    ``_heap_type(last)``."""
    lo, removed = _moves(rules)
    heaps = np.arange(first, last, dtype=_heap_type(last))
    counts = _option_counts(rules, heaps)
    heaps, counts = heaps[counts > 0], counts[counts > 0]
    # a running sum of ones that drops back to lo at each heap's first
    # cell, so that no temporary is wider than the heaps' type
    steps = np.ones(int(counts.sum()), heaps.dtype)
    steps[np.cumsum(counts[:-1])] = 1 - counts[:-1]
    steps[:1] = lo
    ys = np.cumsum(steps, dtype=heaps.dtype)
    del steps
    heaps = np.repeat(heaps, counts)
    xs = heaps - ys
    xs -= removed
    return heaps, xs, ys


def heap_bands(rules: Ruleset, bound: int) -> Iterator[tuple]:
    """``heap_options`` of every heap lo .. bound of the two-heap game
    ``rules``, in bands of consecutive heaps, each holding about
    ``_BAND_CELLS`` option cells (read when the layout starts) and at
    least one heap, so that a sweep over them holds O(bound +
    _BAND_CELLS) values.  Yields ``(heaps, xs, ys)`` per band, of
    ``_heap_type(bound)``.  The bands depend only on each heap's number of
    options, so VDN's through ``bound`` and Delete Nim's through
    ``bound - 1``, where heap s reaches as many positions as s + 1 in VDN,
    pair one to one."""
    lo, _ = _moves(rules)
    check_bound(lo, bound)
    cells, kind = _BAND_CELLS, _heap_type(bound)
    ends = np.cumsum(_option_counts(rules, np.arange(lo, bound + 1)))
    s0, done = lo, 0
    while s0 <= bound:
        s1 = lo + max(s0 + 1 - lo, int(np.searchsorted(ends, done + cells, "right")))
        yield tuple(a.astype(kind, copy=False) for a in heap_options(rules, s0, s1))
        s0, done = s1, int(ends[s1 - lo - 1])


def band_cells(found: list, differ: np.ndarray, xs, ys, *values) -> int:
    """Append (x, y, *values) for every cell x >= y of a band of rows where
    ``differ`` holds, and return the number of cells x >= y the band
    compared: ``xs`` and ``ys`` are a band's (1, w) row of columns x and
    (k, 1) column of rows y as ``band_rows`` lays them out, and every
    array broadcasts to the shape of ``differ``, which this masks in
    place."""
    k = len(ys)
    differ[:, :k] &= xs[:, :k] >= ys  # only the first k columns hold x < y
    if differ.any():
        cells = (np.broadcast_to(a, differ.shape)[differ].tolist() for a in (xs, ys, *values))
        found.extend(zip(*cells))
    return differ.size - k * (k - 1) // 2


def check_query(rules: Ruleset, pos, budget: int | None = None) -> tuple:
    """Validate ``pos`` and charge a query on it as ``<game> position
    <pos>``: return the canonical position and its units.  A two-heap
    position (x, y), x >= y, is charged the (x + 1)**2 cells of the grid up
    to x; a Nim position one unit per heap for each position it dominates,
    counted, not listed (no heap may pass NIM_HEAP_LIMIT)."""
    p = rules.canonical(rules.validate(pos))
    if rules.name == NIM.name:
        check_nim_heap(p[0] if p else 0)
        # at least 1 + sum(p) positions: (), each single heap up to p[0], and each
        # c, ..., c of i + 1 heaps with c <= p[i]; a refusal by this skips the DP
        units = len(p) * (1 + sum(p))
        if p and (budget is None or units <= budget):
            units = len(p) * _down_set_size(p)
    else:  # _moves refuses a ruleset with no dense backend
        units = grid_cells(_moves(rules)[0], p[0])
    return p, charge(
        lambda: f"{rules.name} position {echo_position(format_position(rules, p))}", units, budget
    )


def option_values(rules: Ruleset, pos, budget: int | None = None) -> dict:
    """Grundy value of every option of the position ``pos``, by mex
    recursion: ``{option: value}`` with canonical options, empty at a
    terminal position.  ``check_query`` charges the query first.

    The options of a two-heap position (x, y), x >= y, fill anti-diagonals
    x - removed and y - removed.  The fill through heap x reduces the
    diagonals of the heaps no earlier call reached, adding them to the
    game's shared table; then each option diagonal is read from the final
    masks.  So a query below heaps already known does O(x) work.

    The options of a Nim position are read from a Nim table that knows
    them, or from one grown to know them if earlier calls left the credit
    for it (``_NimTables``), or else from one kernel pass over the down-set
    that keeps only the options.
    """
    p, units = check_query(rules, pos, budget)
    if rules.name == NIM.name:
        return _nim_option_values(p, units)
    x, y = p
    table = _TABLES[rules.name]
    lo, removed = table.lo, table.removed
    unreached = _fill(table, x)
    values: dict = {}
    for t in sorted({y - removed, x - removed}):
        if t < 2 * lo:  # no option pair has both heaps at least lo
            continue
        y1 = t // 2  # the cells (t - y, y), y = lo .. y1, as in _fill
        free = unreached[t - y1 : t - lo + 1][::-1] & unreached[lo : y1 + 1]
        opts = zip(range(t - lo, t - y1 - 1, -1), range(lo, y1 + 1))
        values.update(zip(opts, _values(free & -free).tolist()))
    return values


def _values(low: np.ndarray) -> np.ndarray:
    # low holds 1 << value per cell; the bits below it number exactly the value
    return np.bitwise_count(low - 1)


def _fill(table: _Unreached, bound: int) -> np.ndarray:
    """The final masks of heaps 0 .. ``bound``, as uint64.

    Works on a copy of the table's masks and reduces, for each heap s it
    does not know, in rising order, the anti-diagonal t = s - removed that
    choosing s reaches: every heap on it is below s, so already final.  It
    gives the heaps it finished to the table when it ends, however it ends.
    """
    lo, removed = table.lo, table.removed
    unreached, known = table.snapshot(bound)
    try:
        for s in range(known, bound + 1):
            # the cells (t - y, y), y = lo .. t // 2: the x side falls as y rises
            t = s - removed
            y1 = t // 2
            free = unreached[t - y1 : t - lo + 1][::-1] & unreached[lo : y1 + 1]
            reached = np.bitwise_or.reduce(free & -free)
            if int(reached) >> _MASK_WIDTH:
                raise RuntimeError("grundy values exceed the dense backend's bitmask width")
            unreached[s] = ~reached
            known = s + 1
    finally:
        table.publish(unreached, known)
    return unreached


# --- sum kernel --------------------------------------------------------------
#
# The sum g + h of two boards of one two-heap game: a move chooses one heap
# of g or of h, and choosing a heap of s stones reaches the whole
# anti-diagonal s - removed of that board, so
#
#   S[g, h] = mex(row[h, g.x] | row[h, g.y] | row[g, h.x] | row[g, h.y])
#
# where row[g, s] is the bitmask of the values S[g, q] over the positions q
# on diagonal s - removed.  Swapping the boards maps the sum graph onto
# itself, q + h onto h + q, so the mask of S[q, h] over the left positions q
# of that diagonal is row[h, s], and one table serves both boards.  Block
# (tg, th) holds the sums whose left board lies on diagonal tg and whose
# right board on th.  It reads only row entries that blocks (th, tg' < tg)
# and (tg, th' < th) write, and it writes row[g, th + removed] whole.  So
# every block of one wavefront tg + th = d depends only on earlier
# wavefronts, and a wavefront is a few numpy steps, whatever its size.

_SUM_BATCH = 1 << 15  # sums per batch of consecutive blocks (one block at least)


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[i], starts[i] + 1, ... of counts[i] integers each,
    concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _sum_layout(lo: int, bound: int) -> tuple[np.ndarray, ...]:
    """The canonical positions lo <= y <= x <= bound in ``sum_positions``
    order, per anti-diagonal t = 0 .. 2 * bound: ``(first, size, start)``,
    its least y, its number of positions and the index of its first one
    (``start`` has one more entry, the total); then ``(xs, ys)``."""
    ts = np.arange(2 * bound + 1)
    first = np.maximum(lo, ts - bound)
    size = np.maximum(ts // 2 - first + 1, 0)
    start = np.zeros(2 * bound + 2, dtype=np.intp)
    np.cumsum(size, out=start[1:])
    ys = _ragged(first, size)
    return first, size, start, np.repeat(ts, size) - ys, ys


def sum_positions(rules: Ruleset, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical positions (x, y), lo <= y <= x <= bound, of the
    two-heap game ``rules`` as ``sum_values`` indexes them: ``(xs, ys)``,
    by anti-diagonal x + y, then by y."""
    lo, _ = _moves(rules)
    check_bound(0, bound)
    return _sum_layout(lo, bound)[3:]


def sum_values(rules: Ruleset, bound: int) -> Iterator:
    """Grundy value of every sum g + h of two boards of the two-heap game
    ``rules``, g and h canonical positions with lo <= y <= x <= bound, by mex
    recursion on the sum graph.

    Yields ``(g, h, values)`` per batch of sums: ``g`` and ``h`` index
    ``sum_positions(rules, bound)``, and ``values`` (uint8) is the value of
    each sum g + h.  Every ordered pair comes exactly once, by wavefront
    g.x + g.y + h.x + h.y, then by g, then by h.

    The kernel keeps the bitmasks ``row`` (see the comment above) as one
    uint64 array of (bound + 1) x T entries, T the number of positions; the
    boards hold one game, so a left board's masks are rows too.  Per
    wavefront one gather reads the four masks of every sum, ``low = ~m &
    (m + 1)`` is ``1 << mex`` per sum, and every row entry the wavefront
    completes is one OR-reduce of a run of those lows; entries past the
    bound, which nothing reads, are not kept.
    Batches of about ``_SUM_BATCH`` sums, whole blocks in wavefront order,
    keep the index arrays small: memory is O(bound**3) masks plus O(batch).
    A value of ``_MASK_WIDTH`` or more raises RuntimeError, as in ``_fill``.
    No budget is charged here; the caller charges the sums it asks for.
    """
    lo, removed = _moves(rules)
    check_bound(0, bound)
    return _sum_values(lo, removed, bound)


def _sum_blocks(lo: int, bound: int, size: np.ndarray) -> Iterator:
    """``(d, tg)`` arrays of consecutive blocks (tg, d - tg), by wavefront d,
    then tg, each batch holding at most ``_SUM_BATCH`` sums or one block."""
    top = 2 * bound
    ds = np.arange(4 * lo, 2 * top + 1)
    tg0 = np.maximum(2 * lo, ds - top)
    count = np.minimum(top, ds - 2 * lo) - tg0 + 1
    block_d, block_tg = np.repeat(ds, count), _ragged(tg0, count)
    ends = np.cumsum(size[block_tg] * size[block_d - block_tg])
    b = 0
    while b < len(ends):
        done = ends[b - 1] if b else 0
        e = max(b + 1, int(np.searchsorted(ends, done + _SUM_BATCH, "right")))
        yield block_d[b:e], block_tg[b:e]
        b = e


def _sum_values(lo: int, removed: int, bound: int) -> Iterator:
    first, size, start, xs, ys = _sum_layout(lo, bound)
    t, w = len(xs), bound + 1
    # row[i, s] at i * w + s, then one spare slot for the entries past the
    # bound, which nothing reads
    masks = np.zeros(w * t + 1, dtype=np.uint64)
    spare = len(masks) - 1
    row_at = w * np.arange(t)
    # where the four reads of a run of sums g + h, h along diagonal th,
    # start: row[h, g.x], row[h, g.y], row[g, h.y] and row[g, h.x], by g and
    # by th, and how far each moves from one h of the run to the next
    by_g = np.stack([xs, ys, row_at, row_at])
    by_th = np.stack([start[:-1] * w, start[:-1] * w, first, np.arange(len(first)) - first])
    run_steps = np.array([w, w, 1, -1])[:, None]
    # no batch holds more sums than this; with w_steps a batch steps its
    # first two reads in place, with no (4, sums) temporary
    steps = np.arange(max(min(_SUM_BATCH, t * t), int(size.max(initial=0)) ** 2))
    w_steps = w * steps

    # one batch, in a frame of its own, so that its index arrays are freed
    # before the next batch builds its own
    def batch(d: np.ndarray, tg: np.ndarray) -> tuple:
        th = d - tg
        ng, nh = size[tg], size[th]
        # a run per left position g of each block: its sums with every h on th
        g = _ragged(start[tg], ng)
        run_th, n = np.repeat(th, ng), np.repeat(nh, ng)
        run_end = np.cumsum(n)
        run_at = run_end - n
        sums = int(run_end[-1])
        reads = by_g[:, g] + by_th[:, run_th]
        reads -= run_steps * run_at
        reads = np.repeat(reads, n, axis=1)
        reads[:2] += w_steps[:sums]
        reads[2] += steps[:sums]
        reads[3] -= steps[:sums]
        # row[g, th + removed] is the OR of the run of g
        s = run_th + removed
        run_to = np.where(s <= bound, row_at[g] + s, spare)
        # per wavefront: where its runs and its sums start
        wave = np.flatnonzero(np.diff(d, prepend=-1))
        wave_runs = np.append((np.cumsum(ng) - ng)[wave], len(g))
        wave_sums = np.append(run_at, sums)[wave_runs]
        run_in_wave = run_at - np.repeat(wave_sums[:-1], np.diff(wave_runs))
        low = np.empty(sums, dtype=np.uint64)
        edges = np.stack([wave_sums, wave_runs], axis=1).tolist()
        for (a, r0), (b, r1) in zip(edges, edges[1:]):
            m = masks.take(reads[:, a:b])
            reached = m[0]
            reached |= m[1]
            reached |= m[2]
            reached |= m[3]
            lows = low[a:b]
            np.add(reached, 1, out=lows)
            lows &= np.invert(reached, out=reached)  # 1 << mex per sum
            masks[run_to[r0:r1]] = np.bitwise_or.reduceat(lows, run_in_wave[r0:r1])
        del reads  # the batch's largest array, before its output is built
        low -= 1
        values = np.bitwise_count(low)  # the bits below 1 << mex number the mex
        # past the width the masks mean nothing more, so the batch that
        # reached it is refused before any of it is handed out
        if values.max() >= _MASK_WIDTH:
            raise RuntimeError("grundy values exceed the dense backend's bitmask width")
        return np.repeat(g, n), np.repeat(start[run_th] - run_at, n) + steps[:sums], values

    for d, tg in _sum_blocks(lo, bound, size):
        yield batch(d, tg)


# --- Nim kernel --------------------------------------------------------------
#
# Shrinking a heap h of a Nim position p leaves the rest r = p minus h and
# reaches r + v for every v < h.  With M[r][h] the bitmask of the values of
# r + v over v < h,
#
#   G(p) = mex(OR of M[p minus h][h] over the distinct heaps h of p)
#   M[r][h + 1] = M[r][h] | 1 << G(r + h)
#
# Positions are zero-padded descending tuples, visited in ascending lex
# order.  r + v rises in that order as v rises, so one running mask per rest
# holds M[r][h] when r + h is visited, and every option of a position, one
# heap replaced by a smaller one, is visited before it.

NIM_HEAP_LIMIT = 1 << 16  # the masks are as wide as the values, so heaps are capped


def check_nim_heap(heap: int) -> None:
    """Refuse a Nim heap past NIM_HEAP_LIMIT, whatever the budget."""
    if heap > NIM_HEAP_LIMIT:
        limit = f"the nim kernel's limit of {NIM_HEAP_LIMIT}"
        raise BudgetExceededError(f"a heap of {echo_number(heap)} stones exceeds {limit}")


def _down_set_size(a: tuple) -> int:
    """Number of zero-padded descending tuples that the nonempty descending
    tuple ``a`` dominates, by a DP over its heaps from the last."""
    # cnt[c]: the tails b_i >= ... >= b_last, b_i == c <= a_i.  Each is a
    # prefix sum of the next cnt, the same for every c above a_{i+1}, so
    # the list for the first heap is never built.
    cnt = [1] * (a[-1] + 1)
    for i in range(len(a) - 2, -1, -1):
        pre = list(accumulate(cnt))
        if i == 0:
            return sum(pre) + (a[0] - a[1]) * pre[-1]
        cnt = pre + [pre[-1]] * (a[i] - a[i + 1])
    return len(cnt)


def nim_values(pos) -> Iterator:
    """Grundy value of every Nim position that ``pos`` dominates (every
    multiset whose sorted heaps are at most those of ``pos``, place by
    place), by mex recursion.

    Yields ``(position, value)`` with canonical positions, in ascending lex
    order of their zero-padded descending tuples, so ``pos`` comes last.
    Each position costs one mask read and one mask update per distinct heap.
    Memory is one slot per rest (a position of one heap fewer) whose last
    heap is at most the last heap of ``pos``; a slot no position reads again
    holds 0.  ``pos`` is validated, and its heaps checked against
    NIM_HEAP_LIMIT, before anything runs; no budget is charged here.
    """
    p = NIM.canonical(NIM.validate(pos))
    check_nim_heap(p[0] if p else 0)
    return _nim_values(p)


def _nim_values(a: tuple) -> Iterator:
    k = len(a)
    if not k:
        yield (), 0
        return
    for p, values in _nim_rows(a, {}, [0] * (k - 1), False):
        head = p[: k - 1 - p.count(0)]
        yield head, values[0]
        for v in range(1, len(values)):
            yield head + (v,), values[v]


def _nim_rows(a: tuple, rows: dict, prefix: list, keep: bool) -> Iterator:
    """The kernel: per prefix p, a zero-padded descending tuple of
    len(a) - 1 heaps, in ascending lex order from ``prefix`` through the
    last one ``a`` dominates, ``(p, values)`` with ``values[v]`` the value of
    p + (v,) for v = 0 .. min(p[-1], a[-1]).

    ``rows`` maps a rest minus its last heap to the running masks of such
    rests, indexed by the rest's last heap.  Without ``keep`` a slot whose
    rest no position of the down-set reads again is set to 0; with it every
    slot is kept, so a later pass over a larger cube resumes from ``rows``.
    """
    k = len(a)
    cap = a[-1]
    while True:
        # positions prefix + (v,): each distinct heap h of the prefix, at its
        # first index j, leaves the rest (prefix minus h) + (v,)
        p = tuple(prefix)
        slots = []
        for j, h in enumerate(p):
            if j and h == p[j - 1]:
                continue
            q = p[:j] + p[j + 1 :]
            row = rows.get(q)
            if row is None:
                row = rows[q] = [0] * (min(q[-1], cap) + 1 if q else cap + 1)
            slots.append((row, keep or h < a[j]))  # whether the rest comes back, with h + 1
        # shrinking a last heap v below the prefix's own leaves the rest p,
        # whose mask runs in acc; at v == last that rest is read through
        # its slot, since v is then a heap of the prefix
        last = p[-1] if p else cap + 1
        acc = 0
        values = []
        for v in range(min(last, cap) + 1):
            if v == last:
                rows[p[:-1]][v] = acc
            m = acc
            for row, _ in slots:
                m |= row[v]
            value = (m ^ (m + 1)).bit_length() - 1  # the lowest clear bit of m
            bit = 1 << value
            acc |= bit
            for row, more in slots:
                row[v] = row[v] | bit if more else 0
            values.append(value)
        yield p, values
        # the next prefix in lex order
        j = k - 2
        while j >= 0 and (prefix[j] == a[j] or (j and prefix[j] == prefix[j - 1])):
            j -= 1
        if j < 0:
            return
        prefix[j] += 1
        prefix[j + 1 :] = [0] * (k - 2 - j)


# A Nim table of K heaps knows every zero-padded descending K-tuple whose
# first heap is below m: the first C(m + K - 1, K) tuples of the kernel's lex
# order, tuple b at rank sum_i C(b_i + K-1-i, K-i).  On the cube of side m - 1,
# with every slot kept, no slot depends on m, and no row length does but that
# of the one row of two heaps, which is extended; so the pass that stopped
# after prefix (m - 1, ..., m - 1) resumes at prefix (m, 0, ..., 0).


def _rank(q: tuple, k: int) -> int:
    """Index of ``q``, zero-padded to k heaps, in lex order."""
    return sum(comb(b + k - 1 - i, k - i) for i, b in enumerate(q))


def _typecode(top: int) -> str:
    """The narrowest unsigned array typecode that holds 0 .. top."""
    return next(code for code in "BHIQ" if top < 1 << 8 * array(code).itemsize)


class _NimTables:
    """The Nim tables, by heap count K, kept for the life of the process and
    only ever grown.  Each holds the values of its tuples by rank in one
    flat array, with the kernel's rows to resume from.

    Growth is paid from credit: the charges of earlier ``option_values``
    calls, less the units growth has spent, one per heap of each new
    position.  So the tables never do more work than earlier calls were
    charged for, and the first call of a process builds nothing.  ``lock``
    is held across every read and growth.  A growth that does not finish
    leaves its rows half updated, so it empties its table.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.known: dict = {}  # K -> (values by rank, m)
        self.rows: dict = {}  # K -> the kernel's rows where the last pass stopped
        self.credit = 0

    def read(self, a: tuple, opts, units: int) -> Optional[dict]:
        """The values of ``opts``, the options of ``a``, from a table that
        knows them or one grown to, or None; then ``a``'s charge of
        ``units`` is added to the credit."""
        top = a[0] + 1
        with self.lock:
            known = self.known.items()
            covering = ((k, values) for k, (values, m) in known if k >= len(a) and m >= top)
            table = next(covering, None) or self._grow(max(len(a), 2), top)
            self.credit += units
            if table is None:
                return None
            k, values = table
            return {q: values[_rank(q, k)] for q in opts}

    def _grow(self, k: int, m: int) -> Optional[tuple]:
        """Grow the table of k heaps to first heaps below m, if the credit
        covers it: ``(k, values)``, else None."""
        values, known = self.known.get(k, (array("B"), 0))
        shell = k * (comb(m + k - 1, k) - comb(known + k - 1, k))
        if shell > self.credit:
            return None
        self.credit -= shell
        cap = m - 1
        rows = self.rows.setdefault(k, {})
        if () in rows:  # two heaps: the one row is indexed by the last heap, up to the cap
            rows[()] += [0] * (m - len(rows[()]))
        if values.typecode != _typecode(k * cap):  # a value is at most the count of options
            values = array(_typecode(k * cap), values)
        try:
            for _, row in _nim_rows((cap,) * k, rows, [known] + [0] * (k - 2), True):
                values.extend(row)
        except BaseException:
            self.known.pop(k, None)
            del self.rows[k]
            raise
        self.known[k] = values, m
        return k, values


def _nim_option_values(a: tuple, units: int) -> dict:
    """``option_values`` for the canonical Nim position ``a``, charged ``units``."""
    if not a:
        return {}
    opts = NIM.options(a)
    values = _TABLES[NIM.name].read(a, opts, units)
    if values is not None:
        return values
    # one pass over the down-set, keeping each option's value as its prefix passes
    k = len(a)
    wanted: dict = {}
    for q in opts:
        padded = q + (0,) * (k - len(q))
        wanted.setdefault(padded[:-1], []).append((padded[-1], q))
    values = {}
    for p, row in _nim_rows(a, {}, [0] * (k - 1), False):
        for v, q in wanted.get(p, ()):
            values[q] = row[v]
    return values


def _new_tables() -> dict:
    """An empty table per two-heap game, and the empty Nim tables, by
    ruleset name."""
    tables: dict = {name: _Unreached(*moves) for name, moves in TWO_HEAP_MOVES.items()}
    tables[NIM.name] = _NimTables()
    return tables


_TABLES = _new_tables()  # shared by every call in the process


def _scatter(rules: Ruleset, bound: int, budget: int | None) -> np.ndarray:
    """The dense grid of a two-heap game, charged its cells before any work."""
    units = grid_cells(_moves(rules)[0], bound)
    charge(lambda: f"{rules.name} grid to bound {echo_number(bound)}", units, budget)
    grid = np.full((bound + 1, bound + 1), -1, dtype=np.int16)
    # the sweeps' bands, each written where it lies
    for _, ys, values in bands(rules, bound):
        y0 = int(ys[0, 0])
        grid[y0 : y0 + len(ys), y0:] = values
    # mirror the upper half; -1 is below every Grundy value, and stays
    # only in VDN's row and column 0, which hold no position
    return np.maximum(grid, grid.T, out=grid)


def delete_nim_grid(bound: int, budget: int | None = None) -> np.ndarray:
    """Grundy values of every Delete Nim position with 0 <= x, y <= bound,
    computed bottom-up by mex recursion (see ``bands``)."""
    return _scatter(DELETE_NIM, bound, budget)


def vdn_grid(bound: int, budget: int | None = None) -> np.ndarray:
    """Grundy values of every VDN position with 1 <= x, y <= bound, computed
    bottom-up by mex recursion; row and column 0 hold -1 (not VDN positions)."""
    return _scatter(VDN, bound, budget)


def grundy_grid(rules: Ruleset, bound: int, budget: int | None = None) -> np.ndarray:
    """Dense Grundy table for a two-heap ruleset; index as grid[x, y] in
    either heap order."""
    _moves(rules)
    return (delete_nim_grid if rules.name == DELETE_NIM.name else vdn_grid)(bound, budget)
