"""Exhaustive brute-force verification of the closed forms and the classical
identities on bounded position grids.

Every check runs two independent routes against each other (bottom-up mex
recursion versus a closed formula, or an explicit certificate versus direct
enumeration) and emits a VerificationReport.  Sweeps are exhaustive within
their bounds, never sampled, and no sweep runs the generic engine.  Every
banded sweep takes the one layout of ``engine.band_rows``: bands of rows
of about ``engine._BAND_CELLS`` cells, on heaps in a narrow integer type.
The two-heap formula sweeps and iso read the engine's ``1 << value``
words in those bands (``engine.band_bits``) and compare each band's
words as they are, on broadcast arrays, with the closed form's bit form
(``closed_forms.*_grundy_bits``) or with the other game's words
(``_compare_bits``); equal words are equal values, so they read values
only at the cells they flag, for the report.  The certificate sweeps
(proof-steps, iso) rest on every two-heap option set being the union of
what choosing each heap reaches
(``rulesets.*_heap_options``), so they check each heap's moves once, on
the array twin of those sets, ``engine.heap_options``, in bands of heaps
of the same size (``engine.heap_bands``); proof-steps tests each position
on the heaps' masks in the narrowest unsigned type its bound allows, and
iso tests each position with the map's array twin
(``isomorphism.check_isomorphism``).  These sweeps count their checked
cells from the bands and hold O(bound) memory besides a band, and each
position they flag is explained with the scalar routes by one rule,
``_flagged.explain``.  The sum sweep compares the engine's sum
kernel (``engine.sum_values``) with the XOR of the component values from
``engine.bands``, one broadcast per batch of sums; the Bouton sweep takes
its values from the engine's Nim kernel.  Each check's row of ``_CHECKS``
gives its units, which ``_charge`` charges (``engine.charge``) in the
first line of every sweep, before any work; no kernel takes a budget.
Every check runs in the calling thread.

Mismatches are listed in row-major position order (iso lists its
option-set ones before its Grundy ones), except bouton's, which are listed
by heap count, then as ``combinations_with_replacement`` yields the heap
sizes, so ``4,3,1`` comes before ``2,2,2``.

Mismatch convention: ``expected`` is the brute-force / oracle side,
``actual`` is the closed-form / theorem side.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from . import _flagged, closed_forms, engine, isomorphism, rulesets
from .errors import DomainError

__all__ = [
    "VerificationReport",
    "Mismatch",
    "verify_delete_nim_formula",
    "verify_vdn_formula",
    "verify_bouton",
    "verify_proof_steps",
    "proof_step_failures",
    "verify_sum_theorem",
    "verify_isomorphism",
    "CHECK_NAMES",
    "DEFAULT_BOUNDS",
    "run_check",
    "run_all",
    "reports_to_json",
]

Mismatch = tuple[str, object, object]  # (position text, expected, actual)


@dataclass
class VerificationReport:
    """Outcome of one exhaustive check."""

    name: str
    bound: object  # int, or (max_heaps, max_size) for the Bouton sweep
    positions_checked: int
    mismatches: list[Mismatch]
    elapsed: float  # seconds

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_record(self) -> dict:
        """Machine-readable record; the schema is documented in the README."""
        bound = list(self.bound) if isinstance(self.bound, tuple) else self.bound
        return {
            "name": self.name,
            "bound": bound,
            "checked": self.positions_checked,
            "mismatches": [
                {"position": p, "expected": e, "actual": a}
                for p, e, a in self.mismatches
            ],
            "elapsed-milliseconds": round(self.elapsed * 1000.0, 3),
            "passed": self.passed,
        }

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: bound={_bound_text(self.bound)} "
            f"checked={self.positions_checked} mismatches={len(self.mismatches)} "
            f"elapsed={self.elapsed * 1000.0:.1f}ms"
        )


def _bound_text(bound, show: Callable = str) -> str:
    """A bound as a report prints it, bouton's (max heaps, max size) as ``3x16``."""
    return "x".join(map(show, bound)) if isinstance(bound, tuple) else show(bound)


def reports_to_json(reports: list[VerificationReport]) -> str:
    return json.dumps([r.to_record() for r in reports], indent=2)


def _as_mismatches(found: list) -> list[Mismatch]:
    # row-major (x, y) order, whatever order the cells were streamed in
    return [(f"{x},{y}", e, a) for x, y, e, a in sorted(found)]


def _compare_bits(found: list, xs, ys, bits: np.ndarray, other: np.ndarray) -> int:
    """Compare two arrays of ``1 << value`` words on a band of rows, as
    ``engine.band_cells`` counts and masks it, and append ``(x, y, value,
    other value)`` at each cell x >= y where they differ; return the
    number of cells x >= y compared.  The words are compared in one type,
    ``other`` viewed as ``bits``' where the item sizes agree and promoted
    by numpy otherwise, so equal words are equal values.  Values are read
    only at the flagged cells, on the compared words themselves, by the
    engine's rule (``engine._values``): the bits below the set bit,
    counted."""
    if other.dtype.itemsize == bits.dtype.itemsize:
        other = other.view(bits.dtype)
    differ = bits != other
    cells: list = []
    checked = engine.band_cells(cells, differ, xs, ys)
    if cells:
        values, others = (
            engine._values(np.broadcast_to(w, differ.shape)[differ]).tolist() for w in (bits, other)
        )
        found.extend((x, y, g, h) for (x, y), g, h in zip(cells, values, others))
    return checked


def _verify_two_heap(
    name: str, rules: rulesets.Ruleset, formula: str, bound: int, budget: int | None
) -> VerificationReport:
    """Compare the engine's ``1 << value`` words with the closed form's,
    ``closed_forms.<formula>``, on the same cells, a band of rows at a
    time, on the canonical cells x >= y only."""
    _charge(name, bound, budget)
    t0 = time.perf_counter()
    found: list = []
    checked = 0
    closed_form = getattr(closed_forms, formula)
    for xs, ys, bits in engine.band_bits(rules, bound):
        checked += _compare_bits(found, xs, ys, bits, closed_form(xs, ys))
    return VerificationReport(
        name, bound, checked, _as_mismatches(found), time.perf_counter() - t0
    )


def verify_delete_nim_formula(bound: int, budget: int | None = None) -> VerificationReport:
    """Engine Grundy values versus v2((x | y) + 1) for all 0 <= y <= x <= bound."""
    return _verify_two_heap(
        "delete-nim", rulesets.DELETE_NIM, "delete_nim_grundy_bits", bound, budget
    )


def verify_vdn_formula(bound: int, budget: int | None = None) -> VerificationReport:
    """Engine Grundy values on VDN rules versus v2(((x-1) | (y-1)) + 1) for
    all 1 <= y <= x <= bound."""
    return _verify_two_heap("vdn", rulesets.VDN, "vdn_grundy_bits", bound, budget)


def verify_bouton(max_heaps: int, max_size: int, budget: int | None = None) -> VerificationReport:
    """Nim kernel P/N classification (value 0 or not) versus the nim-sum
    criterion for every Nim position with at most ``max_heaps`` heaps, each
    of at most ``max_size`` stones: the positions (max_size,) * max_heaps
    dominates, in one ``engine.nim_values`` call.  Charged by ``_charge``."""
    _charge("bouton", (max_heaps, max_size), budget)
    top = (max_size,) * max_heaps if max_size else ()
    count = comb(max_size + max_heaps, max_heaps)
    t0 = time.perf_counter()
    found: list = []
    for p, value in engine.nim_values(top):
        formula_p = closed_forms.bouton_is_p(p)
        if (value == 0) != formula_p:
            position = rulesets.format_position(rulesets.NIM, p)
            # by heap count, then as combinations_with_replacement yields the sizes
            order = (len(p), p[::-1])
            found.append((order, (position, "N" if value else "P", "P" if formula_p else "N")))
    mismatches: list[Mismatch] = [mismatch for _, mismatch in sorted(found)]
    return VerificationReport(
        "bouton", (max_heaps, max_size), count, mismatches, time.perf_counter() - t0
    )


def proof_step_failures(x: int, y: int) -> list[Mismatch]:
    """Certificate checks for one Delete Nim position (empty list if both hold).

    With h the closed-form value of (x, y), which as a mex must be >= 0:
    (a) no option may have closed-form value h; (b) for every v < h, some
    heap s has bit v set (try x, then y) and the constructed option
    (s - 2**v, 2**v - 1) must be a legal option with closed-form value v.
    Together with termination this certifies that the closed form satisfies
    the defining mex recursion at (x, y).
    """
    pos_text = f"{x},{y}"
    h = closed_forms.delete_nim_grundy(x, y)
    opts = rulesets.delete_nim_options((x, y))
    found: list[Mismatch] = []
    if h < 0:
        found.append((pos_text, "a value >= 0", f"{pos_text} has value {h}"))
    hits = sorted(q for q in opts if closed_forms.delete_nim_grundy(*q) == h)
    if hits:
        found.append(
            (
                pos_text,
                f"no option with value {h}",
                f"option {hits[0][0]},{hits[0][1]} has value {h}",
            )
        )
    for v in range(h):
        bit = 1 << v
        if x & bit:
            q = rulesets.canonical_pair(x - bit, bit - 1)
        elif y & bit:
            q = rulesets.canonical_pair(y - bit, bit - 1)
        else:
            found.append((pos_text, f"a heap with bit {v} set", "neither heap has it"))
            continue
        if q not in opts:
            found.append(
                (pos_text, f"constructed option {q[0]},{q[1]} to be legal", "not an option")
            )
        value = closed_forms.delete_nim_grundy(*q)
        if value != v:
            found.append(
                (
                    pos_text,
                    f"a constructed option with value {v}",
                    f"option {q[0]},{q[1]} has value {value}",
                )
            )
    return found


def _value_bits(h: np.ndarray, mask: np.dtype) -> np.ndarray:
    """``1 << h`` per cell in the unsigned type ``mask``; 0 where h is
    outside [0, width), ``width`` the type's bits."""
    bits = np.empty(h.shape, mask)
    np.clip(h, -1, 8 * mask.itemsize, out=bits, casting="unsafe")
    return np.left_shift(mask.type(1), bits, out=bits)


def _heap_masks(bound: int, mask: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """What choosing each Delete Nim heap s <= bound contributes to the
    proof steps of every position holding it: ``(values, bad)``, masks of
    the unsigned type ``mask``, ``width`` bits.  Bit g of values[s] is set
    when some option that choosing s reaches has closed-form value g; all
    ``width`` bits are set if one has a value outside [0, width).  Bit v of
    bad[s] is set when bit v of s is set and no option of s is the one
    constructed from it, (s - 2**v, 2**v - 1), with value v.

    The options are the heaps' option layout (``engine.heap_options``),
    a band of heaps at a time (``engine.heap_bands``), and each band's
    values are one ``delete_nim_grundy_array`` call, OR-reduced by heap.
    The constructed options are found by membership, as the layout cells
    that equal one, so a layout that lacks one, or holds a cell no move
    reaches, fails here as the option set would."""
    values = np.zeros(bound + 1, mask)
    good = np.zeros(bound + 1, mask)
    for heaps, xs, ys in engine.heap_bands(rulesets.DELETE_NIM, bound):
        if not len(heaps):
            continue
        bits = _value_bits(closed_forms.delete_nim_grundy_array(xs, ys), mask)
        # the option constructed from bit v of s sums to s - 1 and one of
        # its heaps is 2**v - 1; it is good where its value is v
        hit = (bits == xs + 1) | (bits == ys + 1)
        hit &= xs + ys + 1 == heaps
        constructed = np.where(hit, bits & heaps.astype(mask), 0)
        np.copyto(bits, ~mask.type(0), where=bits == 0)
        # one run per heap; ``at`` ORs the runs of a heap that recurs
        runs = np.flatnonzero(np.diff(heaps, prepend=heaps[:1] - 1))
        np.bitwise_or.at(values, heaps[runs], np.bitwise_or.reduceat(bits, runs))
        np.bitwise_or.at(good, heaps[runs], np.bitwise_or.reduceat(constructed, runs))
    return values, np.arange(bound + 1, dtype=mask) & ~good


def _proof_step_cells(bound: int, values: np.ndarray, bad: np.ndarray) -> tuple[list, int]:
    """``(x, y, h)`` for every cell 0 <= y <= x <= bound where a proof step
    fails on the heaps' ``values`` and ``bad`` masks (see _heap_masks), h
    being the array closed form's value there, and the number of cells
    x >= y the bands tested.

    The tests run on the bands that ``engine.band_rows`` lays out, in the
    masks' unsigned type: each band evaluates the closed form once on the
    narrow heaps and tests every cell on the same broadcast arrays, so the
    sweep costs a fixed number of numpy steps per band, not Python work
    per position."""
    mask = values.dtype
    found: list = []
    checked = 0
    for rows, cols, xs, ys in engine.band_rows(0, bound):
        h = closed_forms.delete_nim_grundy_array(xs, ys)
        x, y = xs.astype(mask), ys.astype(mask)
        # below is all ones where h is outside [0, width), so that (b)
        # fails there at the type's top bit, which no heap holds
        below = _value_bits(h, mask)
        # (a) fails where bit h is set in what either heap reaches
        test = np.bitwise_or(values[None, cols], values[rows, None])
        test &= below
        flagged = test != 0
        below -= 1  # the values step (b) constructs
        # (b) fails at bit v where x holds it and is bad there, or else y
        # lacks it or is bad there
        np.bitwise_and(~x, ~y | bad[rows, None], out=test)
        test |= x & bad[None, cols]
        test &= below
        flagged |= test != 0
        checked += engine.band_cells(found, flagged, xs, ys, h)
    return found, checked


def verify_proof_steps(bound: int, budget: int | None = None) -> VerificationReport:
    """Run the per-position certificate checks for all 0 <= y <= x <= bound.

    A position's options are the union of what choosing each of its heaps
    reaches (``rulesets.delete_nim_heap_options``), so both steps are
    decided per heap: (a) holds at (x, y) when bit h is clear in the union
    of the two heaps' value bitmasks, and (b) when each bit v < h is set in
    x or y and the option constructed from that heap is good (see
    _heap_masks).  The masks come from the array closed form on the
    heaps' option layout, a band of heaps at a time; then the two tests
    run on bands of rows against the array closed form
    (``_proof_step_cells``).  So the sweep holds O(bound +
    engine._BAND_CELLS) values and does O(bound**2) work, all of it in
    numpy but at flagged positions.

    The masks' type, of ``width`` bits, is the narrowest unsigned one that
    holds ``1 << bound.bit_length()``: it comes from the bound, since the
    sweep reads no engine value.  It holds every heap bit and every
    correct value bit, and its top bit is one that no heap holds, so where
    the array form's value is outside [0, width) step (b) fails there.  A
    value outside [0, width) at an option sets every bit of its heap's
    mask, so each position holding the heap is checked in full.

    So the sweep checks the array routes, the array closed form
    (``closed_forms.delete_nim_grundy_array``) and the option layout
    (``engine.heap_options``); the scalar routes, the scalar closed form
    and ``rulesets.delete_nim_heap_options``, run only at flagged
    positions.  The tier-1 tests hold each scalar route to its array twin
    on every canonical cell and heap through bound 1024.

    Each position where either test fails is explained by the rule
    both certificate sweeps share (``_flagged.explain``): its recheck is
    proof_step_failures, one option at a time with the scalar routes, its
    twin the two closed forms, and heap s feeds Delete Nim heap s's
    layout.  The report counts the cells the bands tested.
    Charged by ``_charge``."""
    _charge("proof-steps", bound, budget)
    t0 = time.perf_counter()
    mask = np.min_scalar_type(1 << bound.bit_length())
    flagged, checked = _proof_step_cells(bound, *_heap_masks(bound, mask))
    lines = _flagged.explain(
        flagged,
        lambda p: [(p, e, a) for _, e, a in proof_step_failures(*p)],
        (lambda q: (closed_forms.delete_nim_grundy(*q),),
         lambda xs, ys: (closed_forms.delete_nim_grundy_array(xs, ys),),
         lambda g, h: (f"value {g[0]}, as delete_nim_grundy gives",
                       f"delete_nim_grundy_array gives {h[0]}")),
        lambda s: [(rulesets.DELETE_NIM, s)],
    )
    mismatches: list[Mismatch] = [(f"{x},{y}", e, a) for (x, y), e, a in lines]
    return VerificationReport(
        "proof-steps", bound, checked, mismatches, time.perf_counter() - t0
    )


def verify_sum_theorem(bound: int, budget: int | None = None) -> VerificationReport:
    """Direct mex recursion on Delete Nim sum graphs versus the XOR of the
    component values, for every ordered pair of canonical positions with
    coordinates <= bound.  The component values come from the two-heap
    backend (``engine.bands``), the sum values from the engine's sum kernel
    (``engine.sum_values``); the XOR is taken here, one broadcast per batch
    of sums the kernel yields, and ``checked`` counts the sums compared."""
    _charge("sum", bound, budget)
    t0 = time.perf_counter()
    grid = np.empty((bound + 1, bound + 1), dtype=np.uint8)
    for xs, ys, values in engine.bands(rulesets.DELETE_NIM, bound):
        grid[ys[0, 0] : ys[-1, 0] + 1, xs[0, 0] :] = values
    xs, ys = engine.sum_positions(rulesets.DELETE_NIM, bound)
    components = grid[ys, xs]  # in the kernel's position order
    found: list = []
    checked = 0
    for g, h, values in engine.sum_values(rulesets.DELETE_NIM, bound):
        xor = components[g] ^ components[h]
        differ = values != xor
        checked += differ.size
        if differ.any():
            found.extend(zip(*(a[differ].tolist() for a in (g, h, values, xor))))
    positions = list(zip(xs.tolist(), ys.tolist()))
    found = sorted((positions[g], positions[h], s, x) for g, h, s, x in found)
    mismatches: list[Mismatch] = [
        (f"{g[0]},{g[1]}+{h[0]},{h[1]}", s, x) for g, h, s, x in found
    ]
    return VerificationReport("sum", bound, checked, mismatches, time.perf_counter() - t0)


def verify_isomorphism(bound: int, budget: int | None = None) -> VerificationReport:
    """Option-set commutation under the VDN -> Delete Nim map for all
    1 <= y <= x <= bound (``isomorphism.check_isomorphism``), plus Grundy
    commutation on the same domain, each side computed by its own game's
    engine, as ``1 << value`` words, and compared a band of rows at a time
    (``engine.band_bits``, ``_compare_bits``), on the cells x >= y; both
    halves take the one band layout.  A
    position where the map and its array twin give different images is
    reported as expecting "equal images", and one where a heap's option
    layout differs from its option set as expecting "equal heap options".
    The report counts the cells the Grundy bands compared."""
    _charge("iso", bound, budget)
    t0 = time.perf_counter()
    vdn_bands = engine.band_bits(rulesets.VDN, bound)
    dn_bands = engine.band_bits(rulesets.DELETE_NIM, bound - 1)
    mismatches: list[Mismatch] = [
        (f"{p[0]},{p[1]}", expected, reason)
        for p, expected, reason in isomorphism._lines(bound)
    ]
    # VDN rows and columns 1 .. bound are Delete Nim's 0 .. bound - 1, so
    # the two games' bands are equally wide, and pair one to one, cell by
    # cell, (x, y) with (x - 1, y - 1)
    found: list = []
    checked = 0
    for (xs, ys, vdn_bits), (_, _, dn_bits) in zip(vdn_bands, dn_bands, strict=True):
        checked += _compare_bits(found, xs, ys, dn_bits, vdn_bits)
    mismatches += _as_mismatches(found)
    return VerificationReport(
        "iso", bound, checked, mismatches, time.perf_counter() - t0
    )


def _sums(bound: int, budget: int | None) -> int:
    """The units of the sum sweep: its T components, the canonical
    positions inside the bound, and its T**2 sums."""
    t = (engine.grid_cells(0, bound) + bound + 1) // 2  # (bound + 1)(bound + 2) / 2
    return t + t * t


def _nim_units(bound: tuple, budget: int | None) -> int:
    """The units of the Bouton sweep, those of a Nim query
    (``engine.check_query``) on size,...,size: heaps units for each of the
    comb(size + heaps, heaps) positions it dominates, and 0 for size 0.
    A size past the Nim kernel's limit is refused first, as by the query.
    If heaps * (1 + heaps * size), a lower bound on them, exceeds the
    budget, it is returned instead, before the binomial is worked out."""
    heaps, size = bound
    if heaps < 1 or size < 0:
        shown = ", ".join(map(rulesets.echo_number, bound))
        raise DomainError(f"need max_heaps >= 1 and max_size >= 0, got ({shown})")
    engine.check_nim_heap(size)
    units = heaps * (1 + heaps * size) if size else 0
    if size and (budget is None or units <= budget):
        units = heaps * comb(size + heaps, heaps)
    return units


# Every check, in report order: its sweep, its default bound (bouton's is its
# (max heaps, max size) pair) and ``units(bound, budget)``, which raises the
# check's DomainError for a bound outside its domain; a grid's units are its
# cells (``engine.grid_cells``).  Each default completes
# in seconds on commodity hardware; delete-nim's is the acceptance-scale one.
_CHECKS: dict[str, tuple[Callable, object, Callable]] = {
    "delete-nim": (verify_delete_nim_formula, 4096, lambda b, _: engine.grid_cells(0, b)),
    "vdn": (verify_vdn_formula, 256, lambda b, _: engine.grid_cells(1, b)),
    "bouton": (lambda bound, budget: verify_bouton(*bound, budget), (3, 16), _nim_units),
    "sum": (verify_sum_theorem, 32, _sums),
    "proof-steps": (verify_proof_steps, 1024, lambda b, _: engine.grid_cells(0, b)),
    "iso": (verify_isomorphism, 1024, lambda b, _: engine.grid_cells(1, b)),
}

CHECK_NAMES = list(_CHECKS)
DEFAULT_BOUNDS: dict = {name: bound for name, (_, bound, _) in _CHECKS.items()}


def _charge(name: str, bound, budget: int | None) -> None:
    """Check ``bound`` against the domain of the check ``name`` and charge
    its units against ``budget`` as ``<name> to bound <bound>``, before any
    work: the one refusal of every sweep."""
    units = _CHECKS[name][2](bound, budget)
    engine.charge(
        lambda: f"{name} to bound {_bound_text(bound, rulesets.echo_number)}", units, budget
    )


def run_check(name: str, bound=None, budget: int | None = None) -> VerificationReport:
    """Run one named check at ``bound`` (defaults per DEFAULT_BOUNDS)."""
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")
    check, default, _ = _CHECKS[name]
    return check(default if bound is None else bound, budget)


def run_all(bounds: dict | None = None, budget: int | None = None) -> list[VerificationReport]:
    """Run every check, in the fixed CHECK_NAMES order."""
    merged = dict(DEFAULT_BOUNDS)
    if bounds:
        merged.update(bounds)
    return [run_check(name, merged[name], budget=budget) for name in CHECK_NAMES]
