import ast
import dataclasses
import functools
import inspect
import json
from math import comb
from pathlib import Path

import numpy as np
import pytest

from impartial import closed_forms as cf
from impartial import engine, isomorphism, rulesets
from impartial import verification as vf
from impartial.errors import BudgetExceededError
from reference import ref_delete_grundy, ref_vdn_grundy


def triangle(bound):
    """Canonical pairs 0 <= y <= x <= bound."""
    return (bound + 1) * (bound + 2) // 2


def _band_cells(monkeypatch, cells):
    """Run every banded sweep in bands of ``cells`` cells: ``engine._BAND_CELLS``,
    the one band size, so that at 16 cells every band of a bound past 15 is
    one row."""
    monkeypatch.setattr(engine, "_BAND_CELLS", cells)


def _sum_positions(rules, bound) -> list:
    xs, ys = engine.sum_positions(rules, bound)
    return list(zip(xs.tolist(), ys.tolist()))


def _sum_keys(report) -> list:
    """The (g, h) pair of each mismatch of a sum report, as tuples."""
    return [
        tuple(tuple(int(v) for v in c.split(",")) for c in text.split("+"))
        for text, _, _ in report.mismatches
    ]


# Per check: a small bound, the units it costs, worked out here from the
# charge each sweep documents, and a bound far past any small budget.
_UNITS = {
    "delete-nim": (6, 7 * 7, 10**6),  # (bound + 1)**2 cells
    "vdn": (6, 7 * 7, 10**6),
    "bouton": ((2, 3), 2 * 10, (3, 128)),  # 2 heaps x C(3 + 2, 2) positions
    "sum": (3, 10 + 10 * 10, 3000),  # T = 10 components and T**2 sums
    "proof-steps": (6, 7 * 7, 10**6),
    "iso": (6, 7 * 7, 10**6),
}

_DIRECT = {
    "delete-nim": vf.verify_delete_nim_formula,
    "vdn": vf.verify_vdn_formula,
    "bouton": lambda bound, budget: vf.verify_bouton(*bound, budget=budget),
    "sum": vf.verify_sum_theorem,
    "proof-steps": vf.verify_proof_steps,
    "iso": vf.verify_isomorphism,
}


class TestSweeps:
    def test_delete_nim(self):
        rep = vf.verify_delete_nim_formula(96)
        assert rep.passed
        assert rep.mismatches == []
        assert rep.positions_checked == triangle(96)
        assert rep.name == "delete-nim"

    def test_vdn(self):
        rep = vf.verify_vdn_formula(96)
        assert rep.passed
        assert rep.positions_checked == 96 * 97 // 2

    def test_bouton(self):
        rep = vf.verify_bouton(3, 8)
        assert rep.passed
        # multisets of heap sizes 1..8 with at most 3 heaps, empty included
        assert rep.positions_checked == sum(comb(8 + k - 1, k) for k in range(4))
        assert rep.bound == (3, 8)

    def test_sum(self):
        rep = vf.verify_sum_theorem(8)
        assert rep.passed
        assert rep.positions_checked == triangle(8) ** 2

    def test_proof_steps(self):
        rep = vf.verify_proof_steps(80)
        assert rep.passed
        assert rep.positions_checked == triangle(80)

    def test_iso(self):
        rep = vf.verify_isomorphism(48)
        assert rep.passed
        assert rep.positions_checked == 48 * 49 // 2

    @pytest.mark.parametrize("bound", [127, 128])
    def test_iso_on_both_sides_of_a_mask_type_switch(self, bound):
        # Delete Nim's bands widen to uint16 masks past heap 127
        rep = vf.verify_isomorphism(bound)
        assert rep.passed
        assert rep.positions_checked == {127: 8128, 128: 8256}[bound]

    def test_iso_maps_every_heap_option_once(self, monkeypatch):
        # a passing sweep applies the scalar map to no cell, and its option
        # layout holds each VDN heap option, the floor(s / 2) splits of
        # each heap s <= 8, exactly once
        calls, layout = [], []
        right = isomorphism.vdn_to_delete
        monkeypatch.setattr(isomorphism, "vdn_to_delete", lambda p: calls.append(p) or right(p))
        heap_options = engine.heap_options

        def spy(rules, first, last):
            heaps, xs, ys = heap_options(rules, first, last)
            if rules is rulesets.VDN:
                layout.extend(zip(heaps.tolist(), xs.tolist(), ys.tolist()))
            return heaps, xs, ys

        monkeypatch.setattr(engine, "heap_options", spy)
        assert vf.verify_isomorphism(8).passed
        assert calls == []
        assert sorted(layout) == [
            (s, s - b, b) for s in range(1, 9) for b in range(s // 2, 0, -1)
        ]
        assert len(layout) == sum(s // 2 for s in range(1, 9)) == 16

    @pytest.mark.parametrize("name", ["proof-steps", "iso"])
    def test_a_passing_certificate_sweep_calls_no_scalar_route(self, monkeypatch, name):
        # the scalar routes explain flagged positions only, and a passing
        # sweep flags none
        calls = []

        def spy(module, attr):
            right = getattr(module, attr)
            monkeypatch.setattr(
                module, attr, lambda *args: calls.append((attr, args)) or right(*args)
            )

        for module, attr in [(cf, "delete_nim_grundy"), (vf, "proof_step_failures"),
                             (rulesets, "delete_nim_heap_options"),
                             (rulesets, "vdn_heap_options"), (isomorphism, "vdn_to_delete")]:
            spy(module, attr)
        assert vf.run_check(name, 40).passed
        assert calls == []

    @pytest.mark.parametrize("name", ["delete-nim", "vdn", "iso"])
    @pytest.mark.parametrize("bound", [127, 200])
    def test_a_passing_word_sweep_reads_no_value(self, monkeypatch, name, bound):
        # these sweeps compare 1 << value words and read values only at the
        # cells they flag, and a passing sweep flags none
        def unreachable(*args, **kwargs):
            raise AssertionError("a value read by a passing sweep")

        for module, attr in [(engine, "bands"), (engine, "_values"),
                             (cf, "delete_nim_grundy_array"), (cf, "vdn_grundy_array")]:
            monkeypatch.setattr(module, attr, unreachable)
        rep = vf.run_check(name, bound)
        assert rep.passed
        assert rep.positions_checked == triangle(bound) - (0 if name == "delete-nim" else bound + 1)

    def test_iso_pairs_bands_whatever_their_mask_types(self, monkeypatch):
        # bit 40 of one Delete Nim heap's mask cleared: that heap now also
        # reaches value 40, which no position near this bound has, so no
        # value moves, but Delete Nim's bands widen to uint64 masks while
        # VDN's stay uint16.  The bands still pair, by their layout alone
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        table = engine._TABLES[rulesets.DELETE_NIM.name]
        engine._fill(table, 199)
        table.masks[100] &= ~np.uint64(1 << 40)
        seen = set()
        right = engine.band_bits

        def spy(rules, bound):
            for xs, ys, bits in right(rules, bound):
                seen.add((rules.name, bits.dtype))
                yield xs, ys, bits

        monkeypatch.setattr(engine, "band_bits", spy)
        rep = vf.verify_isomorphism(200)
        assert rep.passed
        assert rep.positions_checked == 200 * 201 // 2
        assert seen == {("delete-nim", np.dtype(np.uint64)), ("vdn", np.dtype(np.uint16))}

    def test_proof_step_failures_empty_everywhere(self):
        for x in range(40):
            for y in range(x + 1):
                assert vf.proof_step_failures(x, y) == []

    def test_budget_propagates(self):
        with pytest.raises(BudgetExceededError):
            vf.verify_delete_nim_formula(2048, budget=100)
        with pytest.raises(BudgetExceededError):
            vf.verify_proof_steps(60, budget=100)
        assert vf.verify_proof_steps(60, budget=61 * 61).passed

    @pytest.mark.parametrize("heaps, size", [(1, 0), (3, 0), (1, 5), (2, 4), (3, 7), (4, 3)])
    def test_bouton_budget_threshold(self, heaps, size):
        # charged as a Nim query on size,...,size: heaps units per position
        # it dominates, the empty one and each multiset of 1..heaps sizes
        # from 1..size; size 0 is the empty position, 0 units
        count = 1 + sum(comb(size + k - 1, k) for k in range(1, heaps + 1))
        n = heaps * count if size else 0
        message = f"bouton to bound {heaps}x{size} exceeds the budget of {n - 1} units"
        with pytest.raises(BudgetExceededError) as exc:
            vf.verify_bouton(heaps, size, budget=n - 1)
        assert str(exc.value) == message
        rep = vf.verify_bouton(heaps, size, budget=n)
        assert rep.passed
        assert rep.positions_checked == count

    def test_refusals_call_no_engine(self, monkeypatch):
        # every check, by name and by its direct call, runs at exactly its
        # units and is refused one below, from a count, before any position
        # is listed or evaluated; bouton 3x128 has 366 k positions, and sum
        # at 3000 4.5 M components
        def unreachable(*args, **kwargs):
            raise AssertionError("engine called by a refused sweep")

        for name in vf.CHECK_NAMES:
            bound, n, huge = _UNITS[name]
            shown = "x".join(map(str, bound)) if name == "bouton" else bound
            for run in (functools.partial(vf.run_check, name), _DIRECT[name]):
                assert run(bound, budget=n).passed
                with monkeypatch.context() as patch:
                    for kernel in ("grundy", "classify", "band_bits", "bands", "band_rows",
                                   "heap_bands", "heap_options", "sum_values", "_nim_values"):
                        patch.setattr(engine, kernel, unreachable)
                    patch.setattr(isomorphism, "check_isomorphism", unreachable)
                    patch.setattr(rulesets, "delete_nim_heap_options", unreachable)
                    with pytest.raises(BudgetExceededError) as exc:
                        run(bound, budget=n - 1)
                    assert str(exc.value) == (
                        f"{name} to bound {shown} exceeds the budget of {n - 1} units"
                    )
                    with pytest.raises(BudgetExceededError):
                        run(huge, budget=1000)

    @pytest.mark.parametrize("name", vf.CHECK_NAMES)
    def test_each_check_charges_once(self, monkeypatch, name):
        # one charge per check, iso's included, through engine.charge, the
        # one refusal of a budget; no query is charged, and no kernel takes
        # a budget
        bound, n, _ = _UNITS[name]
        charges = []
        charge = engine.charge
        monkeypatch.setattr(engine, "charge", lambda *args: charges.append(args) or charge(*args))

        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep charged as a query")

        monkeypatch.setattr(engine, "check_query", unreachable)
        assert vf.run_check(name, bound, budget=n).passed
        assert [(units, budget) for _, units, budget in charges] == [(n, n)]
        shown = "x".join(map(str, bound)) if name == "bouton" else bound
        assert charges[0][0]() == f"{name} to bound {shown}"
        kernels = (engine.band_bits, engine.bands, engine.band_rows, engine.sum_values,
                   engine.nim_values, isomorphism.check_isomorphism)
        assert all("budget" not in inspect.signature(k).parameters for k in kernels)

    def test_bouton_refuses_a_heap_count_before_building_it(self, monkeypatch):
        # heaps * (1 + heaps * size) units, a lower bound on the charge,
        # refuse the sweep from the two numbers alone: before the heaps are
        # built or the binomial is worked out (an exact one took 37 s at
        # a million heaps of a million)
        def unreachable(*args, **kwargs):
            raise AssertionError("heaps built for a refused sweep")

        monkeypatch.setattr(engine, "check_query", unreachable)
        monkeypatch.setattr(vf, "comb", unreachable)
        with pytest.raises(BudgetExceededError) as exc:
            vf.verify_bouton(10**6, 1 << 16, budget=1 << 26)
        assert str(exc.value) == "bouton to bound 1000000x65536 exceeds the budget of 67108864 units"
        # a size past the Nim kernel's limit is refused first, whatever the budget
        with pytest.raises(BudgetExceededError) as exc:
            vf.verify_bouton(10**6, 10**6, budget=1 << 26)
        assert str(exc.value) == "a heap of 1000000 stones exceeds the nim kernel's limit of 65536"
        with pytest.raises(BudgetExceededError) as exc:
            vf.verify_bouton(10**12, 1, budget=1 << 26)
        assert str(exc.value) == (
            "bouton to bound 1000000000000x1 exceeds the budget of 67108864 units"
        )
        with pytest.raises(BudgetExceededError) as exc:
            vf.verify_bouton(3, 5, budget=8)
        assert str(exc.value) == "bouton to bound 3x5 exceeds the budget of 8 units"

    @pytest.mark.parametrize("heaps, size", [(3, 16), (1, 0)])
    def test_bouton_charges_its_query_once(self, monkeypatch, heaps, size):
        calls = []
        right = engine.nim_values

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return right(*args, **kwargs)

        monkeypatch.setattr(engine, "nim_values", counted)
        assert vf.verify_bouton(heaps, size, budget=1 << 26).passed
        # the sweep charged itself; the kernel is given the position alone
        assert calls == [(((size,) * heaps if size else (),), {})]

    def test_bouton_refuses_a_heap_past_the_kernel_limit_before_the_kernel(self, monkeypatch):
        # the size is checked with the charge, in the query's own message,
        # not by the kernel once the sweep has begun
        def unreachable(*args, **kwargs):
            raise AssertionError("the Nim kernel ran for a refused sweep")

        monkeypatch.setattr(engine, "nim_values", unreachable)
        monkeypatch.setattr(engine, "_nim_values", unreachable)
        limit = engine.NIM_HEAP_LIMIT
        message = f"a heap of {limit + 1} stones exceeds the nim kernel's limit of {limit}"
        for budget in (None, 1 << 26):
            with pytest.raises(BudgetExceededError) as exc:
                vf.verify_bouton(1, limit + 1, budget=budget)
            assert str(exc.value) == message
        with pytest.raises(BudgetExceededError) as exc:
            engine.check_query(rulesets.NIM, (limit + 1,))
        assert str(exc.value) == message


class TestFaultInjection:
    # Each pair of cells is listed in the order the sweep streams them (by
    # anti-diagonal), which is not row-major order, so the report's sort
    # is pinned too.
    @pytest.mark.parametrize(
        "verify, formula, reference, cells",
        [
            (vf.verify_delete_nim_formula, "delete_nim_grundy_bits", ref_delete_grundy,
             [(40, 7), (30, 29)]),
            (vf.verify_vdn_formula, "vdn_grundy_bits", ref_vdn_grundy,
             [(45, 3), (33, 30)]),
        ],
        ids=["delete-nim", "vdn"],
    )
    def test_wrong_formula_is_reported(self, monkeypatch, verify, formula, reference, cells):
        # the sweeps compare 1 << value words, so a value 5 too high is a
        # word shifted 5 further
        right = getattr(cf, formula)

        def wrong(xs, ys):
            bits = right(xs, ys).astype(np.int64)
            for x, y in cells:
                bits[(xs == x) & (ys == y)] <<= 5
            return bits

        monkeypatch.setattr(cf, formula, wrong)
        rep = verify(48)
        assert not rep.passed
        assert rep.mismatches == [
            (f"{x},{y}", reference(x, y), reference(x, y) + 5) for x, y in sorted(cells)
        ]

    # The sweeps compare the closed form a band of rows at a time, and read
    # mirrored cells they do not count, so faults are planted on every 7th
    # diagonal, in the middle of each, and at the corners of the triangle,
    # across every band boundary.
    @pytest.mark.parametrize(
        "verify, formula, reference, lo, bound",
        [
            (vf.verify_delete_nim_formula, "delete_nim_grundy_bits", ref_delete_grundy, 0, 200),
            (vf.verify_vdn_formula, "vdn_grundy_bits", ref_vdn_grundy, 1, 150),
        ],
        ids=["delete-nim", "vdn"],
    )
    def test_wrong_formula_across_blocks(self, monkeypatch, verify, formula, reference, lo, bound):
        cells = {(lo, lo), (bound, lo), (bound, bound)}
        for t in range(2 * lo, 2 * bound + 1, 7):
            y = (max(lo, t - bound) + t // 2) // 2
            cells.add((t - y, y))
        right = getattr(cf, formula)

        def wrong(xs, ys):
            bits = right(xs, ys).astype(np.int64)
            xs, ys = np.broadcast_arrays(xs, ys)
            planted = [(x, y) in cells for x, y in zip(xs.flat, ys.flat)]
            bits[np.array(planted, dtype=bool).reshape(bits.shape)] <<= 5
            return bits

        monkeypatch.setattr(cf, formula, wrong)
        # at 16 cells every band here is one row
        for size in (engine._BAND_CELLS, 16):
            _band_cells(monkeypatch, size)
            rep = verify(bound)
            assert rep.positions_checked == (bound - lo + 1) * (bound - lo + 2) // 2
            assert rep.mismatches == [
                (f"{x},{y}", reference(x, y), reference(x, y) + 5) for x, y in sorted(cells)
            ]

    @pytest.mark.parametrize(
        "verify, formula",
        [
            (vf.verify_delete_nim_formula, "delete_nim_grundy_bits"),
            (vf.verify_vdn_formula, "vdn_grundy_bits"),
        ],
        ids=["delete-nim", "vdn"],
    )
    def test_mirrored_cells_are_not_compared(self, monkeypatch, verify, formula):
        # a band also holds cells with x < y, which repeat canonical ones; a
        # formula wrong on those alone is right on every position.  The
        # formula reaches the sweep: the same fault on every cell fails it
        right = getattr(cf, formula)
        mirrored = []

        def wrong(xs, ys):
            mirrored.append(bool((xs < ys).any()))
            return right(xs, ys) << (xs < ys)

        monkeypatch.setattr(cf, formula, wrong)
        for size in (engine._BAND_CELLS, 16):
            _band_cells(monkeypatch, size)
            assert verify(150).passed
        assert any(mirrored)
        monkeypatch.setattr(cf, formula, lambda xs, ys: right(xs, ys) << (xs <= ys))
        assert not verify(150).passed

    def test_wrong_engine_value_is_reported(self, monkeypatch):
        # one cell of a late diagonal, (200, 197) on diagonal 397 of 401, is
        # perturbed on the engine side, which the report lists as expected:
        # its word shifted 3 further is a value 3 higher
        right = engine.band_bits

        def wrong(rules, bound):
            for xs, ys, bits in right(rules, bound):
                bits[(xs == 200) & (ys == 197)] <<= 3
                yield xs, ys, bits

        monkeypatch.setattr(engine, "band_bits", wrong)
        rep = vf.verify_delete_nim_formula(200)
        assert rep.mismatches == [
            ("200,197", ref_delete_grundy(200, 197) + 3, ref_delete_grundy(200, 197))
        ]

    def test_sum_dropped_option(self, monkeypatch):
        self._check_sum_dropped_option(monkeypatch)

    def test_sum_dropped_option_in_batches_of_one_block(self, monkeypatch):
        monkeypatch.setattr(engine, "_SUM_BATCH", 1)
        self._check_sum_dropped_option(monkeypatch)

    @staticmethod
    def _check_sum_dropped_option(monkeypatch):
        # without its value-1 option (2,0)+(1,1), the sum (3,0)+(1,1) gets
        # mex {0, 2} = 1 instead of 2 ^ 1, and every sum above it can change.
        # The sum kernel's values are replaced by the generic engine's on
        # that faulty graph, in the kernel's own pair order and batches.
        right = engine.sum_values

        def wrong(rules, bound):
            game = rulesets.make_sum(rules, rules)

            def options(p):
                opts = game.options(p)
                if p == ((3, 0), (1, 1)):
                    opts.discard(((2, 0), (1, 1)))
                return opts

            faulty = dataclasses.replace(game, options=options)
            memo = {}
            positions = _sum_positions(rules, bound)
            for g, h, _ in right(rules, bound):
                pairs = zip(g.tolist(), h.tolist())
                values = [engine.grundy((positions[i], positions[j]), faulty, memo) for i, j in pairs]
                yield g, h, np.array(values, dtype=np.uint8)

        monkeypatch.setattr(engine, "sum_values", wrong)
        rep = vf.verify_sum_theorem(6)
        assert rep.positions_checked == triangle(6) ** 2
        assert len(rep.mismatches) == 81
        assert rep.mismatches[0] == ("3,0+1,1", 1, 3)
        assert rep.mismatches[-1] == ("6,5+5,5", 4, 2)
        assert _sum_keys(rep) == sorted(_sum_keys(rep))  # row-major in (g, h)

    @pytest.mark.parametrize("batch", [1, 1 << 15])
    def test_wrong_sum_value_is_reported_once(self, monkeypatch, batch):
        right = engine.sum_values

        def wrong(rules, bound):
            positions = _sum_positions(rules, bound)
            i, j = positions.index((5, 2)), positions.index((3, 3))
            for g, h, values in right(rules, bound):
                values[(g == i) & (h == j)] += 4
                yield g, h, values

        monkeypatch.setattr(engine, "sum_values", wrong)
        monkeypatch.setattr(engine, "_SUM_BATCH", batch)
        rep = vf.verify_sum_theorem(6)
        value = ref_delete_grundy(5, 2) ^ ref_delete_grundy(3, 3)
        assert rep.positions_checked == triangle(6) ** 2
        assert rep.mismatches == [("5,2+3,3", value + 4, value)]

    def test_wrong_component_value_is_reported_at_every_sum_holding_it(self, monkeypatch):
        # (3,0) is given value 3 instead of 2, mirrored cell included: every
        # sum with it on one board differs, and (3,0)+(3,0), whose XOR is 0
        # either way, does not
        right = engine.bands

        def wrong(rules, bound):
            for xs, ys, values in right(rules, bound):
                values[(xs == 3) & (ys == 0) | (xs == 0) & (ys == 3)] += 1
                yield xs, ys, values

        monkeypatch.setattr(engine, "bands", wrong)
        rep = vf.verify_sum_theorem(6)
        others = [(x, y) for x in range(7) for y in range(x + 1) if (x, y) != (3, 0)]
        assert len(rep.mismatches) == 2 * len(others) == 54
        assert sorted(_sum_keys(rep)) == sorted(
            [((3, 0), c) for c in others] + [(c, (3, 0)) for c in others]
        )
        assert _sum_keys(rep) == sorted(_sum_keys(rep))
        for text, expected, actual in rep.mismatches:
            g, h = (tuple(int(v) for v in c.split(",")) for c in text.split("+"))
            assert expected == ref_delete_grundy(*g) ^ ref_delete_grundy(*h)
            assert actual == expected ^ 2 ^ 3

    # bouton lists mismatches in the order it enumerates positions, by heap
    # count and then as combinations_with_replacement yields the heap
    # sizes, so 4,3,1 comes before 2,2,2
    def test_bouton_wrong_criterion(self, monkeypatch):
        right = cf.bouton_is_p
        monkeypatch.setattr(cf, "bouton_is_p", lambda p: right(p) != (p in {(), (3, 2, 1)}))
        assert vf.verify_bouton(3, 4).mismatches == [("0", "P", "N"), ("3,2,1", "P", "N")]

    def test_bouton_illegal_extra_option(self, monkeypatch):
        # the Nim kernel replaced by the generic engine on rules where (1, 1)
        # has the illegal option (): that option has value 0, so (1, 1) is
        # called an N-position, and values above it shift
        game = rulesets.NIM
        kernel = engine.nim_values

        def options(p):
            opts = game.options(p)
            if p == (1, 1):
                opts.add(())
            return opts

        faulty = dataclasses.replace(game, options=options)

        def values(pos):
            memo: engine.MemoTable = {}
            return ((p, engine.grundy(p, faulty, memo)) for p, _ in kernel(pos))

        monkeypatch.setattr(engine, "nim_values", values)
        assert vf.verify_bouton(3, 4).mismatches == [
            ("1,1", "N", "P"), ("2,1", "P", "N"), ("2,2", "N", "P"), ("1,1,1", "P", "N"),
            ("3,2,1", "N", "P"), ("4,3,1", "P", "N"), ("2,2,2", "P", "N"),
        ]


def _patched(right, cells):
    """``right`` except at the argument tuples ``cells`` maps to a result."""

    def wrong(*args):
        return cells[args] if args in cells else right(*args)

    return wrong


def _patched_array(right, cells):
    """The array twin of ``_patched``: ``right`` as int64, so that -1 fits,
    except at the cells (x, y) of the broadcast arguments ``cells`` maps
    to a value."""

    def wrong(xs, ys):
        values = right(xs, ys).astype(np.int64)
        for (x, y), value in cells.items():
            values[(xs == x) & (ys == y)] = value
        return values

    return wrong


def _patched_image(right, cells):
    """``_patched`` for the map's array twin: the image arrays of ``right``
    as int64, so that any image fits, except at the cells (x, y) of the
    broadcast arguments ``cells`` maps to an image."""

    def wrong(xs, ys):
        big, small = (a.astype(np.int64) for a in right(xs, ys))
        for (x, y), (a, b) in cells.items():
            at = (xs == x) & (ys == y)
            big[at], small[at] = a, b
        return big, small

    return wrong


def _on_options(right, wrong):
    """An array form that is ``wrong`` where the option layout evaluates
    it, on one-dimensional cells, and ``right`` on the two-dimensional
    bands of rows."""

    def form(xs, ys):
        return (wrong if np.ndim(xs) == 1 else right)(xs, ys)

    return form


def _dropping_cell(right, rules, heap, option):
    """The option layout ``right`` (``engine.heap_options``) with
    ``option`` missing from what choosing a heap of ``heap`` stones reaches
    in the game ``rules``."""

    def wrong(game, first, last):
        heaps, xs, ys = right(game, first, last)
        keep = (heaps != heap) | (xs != option[0]) | (ys != option[1]) | (game is not rules)
        return heaps[keep], xs[keep], ys[keep]

    return wrong


def _adding_cell(right, rules, heap, extra):
    """The option layout ``right`` with the cell ``extra`` added, last, to
    what choosing a heap of ``heap`` stones reaches in the game ``rules``."""

    def wrong(game, first, last):
        cells = right(game, first, last)
        if game is rules and first <= heap < last:
            at = int(np.searchsorted(cells[0], heap, "right"))
            cells = (np.insert(a, at, v) for a, v in zip(cells, (heap, *extra)))
        return tuple(cells)

    return wrong


def _dropping(right, heap, option):
    """The heap primitive ``right`` with ``option`` missing from what choosing
    a heap of ``heap`` stones reaches."""

    def wrong(s):
        opts = right(s)
        if s == heap:
            opts.discard(option)
        return opts

    return wrong


def _adding(right, heap, extra):
    """The heap primitive ``right`` with the ``extra`` options added to what
    choosing a heap of ``heap`` stones reaches."""

    def wrong(s):
        opts = right(s)
        if s == heap:
            opts |= extra
        return opts

    return wrong


class TestCertificateFaultInjection:
    # Each list is pinned literally: it is the report a faulty closed form
    # or ruleset gives with every option checked by its own call, so the
    # certificate sweeps must report exactly the same whatever shortcuts
    # they take.  A faulty closed form is planted in the scalar and the
    # array form alike, at the same cells: proof-steps tests each position
    # with the array form and each option with the scalar.

    def test_proof_steps_wrong_scalar(self, monkeypatch):
        cells = {(9, 4): 3, (6, 5): 0}  # right: 1 and 3
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        rep = vf.verify_proof_steps(14)
        assert rep.positions_checked == triangle(14)
        assert rep.mismatches == [
            ("6,5", "no option with value 0", "option 2,2 has value 0"),
            ("9,4", "no option with value 3", "option 5,3 has value 3"),
            ("9,4", "a heap with bit 1 set", "neither heap has it"),
        ] + [
            (f"{x},{y}", "no option with value 0", "option 6,5 has value 0")
            for x, y in [(12, 0), (12, 2), (12, 4), (12, 6), (12, 8), (12, 10), (12, 12), (14, 12)]
        ]

    def test_proof_steps_wrong_scalar_with_no_heap_bit(self, monkeypatch):
        # (12, 4) is no option of any position inside the bound, and no
        # option of it has the wrong value 1, so only step (b) can fail
        cells = {(12, 4): 1}  # right: 0
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        rep = vf.verify_proof_steps(12)
        assert rep.mismatches == [("12,4", "a heap with bit 0 set", "neither heap has it")]

    def test_proof_steps_negative_scalar(self, monkeypatch):
        # a negative value is reported where it is checked, not raised
        cells = {(4, 0): -1}  # right: 0
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        rep = vf.verify_proof_steps(8)
        assert rep.mismatches == [("4,0", "a value >= 0", "4,0 has value -1")] + [
            (f"{x},{y}", "a constructed option with value 0", "option 4,0 has value -1")
            for x, y in [(5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (6, 5), (8, 5)]
        ]

    def test_proof_steps_negative_scalar_at_the_position(self, monkeypatch):
        # (12, 4) is no constructed option, so its own check is the only
        # one that can see the value; -1 has no bits below it for step (b)
        cells = {(12, 4): -1}  # right: 0
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        assert vf.proof_step_failures(12, 4) == [("12,4", "a value >= 0", "12,4 has value -1")]
        for bound in (12, 20):
            assert vf.verify_proof_steps(bound).mismatches == [
                ("12,4", "a value >= 0", "12,4 has value -1")
            ]

    def test_proof_steps_wide_scalar(self, monkeypatch):
        # value 64 at the option (5, 3) is past every mask bit, so each
        # position holding heap 9, which reaches it, is checked in full;
        # only (5, 3) itself fails, at every bit from 3 up
        cells = {(5, 3): 64}  # right: 3
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        rep = vf.verify_proof_steps(20)
        assert rep.positions_checked == triangle(20)
        assert rep.mismatches == [
            ("5,3", f"a heap with bit {v} set", "neither heap has it") for v in range(3, 64)
        ]

    def test_proof_steps_masks_narrow_at_the_switch_point(self, monkeypatch):
        # the masks' type comes from the bound: uint8 through 127 and
        # uint16 from 128.  Value 8, planted at (127, 127) and at the option
        # (5, 3), lies past uint8 and inside uint16, and is reported alike;
        # 256 at (100, 20), no constructed option, whose heaps reach no
        # value 0, lies past both
        cells = {(127, 127): 8, (5, 3): 8, (100, 20): 256}  # right: 7, 3 and 0
        monkeypatch.setattr(cf, "delete_nim_grundy", _patched(cf.delete_nim_grundy, cells))
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, cells)
        )
        types = []
        right = vf._proof_step_cells
        monkeypatch.setattr(
            vf, "_proof_step_cells",
            lambda bound, values, bad: types.append((values.dtype, bad.dtype))
            or right(bound, values, bad),
        )
        reports = [vf.verify_proof_steps(bound).mismatches for bound in (127, 128)]
        assert types == [(np.dtype(np.uint8),) * 2, (np.dtype(np.uint16),) * 2]
        expected = [
            ("5,3", f"a heap with bit {v} set", "neither heap has it") for v in range(3, 8)
        ] + [
            ("100,20", f"a heap with bit {v} set", "neither heap has it")
            for v in [0, 1, 3, *range(7, 256)]
        ] + [("127,127", "a heap with bit 7 set", "neither heap has it")]
        assert reports == [expected, expected]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_array_form_disagrees(self, monkeypatch, band_size):
        # values planted in the array form alone, which the bands test: the
        # scalar checks of proof_step_failures find nothing there, so each
        # cell is reported as the two forms' disagreement, once, and not
        # dropped.  They sit at the corners and on every 7th diagonal, so
        # across every band boundary; at 16 cells every band is one row.
        bound = 200
        cells = {(0, 0), (bound, 0), (bound, bound)}
        for t in range(0, 2 * bound + 1, 7):
            y = (max(0, t - bound) + t // 2) // 2
            cells.add((t - y, y))
        wrong = {(x, y): ref_delete_grundy(x, y) + 1 for x, y in cells}
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _patched_array(cf.delete_nim_grundy_array, wrong)
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_proof_steps(bound)
        assert rep.positions_checked == triangle(bound)
        assert rep.mismatches == [
            (f"{x},{y}", f"value {g - 1}, as delete_nim_grundy gives",
             f"delete_nim_grundy_array gives {g}")
            for (x, y), g in sorted(wrong.items())
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_iso_wrong_engine_value_is_reported_once(self, monkeypatch, band_size):
        # the VDN value of (200, 197) perturbed wherever a band holds it,
        # mirrored cells included: the Grundy commutation reports it once
        right = engine.band_bits

        def wrong(rules, bound):
            for xs, ys, bits in right(rules, bound):
                if rules is rulesets.VDN:
                    bits[(xs == 200) & (ys == 197) | (xs == 197) & (ys == 200)] <<= 3
                yield xs, ys, bits

        monkeypatch.setattr(engine, "band_bits", wrong)
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(200)
        assert rep.positions_checked == 200 * 201 // 2
        assert rep.mismatches == [
            ("200,197", ref_vdn_grundy(200, 197), ref_vdn_grundy(200, 197) + 3)
        ]

    # Option faults are planted in the per-heap primitive on ``rulesets``,
    # which the option sets read, and alike in its array twin, the option
    # layout the sweeps read, so each one reaches every position that
    # holds the faulty heap.

    def test_proof_steps_dropped_option(self, monkeypatch):
        monkeypatch.setattr(
            rulesets, "delete_nim_heap_options",
            _dropping(rulesets.delete_nim_heap_options, 8, (7, 0)),
        )
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
        )
        rep = vf.verify_proof_steps(20)
        assert rep.mismatches == [
            ("8,7", "constructed option 7,0 to be legal", "not an option")
        ]

    def test_proof_steps_dropped_option_of_the_smaller_heap(self, monkeypatch):
        # at (8, 7) and (10, 7) bit 0 comes from the smaller heap, 7
        monkeypatch.setattr(
            rulesets, "delete_nim_heap_options",
            _dropping(rulesets.delete_nim_heap_options, 7, (6, 0)),
        )
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 7, (6, 0)),
        )
        rep = vf.verify_proof_steps(10)
        assert rep.mismatches == [
            (f"{x},{y}", "constructed option 6,0 to be legal", "not an option")
            for x, y in [(7, 0), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (7, 7),
                         (8, 7), (10, 7)]
        ]

    def test_proof_steps_illegal_extra_option(self, monkeypatch):
        # (10, 3) does not sum to 2, so no move from a heap of 3 reaches it
        monkeypatch.setattr(
            rulesets, "delete_nim_heap_options",
            _adding(rulesets.delete_nim_heap_options, 3, {(10, 3)}),
        )
        monkeypatch.setattr(
            engine, "heap_options",
            _adding_cell(engine.heap_options, rulesets.DELETE_NIM, 3, (10, 3)),
        )
        rep = vf.verify_proof_steps(12)
        assert rep.mismatches == [
            (f"{x},{y}", "no option with value 2", "option 10,3 has value 2")
            for x, y in [(3, 0), (3, 1), (3, 2), (3, 3), (8, 3), (9, 3), (10, 3), (11, 3)]
        ]

    # The option-fault tests take a band size, so that
    # test_iso_option_faults_cross_band_edges runs them again in bands of
    # 16 cells, one or two rows each.

    def test_iso_wrong_map(self, monkeypatch, band_size=engine._BAND_CELLS):
        # iso tests each position's own image with the array twin, so the
        # faulty images are planted in the scalar map and the twin alike
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete",
            _patched(isomorphism.vdn_to_delete, {((6, 2),): (4, 2), ((5, 5),): (5, 3)}),
        )
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete_array",
            _patched_image(isomorphism.vdn_to_delete_array, {(6, 2): (4, 2), (5, 5): (5, 3)}),
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(8)
        assert rep.positions_checked == 8 * 9 // 2
        assert rep.mismatches == [
            ("5,5", "equal option sets",
             "extra=[(2, 1), (3, 0)] missing=[(1, 1), (2, 0), (2, 2), (3, 1), (4, 0)]"),
            ("6,2", "equal option sets",
             "extra=[(0, 0), (2, 2), (3, 1), (4, 0)] missing=[(1, 0), (2, 1), (3, 0)]"),
        ] + [
            (f"8,{y}", "equal option sets", "extra=[] missing=[(5, 1)]") for y in range(1, 9)
        ]

    def test_iso_dropped_option(self, monkeypatch, band_size=engine._BAND_CELLS):
        monkeypatch.setattr(
            rulesets, "vdn_heap_options", _dropping(rulesets.vdn_heap_options, 9, (6, 3))
        )
        monkeypatch.setattr(
            engine, "heap_options", _dropping_cell(engine.heap_options, rulesets.VDN, 9, (6, 3))
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(10)
        assert rep.mismatches == [
            (f"{x},{y}", "equal option sets", "extra=[] missing=[(5, 2)]")
            for x, y in [(9, 1), (9, 2), (9, 3), (9, 4), (9, 5), (9, 6), (9, 7), (9, 8),
                         (9, 9), (10, 9)]
        ]

    def test_iso_illegal_extra_option(self, monkeypatch, band_size=engine._BAND_CELLS):
        # (9, 5) does not sum to 7, so no move from a heap of 7 reaches it
        monkeypatch.setattr(
            rulesets, "vdn_heap_options", _adding(rulesets.vdn_heap_options, 7, {(9, 5)})
        )
        monkeypatch.setattr(
            engine, "heap_options", _adding_cell(engine.heap_options, rulesets.VDN, 7, (9, 5))
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(10)
        assert rep.mismatches == [
            (f"{x},{y}", "equal option sets", "extra=[(8, 4)] missing=[]")
            for x, y in [(7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (7, 7), (8, 7),
                         (9, 7), (10, 7)]
        ]

    @pytest.mark.parametrize(
        "fault", ["test_iso_wrong_map", "test_iso_dropped_option", "test_iso_illegal_extra_option"]
    )
    def test_iso_option_faults_cross_band_edges(self, monkeypatch, fault):
        # the same reports when the flagged cells fall in different bands
        getattr(self, fault)(monkeypatch, band_size=16)

    @pytest.mark.parametrize("name", ["delete-nim", "vdn", "sum", "proof-steps", "iso"])
    def test_small_bands_reach_every_band_reader(self, monkeypatch, name):
        # every band of the sweep is laid out by band_rows from the one
        # constant _band_cells sets (iso lays out three grids, the others
        # one), so a 16-cell run of a fault test is one in bands of one or
        # two rows, and at the default bound 12 is one band
        layouts = []
        band_rows = engine.band_rows

        def spy(lo, bound):
            layout: list = []
            layouts.append(layout)
            for rows, cols, xs, ys in band_rows(lo, bound):
                layout.append((len(ys), xs.shape[1]))
                yield rows, cols, xs, ys

        monkeypatch.setattr(engine, "band_rows", spy)
        for size in (engine._BAND_CELLS, 16):
            _band_cells(monkeypatch, size)
            layouts.clear()
            assert vf.run_check(name, 12).passed
            assert len(layouts) == (3 if name == "iso" else 1)
            if size == 16:
                assert all(len(layout) > 1 for layout in layouts)
                assert all(k == 1 or k * w <= 16 for layout in layouts for k, w in layout)
            else:
                assert all(len(layout) == 1 for layout in layouts)

    # Faults planted in an array route alone, the option layout or an array
    # form where the layout evaluates it: the scalar routes find nothing at
    # the positions a faulty heap flags, so the heap's fault is reported,
    # once, at the first of them or at the faulty cell.

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_cell_dropped_from_the_layout_alone(self, monkeypatch, band_size):
        # (7, 0), the option constructed from bit 3 of heap 8, which (8, 7)
        # alone needs, is missing from heap 8's layout
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_proof_steps(20)
        assert rep.positions_checked == triangle(20)
        assert rep.mismatches == [
            ("8,7", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1), (7, 0)], "
             "the option layout gives [(4, 3), (5, 2), (6, 1)]")
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    @pytest.mark.parametrize("cell, value", [((7, 0), 4), ((5, 2), 64), ((5, 2), -1)])
    def test_proof_steps_wrong_array_value_at_a_heap_option_alone(
        self, monkeypatch, band_size, cell, value
    ):
        # a wrong value where the layout evaluates the array form, at an
        # option of heap 8 (right 3): at (7, 0), the option constructed from
        # its bit 3, or outside the masks' bits at (5, 2), which sets all
        # of heap 8's value bits.  The bands' own value there stays right,
        # and the disagreement is reported at the option's place, before
        # the one planted at (7, 5) in the array form alike (right 3)
        right = _patched_array(cf.delete_nim_grundy_array, {(7, 5): 2})
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _on_options(right, _patched_array(right, {cell: value}))
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_proof_steps(20)
        assert rep.positions_checked == triangle(20)
        assert rep.mismatches == [
            (f"{cell[0]},{cell[1]}", "value 3, as delete_nim_grundy gives",
             f"delete_nim_grundy_array gives {value}"),
            ("7,5", "value 3, as delete_nim_grundy gives", "delete_nim_grundy_array gives 2"),
        ]

    def test_proof_steps_foreign_cell_in_place_of_a_constructed_option(self, monkeypatch):
        # heap 8 reaches (7, 7) in place of (7, 0), its option constructed
        # from bit 3: (7, 7) holds 2**3 - 1 and has value 3, but does not
        # sum to 7, so it is no constructed option and (8, 7) fails
        monkeypatch.setattr(
            rulesets, "delete_nim_heap_options",
            _adding(_dropping(rulesets.delete_nim_heap_options, 8, (7, 0)), 8, {(7, 7)}),
        )
        monkeypatch.setattr(
            engine, "heap_options",
            _adding_cell(
                _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
                rulesets.DELETE_NIM, 8, (7, 7),
            ),
        )
        assert vf.verify_proof_steps(20).mismatches == [
            ("8,7", "constructed option 7,0 to be legal", "not an option")
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_iso_cell_dropped_from_the_layout_alone(self, monkeypatch, band_size):
        # (6, 3) is missing from VDN heap 9's layout, so heap 9 fails; the
        # option sets commute at every position holding it
        monkeypatch.setattr(
            engine, "heap_options", _dropping_cell(engine.heap_options, rulesets.VDN, 9, (6, 3))
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(10)
        assert rep.positions_checked == 10 * 11 // 2
        assert rep.mismatches == [
            ("9,1", "equal heap options",
             "vdn_heap_options(9) gives [(5, 4), (6, 3), (7, 2), (8, 1)], "
             "the option layout gives [(5, 4), (7, 2), (8, 1)]")
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    @pytest.mark.parametrize("image", [(4, 3), (5, 1)])
    def test_iso_wrong_twin_image_at_a_heap_option_alone(self, monkeypatch, band_size, image):
        # the twin sends VDN heap 9's option (6, 3), right (5, 2), to a
        # wrong image where the layout evaluates it; the bands' own image
        # there stays right, and the two images are reported at (6, 3)'s
        # place, before (6, 5), planted alike in both (right (5, 4))
        right = _patched_image(isomorphism.vdn_to_delete_array, {(6, 5): (5, 3)})
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete_array",
            _on_options(right, _patched_image(right, {(6, 3): image})),
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(10)
        assert rep.positions_checked == 10 * 11 // 2
        assert rep.mismatches == [
            ("6,3", "equal images",
             f"vdn_to_delete gives (5, 2), vdn_to_delete_array gives {image}"),
            ("6,5", "equal images", "vdn_to_delete gives (5, 4), vdn_to_delete_array gives (5, 3)"),
        ]

    @pytest.mark.parametrize("name", ["proof-steps", "iso"])
    def test_small_bands_reach_every_heap_layout(self, monkeypatch, name):
        # the per-heap layouts come in bands of consecutive heaps from the
        # one constant: one band per game at the default for bound 40, and
        # at 16 cells several, each of at most 16 option cells or one heap
        # (heap 40 reaches 20); every heap of each game comes once
        calls = []
        heap_options = engine.heap_options

        def spy(rules, first, last):
            cells = heap_options(rules, first, last)
            calls.append((rules.name, first, last, len(cells[0])))
            return cells

        monkeypatch.setattr(engine, "heap_options", spy)
        games = {"proof-steps": [("delete-nim", 0, 41)],
                 "iso": [("vdn", 1, 41), ("delete-nim", 0, 40)]}[name]
        for size in (engine._BAND_CELLS, 16):
            _band_cells(monkeypatch, size)
            calls.clear()
            assert vf.run_check(name, 40).passed
            assert sorted({game for game, *_ in calls}) == sorted(game for game, _, _ in games)
            for game, first, last in games:
                bands = [(f, t, n) for g, f, t, n in calls if g == game]
                assert [f for f, _, _ in bands] == [first] + [t for _, t, _ in bands[:-1]]
                assert bands[-1][1] == last
                if size == 16:
                    assert len(bands) > 1
                    assert all(n <= 16 or t - f == 1 for f, t, n in bands)
                    assert any(n > 16 for _, _, n in bands)
                else:
                    assert len(bands) == 1

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_iso_wrong_twin_image_is_reported_once(self, monkeypatch, band_size):
        # the scalar map is right everywhere, so the option sets commute at
        # (150, 37), and only the twin's image there is wrong
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete_array",
            _patched_image(isomorphism.vdn_to_delete_array, {(150, 37): (149, 35)}),
        )
        _band_cells(monkeypatch, band_size)
        rep = vf.verify_isomorphism(200)
        assert rep.positions_checked == 200 * 201 // 2
        assert rep.mismatches == [
            ("150,37", "equal images",
             "vdn_to_delete gives (149, 36), vdn_to_delete_array gives (149, 35)")
        ]

    # Two faults in one heap: both sweeps explain a flagged position by
    # one rule, which audits the position's heaps even when the position
    # itself already has a line, so the second fault is named too.

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_dropped_layout_cell_and_wide_layout_value(self, monkeypatch, band_size):
        # heap 8's layout lacks (7, 0) and gives its option (5, 2) value 64,
        # which flags every position holding heap 8, the first at (8, 0)
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
        )
        right = cf.delete_nim_grundy_array
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array", _on_options(right, _patched_array(right, {(5, 2): 64}))
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_proof_steps(20).mismatches == [
            ("5,2", "value 3, as delete_nim_grundy gives", "delete_nim_grundy_array gives 64"),
            ("8,0", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1), (7, 0)], "
             "the option layout gives [(4, 3), (5, 2), (6, 1)]"),
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_iso_dropped_layout_cell_and_wrong_layout_image(self, monkeypatch, band_size):
        # VDN heap 9's layout lacks (6, 3), and the twin sends its option
        # (7, 2) to a wrong image where the layout evaluates it
        monkeypatch.setattr(
            engine, "heap_options", _dropping_cell(engine.heap_options, rulesets.VDN, 9, (6, 3))
        )
        right = isomorphism.vdn_to_delete_array
        monkeypatch.setattr(
            isomorphism, "vdn_to_delete_array",
            _on_options(right, _patched_image(right, {(7, 2): (6, 0)})),
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_isomorphism(10).mismatches == [
            ("7,2", "equal images", "vdn_to_delete gives (6, 1), vdn_to_delete_array gives (6, 0)"),
            ("9,1", "equal heap options",
             "vdn_heap_options(9) gives [(5, 4), (6, 3), (7, 2), (8, 1)], "
             "the option layout gives [(5, 4), (7, 2), (8, 1)]"),
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_layout_fault_at_a_position_whose_twin_disagrees(
        self, monkeypatch, band_size
    ):
        # heap 8's layout lacks (7, 0), which (8, 7) alone needs, and the
        # array form is wrong at (8, 7) and (12, 3), in the bands and the
        # layouts alike (right 4 at both).  (8, 7) is the one flagged
        # position holding heap 8, so its heap is audited although its own
        # values disagree
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
        )
        monkeypatch.setattr(
            cf, "delete_nim_grundy_array",
            _patched_array(cf.delete_nim_grundy_array, {(8, 7): 5, (12, 3): 1}),
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_proof_steps(20).mismatches == [
            ("8,7", "value 4, as delete_nim_grundy gives", "delete_nim_grundy_array gives 5"),
            ("8,7", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1), (7, 0)], "
             "the option layout gives [(4, 3), (5, 2), (6, 1)]"),
            ("12,3", "value 4, as delete_nim_grundy gives", "delete_nim_grundy_array gives 1"),
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_iso_cell_dropped_from_the_delete_nim_layout_alone(self, monkeypatch, band_size):
        # Delete Nim heap 8's layout lacks (7, 0): VDN heap 9 fails, and is
        # reported at (9, 1), the first position holding it
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_isomorphism(12).mismatches == [
            ("9,1", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1), (7, 0)], "
             "the option layout gives [(4, 3), (5, 2), (6, 1)]")
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_heap_audited_where_the_recheck_finds_lines(self, monkeypatch, band_size):
        # (7, 0) is dropped from heap 8's option set and layout alike, so
        # the recheck of (8, 7), the one position that needs it, fails;
        # the layout alone also lacks (6, 1), and heap 8 is still audited
        monkeypatch.setattr(
            rulesets, "delete_nim_heap_options",
            _dropping(rulesets.delete_nim_heap_options, 8, (7, 0)),
        )
        monkeypatch.setattr(
            engine, "heap_options",
            _dropping_cell(_dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
                           rulesets.DELETE_NIM, 8, (6, 1)),
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_proof_steps(20).mismatches == [
            ("8,7", "constructed option 7,0 to be legal", "not an option"),
            ("8,7", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1)], "
             "the option layout gives [(4, 3), (5, 2)]"),
        ]

    @pytest.mark.parametrize("band_size", [engine._BAND_CELLS, 16])
    def test_proof_steps_larger_heap_audited_first(self, monkeypatch, band_size):
        # heap 8's layout lacks (7, 0) and heap 7's holds (15, 0), of value
        # 4; (8, 7) is the first position either flags, and the two lines
        # there come the larger heap first
        monkeypatch.setattr(
            engine, "heap_options",
            _adding_cell(_dropping_cell(engine.heap_options, rulesets.DELETE_NIM, 8, (7, 0)),
                         rulesets.DELETE_NIM, 7, (15, 0)),
        )
        _band_cells(monkeypatch, band_size)
        assert vf.verify_proof_steps(20).mismatches == [
            ("8,7", "equal heap options",
             "delete_nim_heap_options(8) gives [(4, 3), (5, 2), (6, 1), (7, 0)], "
             "the option layout gives [(4, 3), (5, 2), (6, 1)]"),
            ("8,7", "equal heap options",
             "delete_nim_heap_options(7) gives [(3, 3), (4, 2), (5, 1), (6, 0)], "
             "the option layout gives [(3, 3), (4, 2), (5, 1), (6, 0), (15, 0)]"),
        ]


class TestReportShape:
    def test_record_schema(self):
        rep = vf.verify_vdn_formula(16)
        record = rep.to_record()
        assert set(record) == {
            "name",
            "bound",
            "checked",
            "mismatches",
            "elapsed-milliseconds",
            "passed",
        }
        assert record["passed"] is True
        assert record["checked"] == rep.positions_checked

    def test_failing_report(self):
        rep = vf.VerificationReport("demo", 4, 10, [("3,2", 2, 7)], 0.001)
        assert not rep.passed
        assert "[FAIL]" in rep.text_line()
        assert "mismatches=1" in rep.text_line()
        record = rep.to_record()
        assert record["mismatches"] == [{"position": "3,2", "expected": 2, "actual": 7}]
        assert record["passed"] is False

    def test_tuple_bound_rendering(self):
        rep = vf.verify_bouton(2, 5)
        assert "bound=2x5" in rep.text_line()
        assert rep.to_record()["bound"] == [2, 5]

    def test_json_serialization(self):
        reports = [vf.verify_vdn_formula(8), vf.verify_isomorphism(8)]
        data = json.loads(vf.reports_to_json(reports))
        assert [r["name"] for r in data] == ["vdn", "iso"]
        assert all(r["passed"] for r in data)


class TestRunners:
    def test_run_check_by_name(self):
        rep = vf.run_check("vdn", 12)
        assert rep.name == "vdn"
        assert rep.bound == 12

    def test_run_check_default_bound(self):
        rep = vf.run_check("iso")
        assert rep.bound == vf.DEFAULT_BOUNDS["iso"]

    def test_run_check_unknown_name(self):
        expected = (
            "unknown check 'not-a-check'; expected one of "
            "['delete-nim', 'vdn', 'bouton', 'sum', 'proof-steps', 'iso']"
        )
        with pytest.raises(ValueError) as exc:
            vf.run_check("not-a-check")
        assert str(exc.value) == expected

    def test_run_all_with_custom_bounds(self):
        bounds = {
            "delete-nim": 32,
            "vdn": 32,
            "bouton": (2, 6),
            "sum": 5,
            "proof-steps": 32,
            "iso": 16,
        }
        reports = vf.run_all(bounds)
        assert [r.name for r in reports] == vf.CHECK_NAMES
        assert all(r.passed for r in reports)

    def test_tracer_times_every_check(self):
        # the benchmark's tracer keeps its own list of the checks it times,
        # one span each; it is read as source, without importing the benchmark
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        [checks] = [
            ast.literal_eval(node.value)
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["CHECKS"]
        ]
        assert checks == vf.CHECK_NAMES

    def test_check_names_cover_default_bounds(self):
        assert vf.CHECK_NAMES == ["delete-nim", "vdn", "bouton", "sum", "proof-steps", "iso"]
        assert list(vf.DEFAULT_BOUNDS.items()) == [
            ("delete-nim", 4096), ("vdn", 256), ("bouton", (3, 16)), ("sum", 32),
            ("proof-steps", 1024), ("iso", 1024),
        ]
