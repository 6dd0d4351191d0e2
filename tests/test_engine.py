import dataclasses
import itertools
import random
import sys
import threading
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impartial import closed_forms as cf
from impartial import engine
from impartial import rulesets as rs
from impartial.errors import BudgetExceededError, DomainError
from reference import (
    ref_delete_grundy,
    ref_delete_options,
    ref_nim_grundy,
    ref_nim_options,
    ref_nim_units,
    ref_sum_grundy,
    ref_two_heap_grundy,
    ref_two_heap_options,
    ref_v2,
    ref_vdn_grundy,
    ref_vdn_options,
)


def _one_go_masks(rules, heaps: int) -> np.ndarray:
    """The masks of heaps 0 .. heaps - 1, built by one fill on an empty table."""
    with mock.patch.object(engine, "_TABLES", engine._new_tables()):
        for _ in engine.bands(rules, heaps - 1):
            pass
        table = engine._TABLES[rules.name]
        assert table.known == heaps
        return table.masks[:heaps].copy()


def _ref_value(rules, x: int, y: int) -> int:
    # the paper's closed forms on the reference's own 2-adic valuation; the
    # reference recursion would take about 15 s per game to reach 600
    if rules is rs.DELETE_NIM:
        return ref_v2((x | y) + 1)
    return ref_v2(((x - 1) | (y - 1)) + 1)


class TestMex:
    def test_basics(self):
        assert engine.mex([]) == 0
        assert engine.mex([0]) == 1
        assert engine.mex([1]) == 0
        assert engine.mex([0, 1, 3]) == 2
        assert engine.mex([3, 1, 0, 1, 0]) == 2
        assert engine.mex(range(100)) == 100

    @given(st.sets(st.integers(min_value=0, max_value=500)))
    def test_defining_property(self, s):
        m = engine.mex(s)
        assert m not in s
        assert all(k in s for k in range(m))


class TestGrundy:
    def test_delete_nim_matches_reference(self):
        memo = {}
        for x in range(26):
            for y in range(x + 1):
                assert engine.grundy((x, y), rs.DELETE_NIM, memo) == ref_delete_grundy(x, y)

    def test_vdn_matches_reference(self):
        memo = {}
        for x in range(1, 26):
            for y in range(1, x + 1):
                assert engine.grundy((x, y), rs.VDN, memo) == ref_vdn_grundy(x, y)

    def test_nim_matches_reference(self):
        memo = {}
        for a in range(11):
            for b in range(a + 1):
                for c in range(b + 1):
                    p = rs.canonical_nim((a, b, c))
                    assert engine.grundy(p, rs.NIM, memo) == ref_nim_grundy(p)

    def test_terminal_positions_are_zero(self):
        assert engine.grundy((0, 0), rs.DELETE_NIM) == 0
        assert engine.grundy((1, 1), rs.VDN) == 0
        assert engine.grundy((), rs.NIM) == 0

    def test_deep_game_graph_needs_no_recursion(self):
        # a pure chain far deeper than the interpreter recursion limit
        chain = rs.Ruleset(
            "chain",
            lambda p: p,
            lambda p: {(p[0] - 1,)} if p[0] else set(),
            lambda p: p,
        )
        assert engine.grundy((5000,), chain) == 0
        assert engine.grundy((5001,), chain) == 1

    def test_single_heap_start_matches_formula(self):
        # depth of (n, 0) grows with n even though branching is wide
        n = 150
        assert engine.grundy((n, 0), rs.DELETE_NIM) == cf.delete_nim_grundy(n, 0)

    def test_memo_is_shared_and_stable(self):
        memo = {}
        v1 = engine.grundy((9, 4), rs.DELETE_NIM, memo)
        size = len(memo)
        v2 = engine.grundy((9, 4), rs.DELETE_NIM, memo)
        assert v1 == v2
        assert len(memo) == size
        assert memo[("delete-nim", (9, 4))] == v1

    def test_memo_keys_distinguish_rulesets(self):
        memo = {}
        engine.grundy((3, 2), rs.DELETE_NIM, memo)
        engine.grundy((3, 2), rs.VDN, memo)
        assert memo[("delete-nim", (3, 2))] == 2
        assert memo[("vdn", (3, 2))] == 2
        assert ("vdn", (1, 1)) in memo

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExceededError):
            engine.grundy((40, 40), rs.DELETE_NIM, budget=10)

    def test_order_independence_with_shuffled_options(self):
        for seed in (1, 2, 3):
            rng = random.Random(seed)

            def shuffled(p, _rng=rng):
                opts = sorted(rs.delete_nim_options(p))
                _rng.shuffle(opts)
                return opts

            variant = dataclasses.replace(rs.DELETE_NIM, name=f"shuffled-{seed}", options=shuffled)
            memo = {}
            for x in range(16):
                for y in range(x + 1):
                    assert engine.grundy((x, y), variant, memo) == ref_delete_grundy(x, y)


class TestClassify:
    def test_pinned(self):
        assert engine.classify((2, 2), rs.DELETE_NIM) is engine.Outcome.P
        assert engine.classify((3, 2), rs.DELETE_NIM) is engine.Outcome.N
        assert engine.classify((), rs.NIM) is engine.Outcome.P
        assert engine.classify((7, 5, 2), rs.NIM) is engine.Outcome.P
        assert engine.classify((6, 5, 4), rs.NIM) is engine.Outcome.N

    def test_p_iff_grundy_zero(self):
        memo = {}
        for x in range(20):
            for y in range(x + 1):
                out = engine.classify((x, y), rs.DELETE_NIM, memo)
                zero = engine.grundy((x, y), rs.DELETE_NIM, memo) == 0
                assert (out is engine.Outcome.P) == zero


class TestBestMove:
    def test_pinned_moves(self):
        assert engine.best_move((3, 2), rs.DELETE_NIM) == (2, 0)
        assert engine.best_move((2, 2), rs.DELETE_NIM) is None
        assert engine.best_move((0, 0), rs.DELETE_NIM) is None
        assert engine.best_move((5, 0), rs.DELETE_NIM) == (2, 2)
        # the rule itself, on the options of 5,0 with their values
        assert engine.winning_move({(4, 0): 0, (3, 1): 2, (2, 2): 0}) == (2, 2)
        assert engine.winning_move({(2, 0): 2, (1, 1): 1}) is None
        assert engine.winning_move({}) is None

    def test_move_is_optimal_and_legal(self):
        memo = {}
        for x in range(22):
            for y in range(x + 1):
                move = engine.best_move((x, y), rs.DELETE_NIM, memo)
                g = engine.grundy((x, y), rs.DELETE_NIM, memo)
                if g == 0:
                    assert move is None
                else:
                    assert move in rs.delete_nim_options((x, y))
                    assert engine.grundy(move, rs.DELETE_NIM, memo) == 0

    def test_nim_move_restores_zero_sum(self):
        move = engine.best_move((6, 5, 4), rs.NIM)
        assert move in rs.nim_options((6, 5, 4))
        assert cf.nim_sum(move) == 0

    def test_value_fn_agrees_with_default(self):
        grid = engine.grundy_grid(rs.DELETE_NIM, 30)
        fn = lambda q: int(grid[q[0], q[1]])
        for x in range(31):
            for y in range(x + 1):
                assert engine.best_move((x, y), rs.DELETE_NIM, value_fn=fn) == engine.best_move(
                    (x, y), rs.DELETE_NIM
                )


class TestSumCheck:
    # the sum graph is searched by the generic engine; the XOR is taken here
    def test_components_xor(self):
        memo = {}
        game = rs.make_sum(rs.DELETE_NIM, rs.DELETE_NIM)
        assert engine.grundy((3, 2), rs.DELETE_NIM, memo) == 2
        assert engine.grundy((1, 0), rs.DELETE_NIM, memo) == 1
        assert engine.grundy(((3, 2), (1, 0)), game, memo) == 3 == 2 ^ 1

    def test_mixed_games(self):
        memo = {}
        game = rs.make_sum(rs.DELETE_NIM, rs.VDN)
        left = engine.grundy((3, 2), rs.DELETE_NIM, memo)
        right = engine.grundy((2, 1), rs.VDN, memo)
        assert left ^ right == 2 ^ 1
        assert engine.grundy(((3, 2), (2, 1)), game, memo) == left ^ right


class TestSumValues:
    # pinned against the generic engine on the sum graph, as bands is; at
    # the default batch size every block of a bound is one batch (bound 8
    # has 2025 sums), and in small batches of one block or a few blocks
    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_matches_generic_engine(self, rules):
        self._check_against_generic_engine(rules)

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_matches_generic_engine_in_small_batches(self, monkeypatch, rules, batch):
        monkeypatch.setattr(engine, "_SUM_BATCH", batch)
        self._check_against_generic_engine(rules)

    @staticmethod
    def _check_against_generic_engine(rules):
        game = rs.make_sum(rules, rules)
        memo = {}
        lo = 0 if rules is rs.DELETE_NIM else 1
        for bound in range(9):
            comps = [(x, y) for x in range(lo, bound + 1) for y in range(lo, x + 1)]
            xs, ys = engine.sum_positions(rules, bound)
            positions = list(zip(xs.tolist(), ys.tolist()))
            assert sorted(positions) == comps
            seen = Counter()
            order = []
            for g, h, values in engine.sum_values(rules, bound):
                assert values.dtype == np.uint8
                for i, j, value in zip(g.tolist(), h.tolist(), values.tolist()):
                    pair = positions[i], positions[j]
                    seen[pair] += 1
                    order.append((sum(pair[0]) + sum(pair[1]), i, j))
                    assert value == engine.grundy(pair, game, memo)
            assert set(seen) == {(g, h) for g in comps for h in comps}
            assert sum(seen.values()) == len(comps) ** 2
            assert order == sorted(order)  # by wavefront, then g, then h

    # and against the reference's top-down mex over the sum, which shares
    # no code with the engine or the rulesets
    @pytest.mark.parametrize("batch", [1, 1 << 15])
    @pytest.mark.parametrize(
        "rules,options", [(rs.DELETE_NIM, ref_delete_options), (rs.VDN, ref_vdn_options)],
        ids=["delete-nim", "vdn"],
    )
    def test_matches_reference(self, monkeypatch, rules, options, batch):
        monkeypatch.setattr(engine, "_SUM_BATCH", batch)
        for bound in range(7):
            xs, ys = engine.sum_positions(rules, bound)
            positions = list(zip(xs.tolist(), ys.tolist()))
            values = {}
            for g, h, batch_values in engine.sum_values(rules, bound):
                for i, j, value in zip(g.tolist(), h.tolist(), batch_values.tolist()):
                    values[positions[i], positions[j]] = value
            assert len(values) == len(positions) ** 2
            for (g, h), value in values.items():
                assert value == ref_sum_grundy(options, g, h), (bound, g, h)

    def test_positions_by_anti_diagonal(self):
        xs, ys = engine.sum_positions(rs.VDN, 3)
        assert list(zip(xs.tolist(), ys.tolist())) == [
            (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)
        ]
        xs, ys = engine.sum_positions(rs.VDN, 0)
        assert len(xs) == len(ys) == 0
        assert list(engine.sum_values(rs.VDN, 0)) == []

    @pytest.mark.parametrize("batch", [1, 1 << 15])
    def test_mask_width_guard(self, monkeypatch, batch):
        # with a width of 3, sum values first reach it at 2 ^ 1: Delete Nim
        # (2,1) + (1,0) at bound 2, VDN (3,2) + (2,1) at bound 3.  No
        # component value reaches 3 below heap 7, so the sum kernel's own
        # guard is what trips
        monkeypatch.setattr(engine, "_MASK_WIDTH", 3)
        monkeypatch.setattr(engine, "_SUM_BATCH", batch)
        for rules, first in ((rs.DELETE_NIM, 2), (rs.VDN, 3)):
            assert max(v.max() for _, _, v in engine.sum_values(rules, first - 1)) < 3
            with pytest.raises(RuntimeError, match="exceed the dense backend's bitmask width"):
                list(engine.sum_values(rules, first))
            assert max(engine.option_values(rules, (first, first)).values()) < 3

    def test_refused_inputs(self):
        for fn in (engine.sum_values, engine.sum_positions):
            with pytest.raises(ValueError):
                fn(rs.NIM, 4)
            with pytest.raises(DomainError):
                fn(rs.DELETE_NIM, -1)


def _down_set(p) -> set:
    # a multiset lies below p exactly when some order of its heaps fits
    # under p's heaps one by one
    return {rs.canonical_nim(q) for q in itertools.product(*(range(h + 1) for h in p))}


class TestNimValues:
    @pytest.mark.parametrize("top", [(8, 8, 8), (5, 5, 5, 5)])
    def test_matches_generic_engine_and_reference(self, top):
        # every position of at most 3 heaps of at most 8 stones, and of at
        # most 4 of at most 5: the down-set of top
        memo: engine.MemoTable = {}
        got = list(engine.nim_values(top))
        values = dict(got)
        assert len(values) == len(got)
        assert set(values) == _down_set(top)
        for p, value in got:
            assert value == engine.grundy(p, rs.NIM, memo) == ref_nim_grundy(p), p

    def test_each_start_yields_its_down_set_in_lex_order(self):
        # ascending zero-padded tuples, so every option comes before the
        # positions that reach it, and the start comes last
        for start in itertools.combinations_with_replacement(range(7), 3):
            p = rs.canonical_nim(start)
            got = [q for q, _ in engine.nim_values(start)]
            padded = [q + (0,) * (len(p) - len(q)) for q in got]
            assert padded == sorted(set(padded)), p
            assert set(got) == _down_set(p)
            assert got[-1] == p

    def test_charge_is_heaps_times_down_set(self):
        # over budget exactly below its count, which is never listed
        for start in itertools.combinations_with_replacement(range(6), 4):
            p = rs.canonical_nim(start)
            n = ref_nim_units(start)
            assert engine.check_query(rs.NIM, start, n) == (p, n)
            with pytest.raises(BudgetExceededError) as exc:
                engine.check_query(rs.NIM, start, n - 1)
            text = ",".join(map(str, p)) or "0"
            assert str(exc.value) == f"nim position {text} exceeds the budget of {n - 1} units"
        # 26,982,005 positions below 3000,2999,5, and 20,001 below 20000
        with pytest.raises(BudgetExceededError):
            engine.check_query(rs.NIM, (3000, 2999, 5), 80_946_014)
        assert engine.check_query(rs.NIM, (5, 2999, 3000), 80_946_015) == (
            (3000, 2999, 5), 80_946_015
        )
        with pytest.raises(BudgetExceededError):
            engine.check_query(rs.NIM, (20000,), 20_000)
        assert engine.check_query(rs.NIM, (20000,), 20_001) == ((20000,), 20_001)

    def test_refused_inputs(self):
        limit = engine.NIM_HEAP_LIMIT
        assert engine.check_query(rs.NIM, (limit, 1), None) == ((limit, 1), 4 * limit + 2)
        with pytest.raises(BudgetExceededError) as exc:
            engine.nim_values((3, limit + 1))
        assert str(exc.value) == (
            f"a heap of {limit + 1} stones exceeds the nim kernel's limit of {limit}"
        )
        with pytest.raises(DomainError):
            engine.nim_values((3, -1))


def _ref_options(pos) -> dict:
    return {q: ref_nim_grundy(q) for q in ref_nim_options(rs.canonical_nim(pos))}


def _cube_values(k: int, m: int) -> list:
    """The values of every k-tuple with heaps below m, by rank, from one
    ``nim_values`` run over the cube."""
    return [value for _, value in engine.nim_values((m - 1,) * k)]


_NIM_QUERIES = st.lists(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=4),
    min_size=1,
    max_size=12,
)


class TestNimTables:
    @settings(max_examples=40, deadline=None)
    @given(_NIM_QUERIES)
    @example([[15, 15, 15], [15, 15, 15], [3, 2], [15, 15, 15, 15], [14, 2, 1], [15, 15, 15, 15]])
    def test_tables_are_history_independent(self, seq):
        # queries in any order answer what a cold query would, and every
        # table holds what one kernel run over its cube gives
        with mock.patch.object(engine, "_TABLES", engine._new_tables()):
            for pos in seq:
                assert engine.option_values(rs.NIM, pos) == _ref_options(pos)
            for k, (values, m) in engine._TABLES["nim"].known.items():
                assert list(values) == _cube_values(k, m)

    @pytest.mark.parametrize("start", [(24, 24, 24), (7, 5, 3), (300,), (2, 2)])
    def test_first_call_builds_nothing(self, start):
        # the first Nim call of a process runs over its own down-set alone,
        # even where its charge would pay for the table
        with mock.patch.object(engine, "_TABLES", engine._new_tables()):
            nim = engine._TABLES["nim"]
            assert engine.option_values(rs.NIM, start) == _ref_options(start)
            assert nim.known == {} and nim.rows == {}
            assert nim.credit == ref_nim_units(start)
        # the cube's shell is its own charge, so a second call grows it
        assert ref_nim_units((24, 24, 24)) == 3 * engine.comb(24 + 3, 3)
        with mock.patch.object(engine, "_TABLES", engine._new_tables()):
            nim = engine._TABLES["nim"]
            engine.option_values(rs.NIM, (24, 24, 24))
            assert engine.option_values(rs.NIM, (24, 24, 24)) == _ref_options((24, 24, 24))
            assert [(k, m) for k, (_, m) in nim.known.items()] == [(3, 25)]
            assert nim.credit == ref_nim_units((24, 24, 24))

    def test_growth_widens_the_array(self):
        # values of 2 heaps below 131 may pass 255 (a value is at most the
        # count of options), so the grown table moves to a wider array
        with mock.patch.object(engine, "_TABLES", engine._new_tables()):
            nim = engine._TABLES["nim"]
            for pos in [(130, 130), (60, 1)]:
                engine.option_values(rs.NIM, pos)
            assert nim.known[2][0].typecode == "B"
            assert engine.option_values(rs.NIM, (130, 129)) == _ref_options((130, 129))
            values, m = nim.known[2]
            assert (values.typecode, m) == ("H", 131)
            assert list(values) == _cube_values(2, 131)

    @settings(max_examples=30, deadline=None)
    @given(_NIM_QUERIES)
    def test_growth_spends_only_earlier_charges(self, seq):
        # the positions the kernel runs for the tables, one unit per heap,
        # never exceed the charges of the calls before the current one
        spent = [0]
        kernel = engine._nim_rows

        def counted(a, rows, prefix, keep):
            for p, values in kernel(a, rows, prefix, keep):
                if keep:
                    spent[0] += len(a) * len(values)
                yield p, values

        earlier = 0
        with mock.patch.object(engine, "_TABLES", engine._new_tables()), mock.patch.object(
            engine, "_nim_rows", counted
        ):
            for pos in seq:
                engine.option_values(rs.NIM, pos)
                assert spent[0] <= earlier
                earlier += ref_nim_units(pos)

    def test_interrupted_growth_leaves_right_answers(self, monkeypatch):
        # a growth stopped mid-shell leaves its rows half updated; the table
        # it leaves must still answer right, and grow right
        kernel = engine._nim_rows

        def interrupted(a, rows, prefix, keep):
            for i, item in enumerate(kernel(a, rows, prefix, keep)):
                if keep and i == 5:
                    raise KeyboardInterrupt
                yield item

        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        nim = engine._TABLES["nim"]
        for pos in [(12, 12, 12), (12, 12, 12), (9, 8, 7)]:
            engine.option_values(rs.NIM, pos)
        assert nim.known[3][1] == 13
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_nim_rows", interrupted)
            with pytest.raises(KeyboardInterrupt):
                engine.option_values(rs.NIM, (14, 11, 10))  # grows the table from 13 to 15
        for pos in [(14, 11, 10), (9, 8, 7), (11, 5), (14, 14, 14), (6,), (15, 2, 1), (15, 15, 1)]:
            assert engine.option_values(rs.NIM, pos) == _ref_options(pos)
        assert nim.known[3][1] == 16
        for k, (values, m) in nim.known.items():
            assert list(values) == _cube_values(k, m)

    def test_concurrent_growth(self):
        # threads grow and read the tables at once; without the lock two
        # growths of one table run the kernel over the same rows and append
        # to the same array, and ranks read wrong values
        def queries(step):
            for n in range(step, 40, step):
                yield from ((n, n - 1, 1), (n,), (n // 2, n // 3, n // 4, 1), (n, 3))

        expected = {pos: _ref_options(pos) for pos in queries(1)}
        failures = []

        def work(step):
            try:
                for pos in queries(step):
                    if engine.option_values(rs.NIM, pos) != expected[pos]:
                        failures.append(pos)
            except Exception as exc:  # a torn table can also index past its array
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                with mock.patch.object(engine, "_TABLES", engine._new_tables()):
                    nim = engine._TABLES["nim"]
                    nim.credit = 10**9  # every call may grow: this checks the lock, not the credit
                    threads = [threading.Thread(target=work, args=(k,)) for k in (1, 2, 3, 5)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    # a 2-heap query may read the 3-heap table, so only these two are fixed
                    assert nim.known[3][1] == 40 and nim.known[4][1] == 20
                    for k, (values, m) in nim.known.items():
                        assert list(values) == _cube_values(k, m)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestDenseGrids:
    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_grid_matches_generic_engine(self, monkeypatch, rules):
        bound = 48
        grid = engine.grundy_grid(rules, bound)
        memo = {}
        lo = 0 if rules is rs.DELETE_NIM else 1
        for x in range(lo, bound + 1):
            for y in range(lo, x + 1):
                assert grid[x, y] == engine.grundy((x, y), rules, memo)
                assert grid[y, x] == grid[x, y]
        monkeypatch.setattr(engine, "_BAND_CELLS", 40)
        for small in sorted({lo, 1, 2, 3, 17}):
            # bands of one row and of several, whose cells with x < y
            # repeat their mirrored positions
            seen = Counter()
            for xs, ys, values in engine.bands(rules, small):
                for y, row in zip(ys[:, 0].tolist(), values.tolist()):
                    for x, v in zip(xs[0].tolist(), row):
                        if x >= y:
                            seen[x, y] += 1
                        assert v == engine.grundy((x, y), rules, memo)
            canonical = {(x, y) for x in range(lo, small + 1) for y in range(lo, x + 1)}
            assert set(seen) == canonical
            assert set(seen.values()) == {1}
        for x in range(lo, 25):
            for y in range(lo, x + 1):
                expected = {q: engine.grundy(q, rules, memo) for q in rules.options((x, y))}
                assert engine.option_values(rules, (y, x)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        rules=st.sampled_from([rs.DELETE_NIM, rs.VDN]),
        a=st.integers(min_value=1, max_value=600),
        b=st.integers(min_value=1, max_value=600),
    )
    def test_option_values_match_diagonals(self, rules, a, b):
        # the two readers of the masks agree, position for position: the
        # option diagonals x - removed and y - removed against the grid's
        # canonical cells on them; heaps of 0 are drawn for Delete Nim only
        if rules is rs.DELETE_NIM:
            a, b = a - 1, b - 1
        x, y = max(a, b), min(a, b)
        lo, removed = (0, 1) if rules is rs.DELETE_NIM else (1, 0)
        grid = engine.grundy_grid(rules, x)
        expected = {
            (t - q, q): int(grid[t - q, q])
            for t in (x - removed, y - removed)
            for q in range(lo, t // 2 + 1)
        }
        assert engine.option_values(rules, (a, b)) == expected

    def test_terminal_positions_have_no_option_values(self):
        assert engine.option_values(rs.DELETE_NIM, (0, 0)) == {}
        assert engine.option_values(rs.VDN, (1, 1)) == {}

    def test_mask_width_guard(self, monkeypatch):
        # with room for the values 0 and 1 only, the guard trips on the first
        # diagonal that holds a 2 and is read by a heap within the bound:
        # Delete Nim (3, 0), read by a heap of 4, and VDN (4, 1), by a heap of
        # 5.  The tables start empty, since a heap known from an earlier call
        # is not reduced again.
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        monkeypatch.setattr(engine, "_MASK_WIDTH", 2)
        for rules, lo, first in ((rs.DELETE_NIM, 0, 4), (rs.VDN, 1, 5)):
            for b in range(lo, first + 4):
                if b < first:
                    list(engine.bands(rules, b))
                    engine.option_values(rules, (b, lo))
                    continue
                with pytest.raises(RuntimeError):
                    list(engine.bands(rules, b))
                with pytest.raises(RuntimeError):
                    engine.option_values(rules, (b, lo))
            # a trip hands back only the heaps below it: smaller queries still
            # answer from that prefix, and larger ones trip again
            table = engine._TABLES[rules.name]
            assert table.known == first
            pos = (first - 1, first - 1)
            expected = {q: engine.grundy(q, rules) for q in rules.options(pos)}
            assert engine.option_values(rules, pos) == expected
            with pytest.raises(RuntimeError):
                engine.option_values(rules, (first + 40, lo))
            assert table.known == first

    @pytest.mark.parametrize(
        "rules, bound, mask",
        [
            (rs.DELETE_NIM, 127, np.uint8),
            (rs.DELETE_NIM, 128, np.uint16),
            (rs.VDN, 128, np.uint8),
            (rs.VDN, 129, np.uint16),
        ],
        ids=["delete-nim-127", "delete-nim-128", "vdn-128", "vdn-129"],
    )
    def test_bands_narrow_at_the_switch_points(self, monkeypatch, rules, bound, mask):
        # the masks are cast to the narrowest type that holds 1 << top, top
        # the bit length of what the heaps through the bound reach: uint8
        # while no heap reaches value 7, which heap 128 of Delete Nim and
        # heap 129 of VDN are the first to reach.  A table that knows heaps
        # past the bound narrows the same way, and the values on both sides
        # of each switch are the reference recursion's.  band_bits, which
        # the formula and iso sweeps compare, gives 1 << value in that type
        seen = set()
        right = engine._values

        def spy(low):
            seen.add(low.dtype)
            return right(low)

        monkeypatch.setattr(engine, "_values", spy)
        lo = 0 if rules is rs.DELETE_NIM else 1
        reference = ref_delete_grundy if rules is rs.DELETE_NIM else ref_vdn_grundy
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        for known in (None, 300):
            if known:
                engine._fill(engine._TABLES[rules.name], known)
            seen.clear()
            checked = 0
            bits = engine.band_bits(rules, bound)
            for (xs, ys, values), (_, _, low) in zip(engine.bands(rules, bound), bits, strict=True):
                assert low.dtype == mask
                assert np.array_equal(low, np.left_shift(1, values.astype(np.int64)))
                # the heaps' type holds (x | y) + 1 and its negation
                assert xs.dtype == ys.dtype == np.int16
                assert np.iinfo(xs.dtype).max >= 2 * bound + 1
                for y, row in zip(ys[:, 0].tolist(), values.tolist()):
                    for x, v in zip(xs[0].tolist(), row):
                        if x >= y:
                            assert v == reference(x, y), (x, y)
                            checked += 1
            assert seen == {np.dtype(mask)}
            assert checked == (bound - lo + 1) * (bound - lo + 2) // 2

    @pytest.mark.parametrize(
        "cells",
        [1, 16, 4096, 10_000, 0],
        ids=["1", "16", "4096", "10000", "below-every-diagonal"],
    )
    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_runs_join_the_diagonals(self, monkeypatch, rules, cells):
        # the bands, runs of whole rows of about cells cells each (one row
        # at least; 0 is below every row and every diagonal), hold each
        # canonical cell exactly once, with its value
        bound = 600
        lo = 0 if rules is rs.DELETE_NIM else 1
        grid = np.full((bound + 1, bound + 1), -1)  # the reference values at [x, y], x >= y
        for x in range(lo, bound + 1):
            for y in range(lo, x + 1):
                grid[x, y] = _ref_value(rules, x, y)
        seen = np.zeros_like(grid)
        y0 = lo
        monkeypatch.setattr(engine, "_BAND_CELLS", cells)
        for xs, ys, values in engine.bands(rules, bound):
            assert not (xs.flags.writeable or ys.flags.writeable)
            width = bound + 1 - y0
            rows = min(max(1, cells // width), width)
            assert xs.tolist() == [list(range(y0, bound + 1))]
            assert ys.tolist() == [[y] for y in range(y0, y0 + rows)]
            # a cell with x < y holds its mirrored position
            assert np.array_equal(values, np.maximum(grid[xs, ys], grid[ys, xs]))
            seen[xs, ys] += xs >= ys
            y0 += rows
        assert y0 == bound + 1
        assert np.array_equal(seen, grid >= 0)
        assert seen.sum() == (bound - lo + 1) * (bound - lo + 2) // 2

    @pytest.mark.parametrize("bound, heap", [(16383, np.int16), (16384, np.int32)])
    def test_band_heaps_narrow_at_the_switch_point(self, bound, heap):
        # the heaps' type holds -(2 * bound + 2): int16 through 16383
        rows, cols, xs, ys = next(engine.band_rows(0, bound))
        assert xs.dtype == ys.dtype == heap
        assert xs.tolist() == [list(range(bound + 1))]
        assert ys.tolist() == [[y] for y in range(rows.stop)]
        assert cols == slice(0, bound + 1)

    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_heap_layout_matches_the_option_sets(self, rules):
        # the certificate sweeps read each heap's options from the layout
        # and call rulesets' sets only at flagged positions, so this holds
        # the two to each other on every heap through verify --all's
        # default bound, 1024: each option once, listed by heap
        lo = rs.TWO_HEAP_MOVES[rules.name][0]
        options = {"delete-nim": rs.delete_nim_heap_options, "vdn": rs.vdn_heap_options}
        heaps, xs, ys = engine.heap_options(rules, lo, 1025)
        cells = list(zip(heaps.tolist(), xs.tolist(), ys.tolist()))
        assert heaps.tolist() == sorted(heaps.tolist())
        assert len(set(cells)) == len(cells)
        assert sorted(cells) == sorted(
            (s, a, b) for s in range(lo, 1025) for a, b in options[rules.name](s)
        )

    @pytest.mark.parametrize("cells", [16, engine._BAND_CELLS])
    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_heap_bands_join_the_layout(self, monkeypatch, rules, cells):
        # the bands, taken together, are the layout of every heap lo ..
        # bound, in the heaps' type of the bound
        monkeypatch.setattr(engine, "_BAND_CELLS", cells)
        lo = rs.TWO_HEAP_MOVES[rules.name][0]
        bands = list(engine.heap_bands(rules, 300))
        assert len(bands) > 1 if cells == 16 else len(bands) == 1
        assert {a.dtype for band in bands for a in band} == {np.dtype(np.int16)}
        for joined, whole in zip(zip(*bands), engine.heap_options(rules, lo, 301)):
            assert np.concatenate(joined).tolist() == whole.tolist()

    @pytest.mark.parametrize("bound, heap", [(16383, np.int16), (16384, np.int32)])
    def test_heap_bands_narrow_at_the_switch_point(self, bound, heap):
        # the layout's heaps take band_rows' type of the bound: int16
        # through 16383
        heaps, xs, ys = next(engine.heap_bands(rs.VDN, bound))
        assert heaps.dtype == xs.dtype == ys.dtype == heap

    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_block_sweep_closed_early_leaves_a_prefix(self, monkeypatch, rules):
        # the fill runs before the first band, so a band reader closed after
        # it leaves every heap through the bound known
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        table = engine._TABLES[rules.name]
        sweep = engine.bands(rules, 300)
        next(sweep)
        sweep.close()
        assert table.known == 301
        assert np.array_equal(table.masks[:301], _one_go_masks(rules, 301))

    @pytest.mark.parametrize("cells", [16, 4096])
    def test_mask_width_guard_in_blocks(self, monkeypatch, cells):
        # a band reader trips at the heap a query trips at, and the fill of
        # either hands the table only the heaps below it
        monkeypatch.setattr(engine, "_MASK_WIDTH", 2)
        monkeypatch.setattr(engine, "_BAND_CELLS", cells)
        for rules, lo, first in ((rs.DELETE_NIM, 0, 4), (rs.VDN, 1, 5)):
            for sweep in (
                lambda b: engine.option_values(rules, (b, lo)),
                lambda b: engine.bands(rules, b),
            ):
                monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
                table = engine._TABLES[rules.name]
                list(sweep(first - 1))
                with pytest.raises(RuntimeError):
                    list(sweep(first + 40))
                assert table.known == first
                assert np.array_equal(table.masks, _one_go_masks(rules, first))

    @pytest.mark.parametrize("rules, first", [(rs.DELETE_NIM, 512), (rs.VDN, 513)],
                             ids=["delete-nim", "vdn"])
    def test_mask_width_guard_inside_a_block(self, monkeypatch, rules, first):
        # with room for the values 0 .. 8 the first heap to reach 9 is
        # Delete Nim's 512 and VDN's 513, each the second heap of a block of
        # the fill to 600; the table keeps the heaps below it, the block's
        # first one too, with the masks a fill without the guard gives them
        unguarded = _one_go_masks(rules, first)
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        monkeypatch.setattr(engine, "_MASK_WIDTH", 9)
        table = engine._TABLES[rules.name]
        for _ in range(2):
            with pytest.raises(RuntimeError, match="bitmask width"):
                engine._fill(table, 600)
            assert table.known == first
            assert np.array_equal(table.masks[:first], unguarded)

    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_growth_from_any_split_matches_one_fill(self, rules):
        # a table grown first to heap p, at the first heaps, on either side
        # of the uint8 -> uint16 step (Delete Nim's heap 128 reaches value 7,
        # VDN's 129) or inside a block of 16 heaps, then to 300, holds what
        # one fill from an empty table does; so does one grown through them all
        whole = _one_go_masks(rules, 301)
        splits = (0, 1, 127, 128, 129, 130, 135)
        for p in splits:
            table = engine._Unreached(*rs.TWO_HEAP_MOVES[rules.name])
            engine._fill(table, p)
            assert np.array_equal(engine._fill(table, 300), whole), p
        table = engine._Unreached(*rs.TWO_HEAP_MOVES[rules.name])
        for p in splits + (300,):
            engine._fill(table, p)
        assert table.known == 301 and np.array_equal(table.masks, whole)

    @pytest.mark.parametrize("rules", [rs.DELETE_NIM, rs.VDN], ids=lambda r: r.name)
    def test_sweep_within_known_heaps_writes_nothing(self, monkeypatch, rules):
        # a band sweep or a query whose heaps are all known reads a view of
        # the table's masks and writes nothing: its values are a cold call's,
        # and the table keeps its array
        def band_sweep():
            bands = engine.bands(rules, 200)
            return [(xs.tolist(), ys.tolist(), v.tolist()) for xs, ys, v in bands]

        readers = (band_sweep, lambda: engine.option_values(rules, (200, 57)))
        cold = []
        for read in readers:
            with mock.patch.object(engine, "_TABLES", engine._new_tables()):
                cold.append(read())
        monkeypatch.setattr(engine, "_TABLES", engine._new_tables())
        engine.option_values(rules, (300, 1))
        table = engine._TABLES[rules.name]
        masks, known = table.masks, table.known
        before = masks.copy()
        for read, values in zip(readers, cold):
            assert read() == values
            assert table.masks is masks and table.known == known
        assert np.array_equal(masks, before)
        # the fill of known heaps allocates and copies nothing
        for b in (0, 57, known - 1):
            view = engine._fill(table, b)
            assert len(view) == b + 1 and np.shares_memory(view, table.masks)

    @settings(max_examples=40, deadline=None)
    @given(
        rules=st.sampled_from([rs.DELETE_NIM, rs.VDN]),
        heaps=st.lists(
            st.tuples(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=600)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_table_is_history_independent(self, rules, heaps):
        # queries in any order, rising and falling, grow the same table one
        # sweep builds, and each answers what a cold table would
        memo = {}
        if rules is rs.DELETE_NIM:
            heaps = [(a - 1, b - 1) for a, b in heaps]
        with mock.patch.object(engine, "_TABLES", engine._new_tables()):
            table = engine._TABLES[rules.name]
            for a, b in heaps:
                got = engine.option_values(rules, (a, b))
                opts = rules.options((a, b))
                assert got == {(p, q): _ref_value(rules, p, q) for p, q in opts}
                if max(a, b) <= 25:
                    assert got == {q: engine.grundy(q, rules, memo) for q in opts}
            known = table.known
            assert known == max(2 * table.lo + table.removed, max(map(max, heaps)) + 1)
            assert np.array_equal(table.masks[:known], _one_go_masks(rules, known))

    def test_concurrent_extension(self):
        # threads extend both tables at once, a few heaps per call, and give
        # way at every line of the fill; without the lock a fill can hand
        # the table a shorter array than another fill just did, so a table
        # shrinks, and a reader can pair one array with the count of a
        # longer one: a wrong value, or slices that fail to broadcast
        failures = []
        table_code = {engine._fill.__code__}

        def give_way(frame, event, arg):
            if event == "line":
                time.sleep(0)
            return give_way

        def trace(frame, event, arg):
            return give_way if frame.f_code in table_code else None

        def work(step):
            known = {}
            try:
                for n in range(step, 300, step):
                    for rules in (rs.DELETE_NIM, rs.VDN):
                        if n % 30 == 0:
                            for _ in engine.bands(rules, n):
                                pass
                        got = engine.option_values(rules, (n, 1))
                        for (a, b), value in got.items():
                            if value != _ref_value(rules, a, b):
                                failures.append((rules.name, n, (a, b), value))
                        now = engine._TABLES[rules.name].known
                        if now < known.get(rules.name, 0):
                            failures.append((rules.name, n, "shrank to", now))
                        known[rules.name] = now
            except Exception as exc:  # a torn table can also fail to broadcast
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threading.settrace(trace)
        try:
            for _ in range(2):
                with mock.patch.object(engine, "_TABLES", engine._new_tables()):
                    threads = [threading.Thread(target=work, args=(k,)) for k in (1, 2, 3, 5)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    for rules in (rs.DELETE_NIM, rs.VDN):
                        table = engine._TABLES[rules.name]
                        assert table.known == 300
                        assert np.array_equal(table.masks[:300], _one_go_masks(rules, 300))
        finally:
            threading.settrace(None)
            sys.setswitchinterval(interval)
        assert failures == []

    def test_vdn_grid_padding(self):
        grid = engine.grundy_grid(rs.VDN, 5)
        assert np.all(grid[0, :] == -1)
        assert np.all(grid[:, 0] == -1)

    def test_unsupported_ruleset(self):
        refused = "no dense backend for ruleset 'nim'"
        with pytest.raises(ValueError, match=refused):
            engine.grundy_grid(rs.NIM, 4)
        with pytest.raises(ValueError, match=refused):
            engine.bands(rs.NIM, 4)
        with pytest.raises(ValueError, match=refused):
            engine.sum_values(rs.NIM, 4)
        with pytest.raises(ValueError, match="no dense backend for ruleset 'delete-nim[+]vdn'"):
            engine.option_values(rs.make_sum(rs.DELETE_NIM, rs.VDN), ((4, 2), (3, 1)))

    def test_budget(self):
        # what earlier calls built changes no charge
        engine.option_values(rs.DELETE_NIM, (700, 3))
        assert engine._TABLES["delete-nim"].known > 600
        with pytest.raises(BudgetExceededError) as exc:
            engine.grundy_grid(rs.DELETE_NIM, 1000, budget=100)
        assert str(exc.value) == "delete-nim grid to bound 1000 exceeds the budget of 100 units"
        # charged its cells before any band is read; the kernel takes no budget
        with pytest.raises(BudgetExceededError):
            engine.vdn_grid(1000, budget=100)
        assert engine.vdn_grid(9, budget=100).shape == (10, 10)
        # a query is charged the full grid up to its larger heap
        with pytest.raises(BudgetExceededError) as exc:
            engine.option_values(rs.DELETE_NIM, (3, 9), budget=99)
        assert str(exc.value) == "delete-nim position 9,3 exceeds the budget of 99 units"
        assert engine.option_values(rs.DELETE_NIM, (3, 9), budget=100)
        assert engine.check_query(rs.VDN, (3, 9), 100) == ((9, 3), 100)

    def test_matches_closed_form_grid(self):
        assert np.array_equal(
            engine.grundy_grid(rs.DELETE_NIM, 200), cf.delete_nim_grundy_grid(200)
        )
        assert np.array_equal(engine.grundy_grid(rs.VDN, 200), cf.vdn_grundy_grid(200))


# Every kernel is written for any (lo, removed) of rulesets.TWO_HEAP_MOVES,
# though only Delete Nim's (0, 1) and VDN's (1, 0) are games: index
# arithmetic that holds for those two pairs alone would pass every test
# above.  (0, 0) is left out, as a heap can then reach itself.
_RULE_PAIRS = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: sum(p) >= 1)


class TestRuleFamily:
    @settings(max_examples=30, deadline=None)
    @given(_RULE_PAIRS)
    def test_kernels_match_the_reference(self, pair):
        # the pair is played under Delete Nim's name, with a fresh table;
        # hypothesis takes no function-scoped fixture, so mock patches it
        lo, removed = pair
        options = ref_two_heap_options(lo, removed)
        rules, bound = rs.DELETE_NIM, 12
        with mock.patch.dict(rs.TWO_HEAP_MOVES, {rules.name: pair}), \
                mock.patch.object(engine, "_TABLES", engine._new_tables()):
            for xs, ys, values in engine.bands(rules, bound):
                for (i, j), value in np.ndenumerate(values):
                    x, y = int(xs[0, j]), int(ys[i, 0])
                    assert value == ref_two_heap_grundy(options, x, y), (pair, x, y)
            for x, y in itertools.combinations_with_replacement(range(lo, bound + 1), 2):
                want = {q: ref_two_heap_grundy(options, *q) for q in options(x, y)}
                assert engine.option_values(rules, (y, x)) == want, (pair, x, y)
            # choosing either heap of (s, s) reaches what choosing a heap of s does
            heaps, xs, ys = engine.heap_options(rules, lo, bound + 1)
            assert len(heaps) == len(set(zip(heaps.tolist(), xs.tolist(), ys.tolist())))
            for s in range(lo, bound + 1):
                assert set(zip(xs[heaps == s].tolist(), ys[heaps == s].tolist())) == options(s, s)
                assert rs.delete_nim_heap_options(s) == options(s, s), (pair, s)
            sum_bound = 5
            xs, ys = engine.sum_positions(rules, sum_bound)
            positions = list(zip(xs.tolist(), ys.tolist()))
            sums = {}
            for g, h, values in engine.sum_values(rules, sum_bound):
                for i, j, value in zip(g.tolist(), h.tolist(), values.tolist()):
                    sums[positions[i], positions[j]] = value
            assert len(sums) == len(positions) ** 2
            for (g, h), value in sums.items():
                assert value == ref_sum_grundy(options, g, h), (pair, g, h)

    @settings(max_examples=30, deadline=None)
    @given(_RULE_PAIRS)
    def test_masks_obey_the_shift_theorem(self, pair):
        # x -> x - lo maps the (lo, removed) game onto (0, lo + removed):
        # from heap lo on, a heap's mask is that of the heap lo fewer
        lo, removed = pair
        n = 200
        masks = engine._fill(engine._Unreached(lo, removed), n)
        shifted = engine._fill(engine._Unreached(0, lo + removed), n - lo)
        assert np.array_equal(masks[lo:], shifted)

    @pytest.mark.parametrize(
        "pair", [(lo, removed) for lo in range(4) for removed in range(4) if lo + removed],
        ids=lambda p: f"{p[0]}-{p[1]}",
    )
    def test_masks_are_the_reach_sets(self, pair):
        # each heap's mask through 150, a fill of many blocks and, in Delete
        # Nim's (0, 1), of the uint8 -> uint16 step at heap 128, is the
        # complement of the values of the positions choosing the heap
        # reaches, by the reference recursion
        lo, removed = pair
        options = ref_two_heap_options(lo, removed)
        masks = engine._fill(engine._Unreached(lo, removed), 150)
        assert masks.dtype == np.uint64
        for s, mask in enumerate(masks.tolist()):
            reached = sum({1 << ref_two_heap_grundy(options, *q) for q in options(s, s)})
            assert mask == ~reached & (1 << 64) - 1, (pair, s)
