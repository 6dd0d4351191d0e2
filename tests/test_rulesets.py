import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from impartial import rulesets as rs
from impartial.errors import BudgetExceededError, DomainError, ParseError
from reference import ref_delete_options, ref_nim_options, ref_vdn_options

heap = st.integers(min_value=0, max_value=200)
vdn_heap = st.integers(min_value=1, max_value=200)


def test_canonical_pair_orders_descending():
    assert rs.canonical_pair(2, 5) == (5, 2)
    assert rs.canonical_pair(5, 2) == (5, 2)
    assert rs.canonical_pair(3, 3) == (3, 3)


def test_canonical_nim_sorts_and_strips_zeros():
    assert rs.canonical_nim([0, 3, 1, 0, 2]) == (3, 2, 1)
    assert rs.canonical_nim([]) == ()
    assert rs.canonical_nim([0, 0]) == ()


class TestOptionSets:
    def test_delete_nim_matches_reference(self):
        for x in range(31):
            for y in range(x + 1):
                assert rs.delete_nim_options((x, y)) == ref_delete_options(x, y)

    def test_vdn_matches_reference(self):
        for x in range(1, 31):
            for y in range(1, x + 1):
                assert rs.vdn_options((x, y)) == ref_vdn_options(x, y)

    def test_nim_matches_reference(self):
        positions = [()]
        positions += [(a,) for a in range(1, 9)]
        positions += [(a, b) for a in range(1, 9) for b in range(1, a + 1)]
        positions += [
            (a, b, c)
            for a in range(1, 7)
            for b in range(1, a + 1)
            for c in range(1, b + 1)
        ]
        for p in positions:
            assert rs.nim_options(p) == ref_nim_options(p)
        # non-canonical input: any order, zero heaps and repeated heaps
        for k in range(5):
            for p in itertools.product(range(7), repeat=k):
                assert rs.nim_options(p) == ref_nim_options(p), p

    def test_pinned_examples(self):
        assert rs.delete_nim_options((3, 2)) == {(2, 0), (1, 1), (1, 0)}
        assert rs.delete_nim_options((1, 0)) == {(0, 0)}
        assert rs.vdn_options((4, 3)) == {(3, 1), (2, 2), (2, 1)}
        assert rs.nim_options((2, 1)) == {(1, 1), (1,), (2,)}

    def test_terminal_positions(self):
        assert rs.delete_nim_options((0, 0)) == set()
        assert rs.vdn_options((1, 1)) == set()
        assert rs.nim_options(()) == set()

    @given(heap, heap)
    def test_delete_options_are_canonical_and_smaller(self, x, y):
        p = rs.canonical_pair(x, y)
        for a, b in rs.delete_nim_options(p):
            assert a >= b >= 0
            assert a + b < max(p[0] + p[1], 1)

    @given(vdn_heap, vdn_heap)
    def test_vdn_options_stay_in_domain(self, x, y):
        p = rs.canonical_pair(x, y)
        for a, b in rs.vdn_options(p):
            assert a >= b >= 1
            assert a + b in (x, y)

    def test_enumeration_limit(self):
        # over-limit heaps are valid positions, but expanding their options
        # is refused as a resource matter rather than a domain error
        big = rs.ENUMERATION_LIMIT + 1
        with pytest.raises(BudgetExceededError):
            rs.delete_nim_options((big, 0))
        with pytest.raises(BudgetExceededError):
            rs.vdn_options((big, 1))
        with pytest.raises(BudgetExceededError):
            rs.nim_options((big,))


class TestHeapOptions:
    # What choosing a heap reaches does not depend on the other heap, so the
    # reference option set of (s, 0) in Delete Nim, and of (s, 1) in VDN,
    # is exactly what choosing a heap of s stones reaches.

    def test_delete_nim_heap_matches_reference(self):
        for s in range(65):
            assert rs.delete_nim_heap_options(s) == ref_delete_options(s, 0)

    def test_vdn_heap_matches_reference(self):
        for s in range(1, 65):
            assert rs.vdn_heap_options(s) == ref_vdn_options(s, 1)

    def test_options_match_reference_in_either_order(self):
        for x in range(41):
            for y in range(41):
                assert rs.delete_nim_options((x, y)) == ref_delete_options(x, y)
                if x and y:
                    assert rs.vdn_options((x, y)) == ref_vdn_options(x, y)

    @given(st.integers(0, 10**4), st.integers(0, 10**4))
    def test_delete_nim_options_are_the_union_of_heap_moves(self, x, y):
        assert rs.delete_nim_options((x, y)) == (
            rs.delete_nim_heap_options(x) | rs.delete_nim_heap_options(y)
        )

    @given(st.integers(1, 10**4), st.integers(1, 10**4))
    def test_vdn_options_are_the_union_of_heap_moves(self, x, y):
        assert rs.vdn_options((x, y)) == rs.vdn_heap_options(x) | rs.vdn_heap_options(y)

    def test_each_call_returns_a_fresh_set(self):
        # delete_nim_options and vdn_options add the second heap's moves
        # into the set the first call returned
        rs.delete_nim_heap_options(5).add((99, 0))
        rs.vdn_heap_options(5).add((99, 1))
        assert (99, 0) not in rs.delete_nim_heap_options(5)
        assert (99, 1) not in rs.vdn_heap_options(5)

    def test_domain_and_enumeration_limit(self):
        # the texts of the one shared enumerator, and of the validators and
        # the parser beside it
        with pytest.raises(DomainError) as exc:
            rs.delete_nim_heap_options(-1)
        assert str(exc.value) == "Delete Nim heaps must be >= 0, got -1"
        with pytest.raises(DomainError) as exc:
            rs.vdn_heap_options(0)
        assert str(exc.value) == "VDN heaps must be >= 1, got 0"
        with pytest.raises(DomainError) as exc:
            rs.DELETE_NIM.validate((-1, 0))
        assert str(exc.value) == "Delete Nim heaps must be >= 0, got (-1, 0)"
        with pytest.raises(DomainError) as exc:
            rs.VDN.validate((0, 3))
        assert str(exc.value) == "VDN heaps must be >= 1, got (0, 3)"
        with pytest.raises(ParseError) as exc:
            rs.parse_position(rs.VDN, "1,2,3")
        assert str(exc.value) == "vdn positions are pairs x,y, got '1,2,3'"
        big = rs.ENUMERATION_LIMIT + 1
        with pytest.raises(BudgetExceededError):
            rs.delete_nim_heap_options(big)
        with pytest.raises(BudgetExceededError):
            rs.vdn_heap_options(big)


class TestSum:
    def test_name_and_structure(self):
        game = rs.make_sum(rs.DELETE_NIM, rs.NIM)
        assert game.name == "delete-nim+nim"

    def test_sum_options_move_in_one_component(self):
        left = right = rs.DELETE_NIM
        opts = rs.sum_options(((1, 0), (1, 0)), left, right)
        assert opts == {((0, 0), (1, 0)), ((1, 0), (0, 0))}

    def test_sum_of_terminals_is_terminal(self):
        game = rs.make_sum(rs.DELETE_NIM, rs.DELETE_NIM)
        assert game.options(((0, 0), (0, 0))) == set()

    def test_option_counts_add(self):
        game = rs.make_sum(rs.DELETE_NIM, rs.VDN)
        g, h = (4, 2), (3, 3)
        assert len(game.options((g, h))) == len(
            rs.delete_nim_options(g)
        ) + len(rs.vdn_options(h))


class TestParse:
    def test_pair_games(self):
        assert rs.parse_position(rs.DELETE_NIM, "3,2") == (3, 2)
        assert rs.parse_position(rs.DELETE_NIM, "2,3") == (3, 2)
        assert rs.parse_position(rs.DELETE_NIM, " 0 , 0 ") == (0, 0)
        assert rs.parse_position(rs.VDN, "1,5") == (5, 1)

    def test_nim_any_arity(self):
        assert rs.parse_position(rs.NIM, "2,5,7") == (7, 5, 2)
        assert rs.parse_position(rs.NIM, "4") == (4,)
        assert rs.parse_position(rs.NIM, "0,0,0") == ()

    @pytest.mark.parametrize(
        "bad", ["", "3", "3,2,1", "3;2", "a,b", "3,", ",2", "1.5,2", "1_0,2", "\uff13,\uff12", "+3,2"]
    )
    def test_malformed_pair_text(self, bad):
        with pytest.raises(ParseError):
            rs.parse_position(rs.DELETE_NIM, bad)

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            rs.parse_position(rs.DELETE_NIM, "-1,2")
        with pytest.raises(DomainError):
            rs.parse_position(rs.VDN, "0,3")
        with pytest.raises(DomainError):
            rs.parse_position(rs.NIM, "3,-2")

    @given(heap, heap)
    def test_format_parse_round_trip(self, x, y):
        p = rs.canonical_pair(x, y)
        assert rs.parse_position(rs.DELETE_NIM, rs.format_position(rs.DELETE_NIM, p)) == p

    def test_format_empty_nim(self):
        assert rs.format_position(rs.NIM, ()) == "0"
        assert rs.parse_position(rs.NIM, "0") == ()

    def test_format_examples(self):
        assert rs.format_position(rs.DELETE_NIM, (3, 2)) == "3,2"
        assert rs.format_position(rs.NIM, (7, 5, 2)) == "7,5,2"

    def test_echo_cuts_past_sixty_characters(self):
        # up to 60 characters a text is echoed whole; past that, a prefix,
        # its heap count, and its largest heap if every part is a short heap
        whole = "1," * 29 + "10"
        assert len(whole) == 60
        assert rs.echo_position(whole) == whole
        assert rs.echo_position(whole, repr) == repr(whole)
        assert rs.echo_position(whole + "0") == whole + "... (30 heaps, largest 100)"
        assert rs.echo_position("x," + whole, repr) == repr("x," + whole[:58]) + "... (31 heaps)"
        assert rs.echo_position("1" * 61 + ",2") == "1" * 60 + "... (2 heaps)"

    def test_echo_cuts_escapes_and_wide_characters(self):
        # at most 180 bytes of a shown text: repr writes a control character
        # as 4 characters and an unassigned one as 10, and str a 4-byte
        # character as is, so a text of 60 such characters is cut too
        assert rs.echo_position("\x1f" * 60, repr) == repr("\x1f" * 44) + "... (1 heaps)"
        assert rs.echo_position("\U000e7d12" * 3, repr) == repr("\U000e7d12" * 3)
        assert rs.echo_position("\U000e7d12" * 18, repr) == repr("\U000e7d12" * 17) + "... (1 heaps)"
        assert rs.echo_position("\U0001f600" * 60) == "\U0001f600" * 45 + "... (1 heaps)"
        assert rs.echo_position("\U0001f600" * 45) == "\U0001f600" * 45
        # a lone surrogate, as argv holds a byte that is not UTF-8, counts
        # as the 6 bytes of the escape stderr writes for it
        assert rs.echo_position("\udcff" + "a" * 60) == "\udcff" + "a" * 59 + "... (1 heaps)"
        assert rs.echo_position("\udcff" * 60) == "\udcff" * 30 + "... (1 heaps)"
        assert rs.echo_position("\udcff" * 60, repr) == repr("\udcff" * 29) + "... (1 heaps)"

    def test_echo_number_cuts_past_sixty_digits(self):
        # a number of up to 60 digits is echoed whole; past that, its first
        # 60 digits and its digit count, even past the 4300 digits str() takes
        assert rs.echo_number(10**60 - 1) == "9" * 60
        assert rs.echo_number(-(10**60 - 1)) == "-" + "9" * 60
        assert rs.echo_number(10**60) == "1" + "0" * 59 + "... (61 digits)"
        assert rs.echo_number(-(10**60 + 7)) == "-1" + "0" * 59 + "... (61 digits)"
        assert rs.echo_number(10**8000 - 1) == "9" * 60 + "... (8000 digits)"
        assert rs.echo_number(2**30000) == str(2**30000 // 10**(9031 - 60)) + "... (9031 digits)"


def test_ruleset_is_frozen():
    with pytest.raises(Exception):
        rs.DELETE_NIM.name = "other"
