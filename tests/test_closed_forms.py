import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impartial import closed_forms as cf
from impartial.errors import DomainError
from reference import ref_delete_grundy, ref_v2, ref_vdn_grundy


class TestV2:
    def test_matches_division_oracle(self):
        for n in range(1, 5000):
            assert cf.v2(n) == ref_v2(n)

    def test_zero_is_infinite(self):
        assert cf.v2(0) is cf.INFINITY

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cf.v2(-1)

    def test_powers_of_two(self):
        for k in range(60):
            assert cf.v2(1 << k) == k

    def test_infinity_is_not_an_integer_sentinel(self):
        assert cf.INFINITY == cf.INFINITY
        assert cf.INFINITY != 7
        assert repr(cf.INFINITY) == "INFINITY"
        with pytest.raises(TypeError):
            cf.INFINITY + 1  # arithmetic must fail loudly, not wrap

    @given(st.integers(min_value=1, max_value=10**12))
    def test_valuation_divides(self, n):
        v = cf.v2(n)
        assert n % (1 << v) == 0
        assert (n >> v) % 2 == 1


class TestNimSum:
    def test_worked_examples(self):
        assert cf.nim_sum([2, 5, 7]) == 0
        assert cf.nim_sum([4, 5, 6]) == 7

    def test_empty_and_single(self):
        assert cf.nim_sum([]) == 0
        assert cf.nim_sum([13]) == 13

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30)))
    def test_self_inverse(self, heaps):
        assert cf.nim_sum(heaps + heaps) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 30)),
        st.lists(st.integers(min_value=0, max_value=1 << 30)),
    )
    def test_concatenation_xors(self, a, b):
        assert cf.nim_sum(a + b) == cf.nim_sum(a) ^ cf.nim_sum(b)

    def test_bouton_classification(self):
        assert cf.bouton_is_p([])
        assert cf.bouton_is_p([3, 3])
        assert cf.bouton_is_p([2, 5, 7])
        assert not cf.bouton_is_p([1])
        assert not cf.bouton_is_p([4, 5, 6])


class TestBitOr:
    def test_worked_examples(self):
        assert cf.bit_or(3, 5) == 7
        assert cf.bit_or(9, 12) == 13

    @given(st.integers(min_value=0), st.integers(min_value=0))
    def test_bounds(self, x, y):
        r = cf.bit_or(x, y)
        assert max(x, y) <= r <= x + y


class TestDeleteNimGrundy:
    # frozen from the reference recursion
    PINNED = {
        (0, 0): 0,
        (1, 0): 1,
        (1, 1): 1,
        (2, 0): 0,
        (2, 2): 0,
        (3, 0): 2,
        (3, 2): 2,
        (3, 3): 2,
        (4, 3): 3,
        (5, 0): 1,
        (7, 7): 3,
        (8, 7): 4,
    }

    def test_pinned_values(self):
        for (x, y), g in self.PINNED.items():
            assert cf.delete_nim_grundy(x, y) == g
            assert cf.delete_nim_grundy(y, x) == g

    def test_matches_reference_recursion(self):
        for x in range(36):
            for y in range(x + 1):
                assert cf.delete_nim_grundy(x, y) == ref_delete_grundy(x, y)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cf.delete_nim_grundy(-1, 2)

    @given(st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=0, max_value=1 << 40))
    def test_symmetry(self, x, y):
        assert cf.delete_nim_grundy(x, y) == cf.delete_nim_grundy(y, x)

    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_diagonal_is_valuation_of_successor(self, x):
        # both heaps equal: (x | x) + 1 = x + 1
        assert cf.delete_nim_grundy(x, x) == ref_v2(x + 1)


class TestVdnGrundy:
    PINNED = {
        (1, 1): 0,
        (2, 1): 1,
        (2, 2): 1,
        (3, 1): 0,
        (3, 2): 2,
        (4, 3): 2,
        (4, 4): 2,
        (8, 8): 3,
    }

    def test_pinned_values(self):
        for (x, y), g in self.PINNED.items():
            assert cf.vdn_grundy(x, y) == g

    def test_matches_reference_recursion(self):
        for x in range(1, 33):
            for y in range(1, x + 1):
                assert cf.vdn_grundy(x, y) == ref_vdn_grundy(x, y)

    def test_heaps_below_one_rejected(self):
        with pytest.raises(DomainError):
            cf.vdn_grundy(0, 3)
        with pytest.raises(DomainError):
            cf.vdn_grundy(2, 0)

    @given(st.integers(min_value=1, max_value=1 << 40), st.integers(min_value=1, max_value=1 << 40))
    def test_shift_identity(self, x, y):
        assert cf.vdn_grundy(x, y) == cf.delete_nim_grundy(x - 1, y - 1)


class TestGrids:
    def test_delete_grid_matches_scalar(self, dn_grid_64):
        for x in range(65):
            for y in range(65):
                assert dn_grid_64[x, y] == cf.delete_nim_grundy(x, y)

    def test_vdn_grid_matches_scalar(self, vdn_grid_64):
        for x in range(1, 65):
            for y in range(1, 65):
                assert vdn_grid_64[x, y] == cf.vdn_grundy(x, y)

    def test_vdn_grid_pads_invalid_row(self, vdn_grid_64):
        assert np.all(vdn_grid_64[0, :] == -1)
        assert np.all(vdn_grid_64[:, 0] == -1)

    def test_shapes(self, dn_grid_64, vdn_grid_64):
        assert dn_grid_64.shape == (65, 65)
        assert vdn_grid_64.shape == (65, 65)

    def test_bound_zero(self):
        grid = cf.delete_nim_grundy_grid(0)
        assert grid.shape == (1, 1)
        assert grid[0, 0] == 0


@pytest.mark.parametrize("dtype, top", [(np.int16, 2**14 - 1), (np.int32, 2**30 - 1)])
def test_array_forms_in_narrow_types(dtype, top):
    # the largest heaps whose (x | y) + 1 and its negation the type holds:
    # every bit boundary below them, both heaps at the top, and a seeded
    # sample between
    rng = np.random.default_rng(top)
    edges = {h for k in range(top.bit_length() + 1) for h in ((1 << k) - 1, 1 << k, (1 << k) + 1)}
    sample = set(rng.integers(1, top + 1, size=40).tolist())
    heaps = np.array(sorted(h for h in edges | sample | {0, top} if h <= top), dtype=dtype)
    xs, ys = heaps[:, None], heaps[None, :]
    for form, bit_form, scalar, low in (
        (cf.delete_nim_grundy_array, cf.delete_nim_grundy_bits, cf.delete_nim_grundy, 0),
        (cf.vdn_grundy_array, cf.vdn_grundy_bits, cf.vdn_grundy, 1),
    ):
        values, bits = form(xs, ys), bit_form(xs, ys)
        assert bits.dtype == dtype  # the bit form stays in the heaps' type
        for i, x in enumerate(heaps.tolist()):
            for j, y in enumerate(heaps.tolist()):
                if x >= low and y >= low:
                    assert values[i, j] == scalar(x, y), (form.__name__, x, y)
                    assert bits[i, j] == 1 << scalar(x, y), (bit_form.__name__, x, y)


def test_scalar_forms_match_the_array_forms_through_1024():
    # the sweeps check the array forms against the engine (the bit forms,
    # as 1 << value) and run the scalar forms only at flagged positions, so
    # this holds them to each other on every canonical cell through verify
    # --all's default bound
    xs, ys = np.tril_indices(1025)
    for form, bit_form, scalar, low in (
        (cf.delete_nim_grundy_array, cf.delete_nim_grundy_bits, cf.delete_nim_grundy, 0),
        (cf.vdn_grundy_array, cf.vdn_grundy_bits, cf.vdn_grundy, 1),
    ):
        x, y = xs[ys >= low], ys[ys >= low]
        expected = list(map(scalar, x.tolist(), y.tolist()))
        assert form(x, y).tolist() == expected, form.__name__
        assert bit_form(x, y).tolist() == [1 << v for v in expected], bit_form.__name__


_HUGE = -(10**5000)  # past the 4300 digits str() converts


@pytest.mark.parametrize(
    "function, args",
    [
        (cf.v2, (_HUGE,)),
        (cf.delete_nim_grundy, (_HUGE, 1)),
        (cf.delete_nim_grundy, (1, _HUGE)),
        (cf.vdn_grundy, (_HUGE, 1)),
        (cf.vdn_grundy, (1, _HUGE)),
        (cf.delete_nim_grundy_grid, (_HUGE,)),
        (cf.vdn_grundy_grid, (_HUGE,)),
    ],
)
def test_a_huge_argument_is_echoed_in_a_bounded_message(function, args):
    with pytest.raises(DomainError) as exc:
        function(*args)
    assert len(str(exc.value).encode()) < 300
    assert "(5001 digits)" in str(exc.value)
