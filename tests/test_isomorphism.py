import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impartial import closed_forms as cf
from impartial import isomorphism as iso
from impartial import rulesets as rs
from impartial.errors import DomainError

vdn_heap = st.integers(min_value=1, max_value=10**6)
wide_vdn_heap = st.integers(min_value=1, max_value=2**62)


def test_pinned_mapping():
    assert iso.vdn_to_delete((1, 1)) == (0, 0)
    assert iso.vdn_to_delete((3, 2)) == (2, 1)
    assert iso.delete_to_vdn((0, 0)) == (1, 1)
    assert iso.delete_to_vdn((2, 1)) == (3, 2)


@given(vdn_heap, vdn_heap)
def test_round_trip(x, y):
    p = rs.canonical_pair(x, y)
    assert iso.delete_to_vdn(iso.vdn_to_delete(p)) == p


# check_isomorphism takes every image from the array twin and applies the
# scalar map only at flagged positions; these tests alone hold the two
# maps to each other: on every canonical cell through verify --all's
# default bound, 1024, in both argument orders, and on random heaps up to
# 2**62.


def test_array_twin_matches_scalar_map():
    xs, ys = np.tril_indices(1025)
    x, y = xs[ys >= 1], ys[ys >= 1]
    images = list(map(iso.vdn_to_delete, zip(x.tolist(), y.tolist())))
    for args in ((x, y), (y, x)):
        big, small = iso.vdn_to_delete_array(*args)
        assert list(zip(big.tolist(), small.tolist())) == images


@given(wide_vdn_heap, wide_vdn_heap)
def test_array_twin_matches_scalar_map_on_wide_heaps(x, y):
    big, small = iso.vdn_to_delete_array(np.array([x, y]), np.array([y, x]))
    assert list(zip(big.tolist(), small.tolist())) == [iso.vdn_to_delete((x, y))] * 2


def test_array_twin_domain_enforced():
    with pytest.raises(DomainError, match=r"VDN heaps must be >= 1, got \(1, 0\)"):
        iso.vdn_to_delete_array(np.array([[1, 2]]), np.array([[1], [0]]))


def test_domain_enforced():
    with pytest.raises(DomainError):
        iso.vdn_to_delete((0, 3))
    with pytest.raises(DomainError):
        iso.delete_to_vdn((-1, 0))


def test_option_commutation_by_hand():
    # F(3,2) = (2,1); VDN options of (3,2) map onto Delete Nim options of (2,1)
    mapped = {iso.vdn_to_delete(q) for q in rs.vdn_options((3, 2))}
    assert mapped == rs.delete_nim_options((2, 1)) == {(1, 0), (0, 0)}


def test_option_commutation_exhaustive():
    for x in range(1, 41):
        for y in range(1, x + 1):
            mapped = {iso.vdn_to_delete(q) for q in rs.vdn_options((x, y))}
            assert mapped == rs.delete_nim_options(iso.vdn_to_delete((x, y)))


def test_grundy_commutation(dn_grid_64, vdn_grid_64):
    for x in range(1, 65):
        for y in range(1, 65):
            assert vdn_grid_64[x, y] == dn_grid_64[x - 1, y - 1]


def test_check_isomorphism_passes():
    assert iso.check_isomorphism(40) == []


def test_check_isomorphism_scalar_identity():
    for x in range(1, 30):
        for y in range(1, x + 1):
            assert cf.vdn_grundy(x, y) == cf.delete_nim_grundy(x - 1, y - 1)
