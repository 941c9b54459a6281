"""Properties of every member W(n,k) over a window of the whole domain.

n < 0 and k = 0 are drawn like any other cell.  The bracket recursion is
the costly side, so its property runs fewer examples.
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

import cyclojones.wnk
from cyclojones.bracket import bracket_to_jones, bracket_wnk, jones_to_bracket
from cyclojones.cyclotomic import _alternating
from cyclojones.laurent import parse_poly, poly_from_json, poly_to_json, print_poly
from cyclojones.obstructions import special_value_check
from cyclojones.wnk import NOT_SYMMETRIC, _jones_dense, classify_symmetry, jones_wnk, quadruplet

members = st.tuples(st.integers(-12, 12), st.integers(0, 6))

# half the draws land on column k's quadruplet members k-1, k, 2k, 2k+1
wide_members = st.integers(0, 300).flatmap(
    lambda k: st.tuples(
        st.one_of(st.integers(-2000, 2000), st.sampled_from([k - 1, k, 2 * k, 2 * k + 1])),
        st.just(k),
    )
)

# far past the term budget: V would span up to ~10^45 exponents
huge_members = st.integers(0, 10**15).flatmap(
    lambda k: st.tuples(
        st.one_of(st.integers(-(10**30), 10**30), st.sampled_from([k - 1, k, 2 * k, 2 * k + 1])),
        st.just(k),
    )
)


def _refuse(*args):
    raise AssertionError("the closed form's list was built")


@settings(max_examples=40, deadline=None)
@given(members)
def test_closed_form_matches_bracket_recursion(member):
    n, k = member
    v = jones_wnk(n, k)
    bracket = bracket_wnk(n, k)
    assert bracket_to_jones(n, k, bracket) == v
    assert jones_to_bracket(n, k, v) == bracket


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-200, 200), st.integers(0, 60)))
@example((-200, 0)).via("n < 0, k = 0")
@example((-1, 60)).via("n = -1")
@example((200, 60)).via("the corner")
def test_jones_to_bracket_and_back(member):
    # the two conversions are inverse on every V, on its terms alone
    n, k = member
    v = jones_wnk(n, k)
    assert bracket_to_jones(n, k, jones_to_bracket(n, k, v)) == v


@given(members)
def test_passes_special_values(member):
    assert special_value_check(jones_wnk(*member)).passes_all


@given(members)
def test_text_and_json_round_trips(member):
    v = jones_wnk(*member)
    assert parse_poly(print_poly(v)) == v
    assert poly_from_json(poly_to_json(v)) == v


@settings(max_examples=100, deadline=None)
@given(wide_members)
def test_classification_matches_the_dense_list(member):
    # the O(1) proof on N's terms against V's dense list, up to ~6 * 10^5 terms
    n, k = member
    cls = classify_symmetry(n, k)
    lo, v = _jones_dense(n, k)
    if k == 0:
        assert not cls.symmetric
    else:
        assert cls.symmetric == (2 * lo + len(v) == 1 and v == v[::-1])
    if cls.symmetric:
        assert (lo, v) == _alternating(cls.m)


@given(huge_members)
def test_classification_needs_no_budget(member):
    # the O(1) proof at any size: the table's class or NOT_SYMMETRIC, and no list built
    n, k = member
    with (
        mock.patch.object(cyclojones.wnk, "_closed_form", _refuse),
        mock.patch.object(cyclojones.wnk, "_stride_div", _refuse),
    ):
        cls = classify_symmetry(n, k)
    assert cls == (quadruplet(k).get(n, NOT_SYMMETRIC) if k else NOT_SYMMETRIC)
