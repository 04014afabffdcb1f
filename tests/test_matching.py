"""Unit tests for repro.core.matching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Matching, MutableMatching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidMatchingError
from repro.vec import HAS_NUMPY


class TestMatching:
    def test_empty(self):
        m = Matching()
        assert len(m) == 0
        assert m.partner_of_man(0) is None
        assert m.partner_of_woman(3) is None
        assert not m.is_man_matched(0)

    def test_basic_pairs(self):
        m = Matching([(0, 2), (1, 0)])
        assert m.partner_of_man(0) == 2
        assert m.partner_of_woman(0) == 1
        assert m.contains_pair(0, 2)
        assert not m.contains_pair(0, 0)
        assert (0, 2) in m
        assert (0, 0) not in m
        assert "nonsense" not in m

    def test_duplicate_man_rejected(self):
        with pytest.raises(InvalidMatchingError, match="man 0"):
            Matching([(0, 1), (0, 2)])

    def test_duplicate_woman_rejected(self):
        with pytest.raises(InvalidMatchingError, match="woman 1"):
            Matching([(0, 1), (2, 1)])

    def test_pairs_sorted_by_man(self):
        m = Matching([(3, 0), (1, 2)])
        assert list(m.pairs()) == [(1, 2), (3, 0)]
        assert list(iter(m)) == [(1, 2), (3, 0)]

    def test_matched_sets(self):
        m = Matching([(0, 5), (2, 1)])
        assert m.matched_men() == frozenset({0, 2})
        assert m.matched_women() == frozenset({5, 1})

    def test_equality_and_hash(self):
        assert Matching([(0, 1)]) == Matching([(0, 1)])
        assert hash(Matching([(0, 1)])) == hash(Matching([(0, 1)]))
        assert Matching([(0, 1)]) != Matching([(1, 0)])
        assert Matching() != object()

    def test_repr(self):
        assert "(0, 1)" in repr(Matching([(0, 1)]))

    def test_validate_against_accepts_valid(self):
        prefs = PreferenceProfile([[0]], [[0]])
        Matching([(0, 0)]).validate_against(prefs)

    def test_validate_against_rejects_non_edge(self):
        prefs = PreferenceProfile([[0], []], [[0], []])
        with pytest.raises(InvalidMatchingError, match="not an edge"):
            Matching([(1, 1)]).validate_against(prefs)

    def test_validate_against_rejects_out_of_range(self):
        prefs = PreferenceProfile([[0]], [[0]])
        with pytest.raises(InvalidMatchingError, match="out of range"):
            Matching([(5, 0)]).validate_against(prefs)

    @pytest.mark.parametrize(
        "pair, who",
        [(("0", 1), "man '0'"), ((0, 1.5), "woman 1.5"), ((2.0, "x"), "man 2.0")],
    )
    def test_non_integer_id_rejected(self, pair, who):
        # Ids were coerced with int(): "0" became man 0, 1.5 woman 1.
        with pytest.raises(InvalidMatchingError, match=rf"^{who} in pair"):
            Matching([pair])

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)")
    def test_numpy_integer_ids_accepted(self):
        import numpy as np

        m = Matching([(np.int64(0), np.int32(2))])
        assert list(m.pairs()) == [(0, 2)]
        assert all(type(v) is int for pair in m.pairs() for v in pair)

    def test_is_perfect(self):
        prefs = PreferenceProfile([[0], [0]], [[0, 1]])
        assert Matching([(0, 0)]).is_perfect(prefs)  # min side is women
        assert not Matching().is_perfect(prefs)


class TestMutableMatching:
    def test_match_and_unmatch(self):
        mm = MutableMatching()
        mm.match(0, 1)
        assert mm.partner_of_man(0) == 1
        assert mm.partner_of_woman(1) == 0
        mm.unmatch_man(0)
        assert mm.partner_of_man(0) is None
        assert mm.partner_of_woman(1) is None

    def test_unmatch_woman(self):
        mm = MutableMatching([(2, 3)])
        mm.unmatch_woman(3)
        assert mm.partner_of_man(2) is None

    def test_unmatch_absent_is_noop(self):
        mm = MutableMatching()
        mm.unmatch_man(7)
        mm.unmatch_woman(7)
        assert len(mm) == 0

    def test_double_match_man_raises(self):
        mm = MutableMatching([(0, 0)])
        with pytest.raises(InvalidMatchingError):
            mm.match(0, 1)

    def test_double_match_woman_raises(self):
        mm = MutableMatching([(0, 0)])
        with pytest.raises(InvalidMatchingError):
            mm.match(1, 0)

    def test_rematch_woman_displaces(self):
        mm = MutableMatching([(0, 0)])
        displaced = mm.rematch_woman(0, 1)
        assert displaced == 0
        assert mm.partner_of_woman(0) == 1
        assert mm.partner_of_man(0) is None

    def test_rematch_unmatched_woman(self):
        mm = MutableMatching()
        assert mm.rematch_woman(0, 5) is None
        assert mm.partner_of_woman(0) == 5

    def test_freeze_round_trip(self):
        mm = MutableMatching([(0, 1), (2, 3)])
        frozen = mm.freeze()
        assert isinstance(frozen, Matching)
        assert list(frozen.pairs()) == list(mm.pairs())

    def test_repr(self):
        assert "(1, 2)" in repr(MutableMatching([(1, 2)]))


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=15
    )
)
def test_matching_construction_never_double_matches(pairs):
    """Either construction raises, or the result is a valid matching."""
    try:
        m = Matching(pairs)
    except InvalidMatchingError:
        # Must genuinely contain a duplicate endpoint.
        men = [p[0] for p in pairs]
        women = [p[1] for p in pairs]
        assert len(set(men)) < len(men) or len(set(women)) < len(women)
        return
    men = [a for a, _ in m.pairs()]
    women = [b for _, b in m.pairs()]
    assert len(set(men)) == len(men)
    assert len(set(women)) == len(women)
