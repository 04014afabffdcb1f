"""Unit tests for repro.core.preferences."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidMatchingError, InvalidPreferencesError
from repro.vec import HAS_NUMPY
from repro.workloads.generators import bounded_degree, complete_uniform, gnp_incomplete


class TestConstruction:
    def test_basic_profile(self):
        prefs = PreferenceProfile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert prefs.n_men == 2
        assert prefs.n_women == 2
        assert prefs.n_players == 4
        assert prefs.num_edges == 4

    def test_empty_profile(self):
        prefs = PreferenceProfile([], [])
        assert prefs.n_men == 0
        assert prefs.num_edges == 0
        assert prefs.edges() == frozenset()

    def test_empty_lists_allowed(self):
        prefs = PreferenceProfile([[], [0]], [[1]])
        assert prefs.deg_man(0) == 0
        assert prefs.deg_man(1) == 1
        assert prefs.num_edges == 1

    def test_unequal_sides(self):
        prefs = PreferenceProfile([[0], [0]], [[0, 1]])
        assert prefs.n_men == 2
        assert prefs.n_women == 1

    def test_duplicate_in_list_rejected(self):
        with pytest.raises(InvalidPreferencesError, match="more than once"):
            PreferenceProfile([[0, 0]], [[0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPreferencesError, match="out-of-range"):
            PreferenceProfile([[3]], [[0]])

    def test_asymmetric_rejected_man_side(self):
        # Man 0 ranks woman 0 but she does not rank him.
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            PreferenceProfile([[0]], [[]])

    def test_asymmetric_rejected_woman_side(self):
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            PreferenceProfile([[]], [[0]])


class TestQueries:
    def test_ranks_are_one_based(self):
        prefs = PreferenceProfile([[2, 0, 1]], [[0], [0], [0]])
        assert prefs.rank_of_woman(0, 2) == 1
        assert prefs.rank_of_woman(0, 0) == 2
        assert prefs.rank_of_woman(0, 1) == 3

    def test_rank_unknown_raises_keyerror(self):
        prefs = PreferenceProfile([[0]], [[0], []])
        with pytest.raises(KeyError):
            prefs.rank_of_woman(0, 1)

    def test_acceptability(self):
        prefs = PreferenceProfile([[1]], [[], [0]])
        assert prefs.acceptable_to_man(0, 1)
        assert not prefs.acceptable_to_man(0, 0)
        assert prefs.acceptable_to_woman(1, 0)
        assert not prefs.acceptable_to_woman(0, 0)

    def test_prefers(self):
        prefs = PreferenceProfile([[1, 0]], [[0], [0]])
        assert prefs.man_prefers(0, 1, 0)
        assert not prefs.man_prefers(0, 0, 1)

    def test_edges_match_iter_edges(self, small_incomplete):
        assert small_incomplete.edges() == frozenset(
            small_incomplete.iter_edges()
        )
        assert small_incomplete.num_edges == len(small_incomplete.edges())

    def test_degrees_sum_to_edges_both_sides(self, small_incomplete):
        p = small_incomplete
        assert sum(p.deg_man(m) for m in range(p.n_men)) == p.num_edges
        assert sum(p.deg_woman(w) for w in range(p.n_women)) == p.num_edges


class TestStructure:
    def test_complete_detection(self):
        assert complete_uniform(5, seed=0).is_complete()
        assert not PreferenceProfile([[0], []], [[0], []]).is_complete()

    def test_regularity_alpha_complete_is_one(self):
        assert complete_uniform(6, seed=1).regularity_alpha() == 1.0

    def test_regularity_alpha_ignores_isolated_men(self):
        prefs = PreferenceProfile([[0, 1], []], [[0], [0]])
        assert prefs.regularity_alpha() == 1.0

    def test_regularity_alpha_empty(self):
        assert PreferenceProfile([[]], [[]]).regularity_alpha() == 1.0

    def test_max_degree(self):
        prefs = PreferenceProfile([[0, 1], [0]], [[0, 1], [0]])
        assert prefs.max_degree() == 2


class TestSerialization:
    def test_round_trip_dict(self, small_incomplete):
        assert (
            PreferenceProfile.from_dict(small_incomplete.to_dict())
            == small_incomplete
        )

    def test_round_trip_json(self, small_complete):
        assert (
            PreferenceProfile.from_json(small_complete.to_json())
            == small_complete
        )

    def test_from_men_lists(self):
        prefs = PreferenceProfile.from_men_lists([[1, 0], [1]], n_women=2)
        assert prefs.acceptable_to_woman(1, 0)
        assert prefs.acceptable_to_woman(1, 1)
        assert prefs.rank_of_woman(0, 1) == 1

    def test_from_men_lists_out_of_range(self):
        with pytest.raises(InvalidPreferencesError):
            PreferenceProfile.from_men_lists([[5]], n_women=2)

    @pytest.mark.parametrize("bad", [5, 2, -1])
    def test_from_men_lists_out_of_range_message(self, bad):
        with pytest.raises(
            InvalidPreferencesError,
            match=rf"^man 1 ranks out-of-range woman {bad}$",
        ):
            PreferenceProfile.from_men_lists([[0, 1], [1, bad], [7]], n_women=2)

    def test_from_men_lists_women_rank_by_man_index(self):
        prefs = PreferenceProfile.from_men_lists([[2, 0], [], [0, 2, 1]], n_women=4)
        assert [prefs.woman_list(w) for w in range(4)] == [(0, 2), (2,), (0, 2), ()]


class TestDunder:
    def test_equality_and_hash(self):
        a = PreferenceProfile([[0]], [[0]])
        b = PreferenceProfile([[0]], [[0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PreferenceProfile([[]], [[]])

    def test_eq_other_type(self):
        assert PreferenceProfile([], []) != 42

    def test_repr(self):
        r = repr(PreferenceProfile([[0]], [[0]]))
        assert "n_men=1" in r and "num_edges=1" in r


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 100))
def test_generated_profiles_always_symmetric(n, p, seed):
    """Any generated profile satisfies the symmetry invariant (the
    constructor would raise otherwise) and consistent rank tables."""
    prefs = gnp_incomplete(n, p, seed)
    for m, w in prefs.iter_edges():
        assert prefs.acceptable_to_woman(w, m)
        assert 1 <= prefs.rank_of_woman(m, w) <= prefs.deg_man(m)
        assert 1 <= prefs.rank_of_man(w, m) <= prefs.deg_woman(w)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 50))
def test_json_round_trip_property(n, seed):
    prefs = gnp_incomplete(n, 0.5, seed)
    assert PreferenceProfile.from_json(prefs.to_json()) == prefs


# ----------------------------------------------------------------------
# One-pass validation against the per-player loops it replaced
# ----------------------------------------------------------------------


def _reference_validate(men_prefs, women_prefs):
    """The per-player validation loops of the previous implementation.

    Kept verbatim (man side, woman side, then symmetry over rank dicts)
    as the oracle for the first error a profile must raise.
    """
    men = tuple(tuple(int(u) for u in lst) for lst in men_prefs)
    women = tuple(tuple(int(u) for u in lst) for lst in women_prefs)
    for lists, opposite_count, side_name in (
        (men, len(women), "man"),
        (women, len(men), "woman"),
    ):
        for v, lst in enumerate(lists):
            seen = set()
            for u in lst:
                if not 0 <= u < opposite_count:
                    raise InvalidPreferencesError(
                        f"{side_name} {v} ranks out-of-range player {u} "
                        f"(opposite side has {opposite_count} players)"
                    )
                if u in seen:
                    raise InvalidPreferencesError(
                        f"{side_name} {v} ranks player {u} more than once"
                    )
                seen.add(u)
    men_rank = [{w: r + 1 for r, w in enumerate(lst)} for lst in men]
    women_rank = [{m: r + 1 for r, m in enumerate(lst)} for lst in women]
    for m, lst in enumerate(men):
        for w in lst:
            if m not in women_rank[w]:
                raise InvalidPreferencesError(
                    f"asymmetric preferences: man {m} ranks woman {w} "
                    f"but woman {w} does not rank man {m}"
                )
    for w, lst in enumerate(women):
        for m in lst:
            if w not in men_rank[m]:
                raise InvalidPreferencesError(
                    f"asymmetric preferences: woman {w} ranks man {m} "
                    f"but man {m} does not rank woman {w}"
                )


def _outcome(build, men, women):
    try:
        build(men, women)
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)
    return None


def _corrupt(rng, men, women):
    """Apply one random corruption to the (mutable) lists in place."""
    kind = rng.choice(
        ["range_high", "range_negative", "duplicate", "mirrored_duplicate",
         "drop_one_way", "add_one_way", "clear_one_side", "clear_both_sides"]
    )
    side, other = (men, women) if rng.random() < 0.5 else (women, men)
    v = rng.randrange(len(side))
    lst = side[v]
    if kind == "range_high":
        lst.insert(rng.randint(0, len(lst)), len(other) + rng.randrange(3))
    elif kind == "range_negative":
        lst.insert(rng.randint(0, len(lst)), -1 - rng.randrange(3))
    elif kind == "duplicate" and lst:
        lst.insert(rng.randint(0, len(lst)), rng.choice(lst))
    elif kind == "mirrored_duplicate" and lst:
        u = rng.choice(lst)
        lst.append(u)
        other[u].append(v)
    elif kind == "drop_one_way" and lst:
        lst.pop(rng.randrange(len(lst)))
    elif kind == "add_one_way":
        missing = [u for u in range(len(other)) if u not in lst]
        if missing:
            lst.insert(rng.randint(0, len(lst)), rng.choice(missing))
    elif kind == "clear_one_side":
        lst.clear()
    elif kind == "clear_both_sides":
        for u in lst:
            if 0 <= u < len(other) and v in other[u]:
                other[u].remove(v)
        lst.clear()


@pytest.mark.parametrize("seed", range(300))
def test_one_pass_validation_matches_reference_loops(seed):
    """Seeded random corruptions raise the old first error, exactly."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    base = gnp_incomplete(n, rng.choice([0.3, 0.6, 1.0]), seed=seed)
    men = [list(base.man_list(m)) for m in range(base.n_men)]
    women = [list(base.woman_list(w)) for w in range(base.n_women)]
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        _corrupt(rng, men, women)
    expected = _outcome(_reference_validate, men, women)
    assert _outcome(PreferenceProfile, men, women) == expected
    if expected is None:
        prefs = PreferenceProfile(men, women)
        assert [list(prefs.man_list(m)) for m in range(prefs.n_men)] == men
        assert [list(prefs.woman_list(w)) for w in range(prefs.n_women)] == women


@pytest.mark.parametrize(
    "men, women",
    [
        ([[0, 0]], [[0, 0]]),  # mirrored duplicates: still symmetric as sets
        ([[0, 0]], [[0]]),
        ([[0]], [[0, 0]]),
        ([[-1]], [[0]]),
        ([[0]], [[-1]]),
        ([[1]], [[0]]),
        ([[0]], [[1]]),
        ([[0]], [[]]),
        ([[]], [[0]]),
        ([[], [0]], [[0]]),
        ([[1], [0]], [[1], [1]]),
        ([[0, 5], [0]], [[1, 0, 0]]),  # errors on both sides: man side first
        ([[0], [0, 1]], [[0, 1], [1], [7]]),  # range beats asymmetry
        ([], [[0]]),
        ([[]], []),
        ([[], []], [[], [], []]),
    ],
)
def test_one_pass_validation_named_cases(men, women):
    assert _outcome(PreferenceProfile, men, women) == _outcome(
        _reference_validate, men, women
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)")
def test_numpy_integer_ids_accepted():
    import numpy as np

    base = gnp_incomplete(9, 0.5, seed=3)
    men = [np.array(base.man_list(m), dtype=np.int64) for m in range(base.n_men)]
    women = [
        [np.int32(m) for m in base.woman_list(w)] for w in range(base.n_women)
    ]
    prefs = PreferenceProfile(men, women)
    assert prefs == base
    assert all(type(w) is int for _, w in prefs.iter_edges())
    bad = [np.array([0, 9], dtype=np.int64)]
    assert _outcome(PreferenceProfile, bad, [[0]]) == _outcome(
        _reference_validate, bad, [[0]]
    )


class TestStrictIds:
    """Player ids must be integers: strings and floats are not truncated."""

    @pytest.mark.parametrize(
        "men, women, who",
        [
            ([["0"], [1]], [[0], [1]], "man 0"),
            ([[0], [1.9]], [[0], [1]], "man 1"),
            ([[0], [1]], [[0], [1.0]], "woman 1"),
            ([[0], [1]], [[None], [1]], "woman 0"),
        ],
    )
    def test_non_integer_id_rejected(self, men, women, who):
        with pytest.raises(InvalidPreferencesError, match=rf"^{who} ranks a player"):
            PreferenceProfile(men, women)

    def test_from_men_lists_rejects_non_integer(self):
        with pytest.raises(InvalidPreferencesError, match="^man 1 ranks a player"):
            PreferenceProfile.from_men_lists([[0], [0.5]], n_women=1)

    def test_bool_and_int_subclasses_still_accepted(self):
        assert PreferenceProfile([[True]], [[], [0]]).man_list(0) == (1,)


# ----------------------------------------------------------------------
# Rank tables are built on first use
# ----------------------------------------------------------------------


def _eager_rank_tables(lists):
    return tuple({u: r + 1 for r, u in enumerate(lst)} for lst in lists)


class TestLazyRankTables:
    def test_unbuilt_after_construction(self, small_incomplete):
        assert small_incomplete._men_rank is None
        assert small_incomplete._women_rank is None

    @pytest.mark.parametrize("seed", range(5))
    def test_on_demand_tables_equal_eager_ones(self, seed):
        prefs = gnp_incomplete(15, 0.4, seed=seed)
        men = [prefs.man_list(m) for m in range(prefs.n_men)]
        women = [prefs.woman_list(w) for w in range(prefs.n_women)]
        assert prefs.men_rank_tables() == _eager_rank_tables(men)
        assert prefs.women_rank_tables() == _eager_rank_tables(women)
        assert prefs.men_rank_tables() is prefs.men_rank_tables()

    @pytest.mark.parametrize(
        "query, built",
        [
            (lambda p: p.rank_of_woman(0, 1), "_men_rank"),
            (lambda p: p.acceptable_to_man(0, 1), "_men_rank"),
            (lambda p: p.man_prefers(0, 1, 0), "_men_rank"),
            (lambda p: p.rank_of_man(1, 0), "_women_rank"),
            (lambda p: p.acceptable_to_woman(1, 0), "_women_rank"),
            (lambda p: p.woman_prefers(0, 0, 1), "_women_rank"),
        ],
    )
    def test_each_query_builds_only_its_side(self, query, built):
        prefs = PreferenceProfile([[1, 0], [0, 1]], [[0, 1], [1, 0]])
        query(prefs)
        other = "_women_rank" if built == "_men_rank" else "_men_rank"
        assert getattr(prefs, built) is not None
        assert getattr(prefs, other) is None

    def test_validate_against_leaves_tables_unbuilt(self):
        prefs = PreferenceProfile([[0], []], [[0], []])
        Matching([(0, 0)]).validate_against(prefs)
        with pytest.raises(InvalidMatchingError, match="not an edge"):
            Matching([(1, 1)]).validate_against(prefs)
        assert prefs._men_rank is None and prefs._women_rank is None

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)")
    def test_batch_pipeline_never_builds_tables(self):
        from repro.core.asm import ASMEngine, params_for_eps
        from repro.vec.compile import compile_profile
        from repro.vec.stability import count_blocking_pairs_vec

        base = bounded_degree(300, 6, seed=1)
        prefs = PreferenceProfile(
            [list(base.man_list(m)) for m in range(base.n_men)],
            [list(base.woman_list(w)) for w in range(base.n_women)],
        )
        compiled = compile_profile(prefs, params_for_eps(0.5)[0])
        result = ASMEngine(prefs, 0.5, optimized="vec").run()
        result.matching.validate_against(prefs)
        count_blocking_pairs_vec(prefs, result.matching.pairs(), profile=compiled)
        assert prefs._men_rank is None
        assert prefs._women_rank is None

    def test_pickle_round_trip_before_and_after_tables(self, small_incomplete):
        before = pickle.loads(pickle.dumps(small_incomplete))
        assert before == small_incomplete
        assert before._men_rank is None and before._women_rank is None
        small_incomplete.men_rank_tables()
        small_incomplete.women_rank_tables()
        after = pickle.loads(pickle.dumps(small_incomplete))
        assert after == small_incomplete
        assert after.men_rank_tables() == small_incomplete.men_rank_tables()
        assert after.women_rank_tables() == small_incomplete.women_rank_tables()
        for m, w in small_incomplete.iter_edges():
            assert before.rank_of_woman(m, w) == after.rank_of_woman(m, w)
            assert before.rank_of_man(w, m) == after.rank_of_man(w, m)
