"""Tests for the Gale–Shapley baselines (centralized, parallel, truncated)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import enumerate_stable_matchings
from repro.analysis.stability import count_blocking_pairs, is_stable
from repro.baselines.gale_shapley import (
    ROUNDS_PER_GS_ITERATION,
    gale_shapley,
    parallel_gale_shapley,
    suggested_iterations,
)
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.workloads.generators import (
    adversarial_gale_shapley,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)


class TestCentralized:
    def test_tiny_instance_known_output(self, tiny_prefs):
        # Rotated preferences: every man gets his first choice.
        result = gale_shapley(tiny_prefs)
        assert set(result.matching.pairs()) == {(0, 0), (1, 1), (2, 2)}
        assert is_stable(tiny_prefs, result.matching)

    def test_stability_on_random(self, small_complete):
        assert is_stable(small_complete, gale_shapley(small_complete).matching)

    def test_unmatchable_players(self):
        # Two men both only rank woman 0.
        prefs = PreferenceProfile([[0], [0]], [[1, 0]])
        result = gale_shapley(prefs)
        assert len(result.matching) == 1
        assert result.matching.partner_of_woman(0) == 1
        assert is_stable(prefs, result.matching)

    def test_empty_instance(self):
        result = gale_shapley(PreferenceProfile([], []))
        assert len(result.matching) == 0
        assert result.proposals == 0

    def test_isolated_players(self):
        prefs = PreferenceProfile([[], [0]], [[1], []])
        result = gale_shapley(prefs)
        assert result.matching.partner_of_man(1) == 0
        assert result.matching.partner_of_man(0) is None

    def test_man_optimality_brute_force(self):
        """GS output is man-optimal among all stable matchings."""
        for seed in range(6):
            prefs = complete_uniform(4, seed=seed)
            gs = gale_shapley(prefs).matching
            stable = enumerate_stable_matchings(prefs)
            assert gs in stable
            for other in stable:
                for m in range(4):
                    gs_rank = prefs.rank_of_woman(m, gs.partner_of_man(m))
                    other_rank = prefs.rank_of_woman(
                        m, other.partner_of_man(m)
                    )
                    assert gs_rank <= other_rank

    def test_adversarial_proposal_count(self):
        result = gale_shapley(adversarial_gale_shapley(10))
        assert result.proposals == 55


class TestParallel:
    def test_matches_sequential_complete(self):
        for seed in range(5):
            prefs = complete_uniform(9, seed=seed)
            assert (
                parallel_gale_shapley(prefs).matching
                == gale_shapley(prefs).matching
            )

    def test_matches_sequential_incomplete(self):
        for seed in range(5):
            prefs = gnp_incomplete(10, 0.4, seed=seed)
            assert (
                parallel_gale_shapley(prefs).matching
                == gale_shapley(prefs).matching
            )

    def test_round_accounting(self):
        prefs = complete_uniform(6, seed=0)
        result = parallel_gale_shapley(prefs)
        assert result.completed
        assert result.rounds == result.iterations * ROUNDS_PER_GS_ITERATION

    def test_adversarial_linear_iterations(self):
        # All-identical preferences: iteration t settles woman t.
        n = 15
        result = parallel_gale_shapley(adversarial_gale_shapley(n))
        assert result.completed
        assert result.iterations == n

    def test_empty(self):
        result = parallel_gale_shapley(PreferenceProfile([], []))
        assert result.completed
        assert result.iterations == 0


class TestTruncated:
    def test_zero_budget_empty_matching(self, small_complete):
        result = parallel_gale_shapley(small_complete, max_iterations=0)
        assert len(result.matching) == 0
        assert not result.completed

    def test_large_budget_completes(self, small_complete):
        result = parallel_gale_shapley(small_complete, max_iterations=10_000)
        assert result.completed
        assert is_stable(small_complete, result.matching)

    def test_blocking_pairs_decrease_with_budget(self):
        prefs = complete_uniform(20, seed=3)
        counts = [
            count_blocking_pairs(
                prefs, parallel_gale_shapley(prefs, max_iterations=t).matching
            )
            for t in (0, 2, 8, 10_000)
        ]
        assert counts[0] >= counts[1] >= counts[-1]
        assert counts[-1] == 0

    def test_negative_budget_rejected(self, small_complete):
        with pytest.raises(InvalidParameterError):
            parallel_gale_shapley(small_complete, max_iterations=-1)

    def test_suggested_iterations_shape(self):
        assert suggested_iterations(4, 0.5) == 32
        assert suggested_iterations(0, 0.5) == 1
        with pytest.raises(InvalidParameterError):
            suggested_iterations(4, 0)
        with pytest.raises(InvalidParameterError):
            suggested_iterations(-1, 0.5)

    def test_bounded_lists_converge_in_constant_rounds(self):
        """The Floréen et al. regime: with degree bound d, a budget
        depending only on (d, eps) reaches low instability across n."""
        d, eps = 4, 0.2
        budget = suggested_iterations(d, eps)
        for n in (30, 60):
            prefs = bounded_degree(n, d, seed=1)
            result = parallel_gale_shapley(prefs, max_iterations=budget)
            bp = count_blocking_pairs(prefs, result.matching)
            assert bp <= eps * prefs.num_edges


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 9), p=st.floats(0.2, 1.0), seed=st.integers(0, 100))
def test_parallel_equals_sequential_property(n, p, seed):
    prefs = gnp_incomplete(n, p, seed=seed)
    assert (
        parallel_gale_shapley(prefs).matching == gale_shapley(prefs).matching
    )
