"""Cross-module integration tests: full pipelines over shared instances."""

from __future__ import annotations

import pytest

from repro.analysis.stability import (
    count_blocking_pairs,
    instability,
    is_eps_blocking_stable,
    is_stable,
    stability_report,
)
from repro.baselines.gale_shapley import gale_shapley, parallel_gale_shapley
from repro.baselines.random_greedy import random_greedy_matching
from repro.core.almost_regular import almost_regular_asm
from repro.core.asm import asm
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.rand_asm import rand_asm
from repro.workloads.generators import (
    complete_uniform,
    euclidean,
    gnp_incomplete,
    master_list,
)


class TestAllAlgorithmsOneInstance:
    """Every algorithm family over the same instances, all validated."""

    @pytest.fixture(params=[0, 1, 2])
    def prefs(self, request):
        return gnp_incomplete(18, 0.4, seed=request.param)

    def test_pipeline(self, prefs):
        eps = 0.3
        runs = {
            "asm": asm(prefs, eps),
            "rand": rand_asm(prefs, eps, seed=1),
            "almost_regular": almost_regular_asm(
                prefs, eps, alpha=max(1.0, prefs.regularity_alpha()), seed=2
            ),
        }
        gs = gale_shapley(prefs)
        for name, run in runs.items():
            run.matching.validate_against(prefs)
            assert instability(prefs, run.matching) <= eps, name
        # GS is exactly stable; approximations are near it, random
        # greedy usually is not.
        assert is_stable(prefs, gs.matching)

    def test_remark2_eps_blocking_after_removing_bad_men(self, prefs):
        """Remark 2: dropping bad men's edges leaves an (2/k)-blocking-
        stable matching for the remaining players."""
        run = asm(prefs, 0.3)
        kept_men = [
            [w for w in prefs.man_list(m)] if m in run.good_men else []
            for m in range(prefs.n_men)
        ]
        kept_women = [
            [m for m in prefs.woman_list(w) if m in run.good_men]
            for w in range(prefs.n_women)
        ]
        reduced = PreferenceProfile(kept_men, kept_women)
        reduced_matching = Matching(
            (m, w)
            for m, w in run.matching.pairs()
            if m in run.good_men
        )
        assert is_eps_blocking_stable(
            reduced, reduced_matching, 2.0 / run.k
        )


class TestQualityOrdering:
    def test_gs_beats_everything_on_stability(self):
        prefs = complete_uniform(24, seed=5)
        gs_bp = count_blocking_pairs(prefs, gale_shapley(prefs).matching)
        asm_bp = count_blocking_pairs(prefs, asm(prefs, 0.2).matching)
        rg_bp = count_blocking_pairs(
            prefs, random_greedy_matching(prefs, seed=1).matching
        )
        assert gs_bp == 0 <= asm_bp
        # The preference-oblivious baseline is far worse than ASM.
        assert rg_bp > asm_bp

    def test_smaller_eps_weakly_better_quality(self):
        prefs = complete_uniform(24, seed=7)
        loose = instability(prefs, asm(prefs, 0.8).matching)
        tight = instability(prefs, asm(prefs, 0.1).matching)
        assert tight <= 0.1
        assert loose <= 0.8

    def test_truncated_gs_improves_with_budget(self):
        prefs = master_list(24, 0.1, seed=0)
        early = count_blocking_pairs(
            prefs, parallel_gale_shapley(prefs, max_iterations=1).matching
        )
        late = count_blocking_pairs(
            prefs, parallel_gale_shapley(prefs, max_iterations=200).matching
        )
        assert late <= early


class TestRealisticScenarios:
    def test_social_network_scenario(self):
        """Euclidean locality graph: sparse, irregular, incomplete."""
        prefs = euclidean(40, radius=0.3, seed=9)
        run = asm(prefs, 0.25)
        rep = stability_report(prefs, run.matching, eps=0.25)
        assert rep.instability <= 0.25
        run.matching.validate_against(prefs)

    def test_correlated_market_scenario(self):
        """Master-list markets are the hard case for decentralized
        algorithms; the guarantee must still hold."""
        prefs = master_list(30, noise=0.05, seed=4)
        run = asm(prefs, 0.2)
        assert instability(prefs, run.matching) <= 0.2

    def test_unbalanced_market(self):
        prefs = complete_uniform(10, seed=3, n_women=20)
        run = asm(prefs, 0.3)
        run.matching.validate_against(prefs)
        assert instability(prefs, run.matching) <= 0.3
        # every man can be matched in a complete unbalanced market
        assert len(run.matching) == 10
