"""Seeded equivalence: the numpy struct-of-arrays engine is bit-identical.

``ASMEngine(optimized="vec")`` compiles the profile to flat arrays and
replays ProposalRound / QuantileMatch as batched array operations.  The
contract is *bit-identity* with the pure-Python reference engine — the
entire :class:`~repro.core.asm.ASMResult` (matching, good/bad/removed
sets, message stats, round charges by category, per-round and per-outer
stats, synchronous time) must be equal on every instance.  These tests
pin that contract over the workload generator grid, a seeded property
sweep (``REPRO_PROPERTY_TRIALS``, default 200), the Theorem 3 ε-bound
on the vec path, and the vectorized blocking-pair counter against the
Python oracle.

numpy is an optional extra (``repro[fast]``): with numpy absent, the
vec tests skip and the fallback tests assert the clean
:class:`~repro.errors.VecUnavailableError` surface instead.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.stability import count_blocking_pairs
from repro.core.almost_regular import almost_regular_asm
from repro.core.asm import ASMEngine, ASMObserver, asm
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import quantile_boundaries
from repro.core.rand_asm import rand_asm
from repro.errors import InvalidParameterError, VecUnavailableError
from repro.mm.oracles import israeli_itai_oracle
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.vec import HAS_NUMPY
from repro.workloads.generators import (
    GENERATORS,
    adversarial_gale_shapley,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)"
)

#: Instances for the property sweep; CI smoke jobs reduce this.
TRIALS = int(os.environ.get("REPRO_PROPERTY_TRIALS", "200"))

# Same representative grid the default-engine equivalence suite pins.
GRID = [
    ("complete", {"n": 18, "seed": 0}),
    ("complete", {"n": 18, "seed": 1}),
    ("gnp", {"n": 22, "p": 0.35, "seed": 2}),
    ("bounded", {"n": 20, "d": 6, "seed": 3}),
    ("regular", {"n": 16, "d": 5, "seed": 4}),
    ("almost_regular", {"n": 18, "d_min": 3, "d_max": 7, "seed": 5}),
    ("master_list", {"n": 14, "noise": 0.15, "seed": 6}),
    ("euclidean", {"n": 20, "radius": 0.4, "seed": 7}),
    ("zipf", {"n": 14, "exponent": 1.0, "seed": 8}),
    ("clustered", {"n": 16, "seed": 9}),
]

_ROOT = random.Random(0x5EC5)
_FUZZ = [
    (
        _ROOT.choice(["complete", "gnp", "bounded"]),
        _ROOT.randint(3, 12),
        _ROOT.choice([0.25, 0.4, 0.5, 0.8, 1.0]),
        _ROOT.randrange(2**31),
    )
    for _ in range(TRIALS)
]


def _fuzz_profile(family, n, seed):
    if family == "complete":
        return complete_uniform(n, seed=seed)
    if family == "gnp":
        return gnp_incomplete(n, 0.5, seed=seed)
    return bounded_degree(n, min(4, n), seed=seed)


@needs_numpy
class TestVecEquivalence:
    @pytest.mark.parametrize("name,kwargs", GRID)
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_identical_results_across_grid(self, name, kwargs, eps):
        prefs = GENERATORS[name](**kwargs)
        reference = asm(prefs, eps, optimized=False)
        vec = asm(prefs, eps, optimized="vec")
        assert vec == reference

    def test_identical_with_invariant_checking(self):
        prefs = complete_uniform(16, seed=11)
        reference = asm(prefs, 0.4, optimized=False, check_invariants=True)
        vec = asm(prefs, 0.4, optimized="vec", check_invariants=True)
        assert vec == reference

    def test_identical_on_adversarial_instance(self):
        prefs = adversarial_gale_shapley(14)
        assert asm(prefs, 0.3, optimized="vec") == asm(
            prefs, 0.3, optimized=False
        )

    def test_identical_on_asymmetric_markets(self):
        profiles = [
            PreferenceProfile([[], [0, 1]], [[1], [1]]),
            PreferenceProfile([[0, 1], [1]], [[0], [0, 1], []]),
            PreferenceProfile([[2, 0]], [[0], [], [0]]),
            PreferenceProfile([], []),
            PreferenceProfile([[], []], [[], []]),
        ]
        for prefs in profiles:
            reference = asm(
                prefs, 0.5, optimized=False, check_invariants=True
            )
            vec = asm(prefs, 0.5, optimized="vec", check_invariants=True)
            assert vec == reference

    @pytest.mark.parametrize("iterations", [1, 4, 12])
    def test_identical_run_flat(self, iterations):
        prefs = gnp_incomplete(24, 0.3, seed=19)
        reference = ASMEngine(prefs, 0.5, optimized=False).run_flat(
            iterations
        )
        vec = ASMEngine(prefs, 0.5, optimized="vec").run_flat(iterations)
        assert vec == reference

    def test_engines_share_one_compiled_profile(self):
        prefs = complete_uniform(10, seed=2)
        a = ASMEngine(prefs, 0.5, optimized="vec")
        b = ASMEngine(prefs, 0.5, optimized="vec")
        assert a._vec.profile is b._vec.profile  # same cached VecProfile


@needs_numpy
class TestVecPropertySweep:
    """Seeded fuzz: bit-identity and Theorem 3 on the vec path."""

    @pytest.mark.parametrize(
        "family,n,eps,seed", _FUZZ, ids=lambda _: None
    )
    def test_vec_matches_reference_and_theorem3(self, family, n, eps, seed):
        from repro.vec.stability import count_blocking_pairs_vec

        prefs = _fuzz_profile(family, n, seed)
        reference = asm(prefs, eps, optimized=False, check_invariants=True)
        vec = asm(prefs, eps, optimized="vec", check_invariants=True)
        assert vec == reference

        blocking = count_blocking_pairs_vec(prefs, vec.matching.pairs())
        assert blocking == count_blocking_pairs(prefs, vec.matching)
        assert blocking <= eps * prefs.num_edges, (
            f"Theorem 3 violated on vec path ({family}, n={n}, "
            f"seed={seed}): {blocking} > {eps * prefs.num_edges}"
        )


@needs_numpy
class TestVecStabilityCounter:
    def test_counts_match_oracle_on_partial_matchings(self):
        from repro.vec.stability import count_blocking_pairs_vec

        rng = random.Random(7)
        for prefs in (
            complete_uniform(15, seed=1),
            gnp_incomplete(25, 0.3, seed=2),
            bounded_degree(30, 5, seed=3),
        ):
            matchings = [Matching([])]
            for _ in range(8):
                used = set()
                pairs = []
                for m in range(prefs.n_men):
                    lst = prefs.man_list(m)
                    if lst and rng.random() < 0.6:
                        w = rng.choice(lst)
                        if w not in used:
                            used.add(w)
                            pairs.append((m, w))
                matchings.append(Matching(pairs))
            for matching in matchings:
                assert count_blocking_pairs_vec(
                    prefs, matching.pairs()
                ) == count_blocking_pairs(prefs, matching)

    def test_reuses_supplied_profile(self):
        from repro.vec.compile import compile_profile
        from repro.vec.stability import count_blocking_pairs_vec

        prefs = complete_uniform(8, seed=5)
        profile = compile_profile(prefs, 16)
        result = asm(prefs, 0.5, optimized="vec")
        assert count_blocking_pairs_vec(
            prefs, result.matching.pairs(), profile=profile
        ) == count_blocking_pairs(prefs, result.matching)


@needs_numpy
class TestCompiledProfile:
    def test_decimal_str_order_keys_match_str_sort(self):
        import numpy as np

        from repro.vec.compile import decimal_str_order_keys

        for n in (0, 1, 2, 9, 10, 11, 99, 100, 101, 1234):
            keys = decimal_str_order_keys(n)
            by_key = sorted(range(n), key=lambda i: int(keys[i]))
            by_str = sorted(range(n), key=str)
            assert by_key == by_str, f"n={n}"
            assert len(np.unique(keys)) == n  # injective

    def test_quantile_tables_match_quantized_lists(self):
        from repro.core.quantile import QuantizedList
        from repro.vec.compile import compile_profile

        prefs = gnp_incomplete(12, 0.6, seed=4)
        k = 7
        p = compile_profile(prefs, k)
        for m in range(prefs.n_men):
            ql = QuantizedList(prefs.man_list(m), k)
            lo, hi = p.m_indptr[m], p.m_indptr[m + 1]
            for pos in range(lo, hi):
                w = int(p.m_woman[pos])
                assert int(p.m_quant[pos]) == ql.quantile_of(w)

    def test_cross_position_maps_are_inverse(self):
        from repro.vec.compile import compile_profile

        prefs = gnp_incomplete(10, 0.5, seed=6)
        p = compile_profile(prefs, 3)
        for e in range(p.num_edges):
            assert int(p.w2m_pos[int(p.m2w_pos[e])]) == e
            wpos = int(p.m2w_pos[e])
            assert int(p.w_man[wpos]) == int(p.m_owner[e])
            assert int(p.w_owner[wpos]) == int(p.m_woman[e])


class TestFrozenCaches:
    """Satellite: the compiled-profile cache must be tamper-proof."""

    def test_edges_cache_object_identity_preserved(self):
        prefs = complete_uniform(8, seed=0)
        first = prefs.edges()
        assert isinstance(first, frozenset)
        assert prefs.edges() is first
        if HAS_NUMPY:
            from repro.vec.compile import compile_profile

            compile_profile(prefs, 4)
            assert prefs.edges() is first  # compilation didn't disturb it

    @needs_numpy
    def test_compiled_arrays_are_frozen(self):
        import numpy as np

        from repro.vec.compile import compile_profile

        prefs = complete_uniform(6, seed=1)
        p = compile_profile(prefs, 4)
        for name in (
            "m_indptr",
            "m_woman",
            "m_owner",
            "m_quant",
            "m_degree",
            "w_indptr",
            "w_man",
            "w_owner",
            "w_quant",
            "w_degree",
            "m2w_pos",
            "w2m_pos",
            "wq_of_edge",
            "w_first_same_q",
            "m_mm_key",
            "w_mm_key",
        ):
            arr = getattr(p, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0

    @needs_numpy
    def test_soa_cache_keyed_by_k(self):
        from repro.vec.compile import compile_profile

        prefs = complete_uniform(6, seed=2)
        p4 = compile_profile(prefs, 4)
        p8 = compile_profile(prefs, 8)
        assert p4 is not p8
        assert compile_profile(prefs, 4) is p4
        assert compile_profile(prefs, 8) is p8
        assert set(prefs.soa_cache()) == {4, 8}

    @needs_numpy
    def test_tampered_cache_entry_is_recompiled(self):
        from repro.vec.compile import VecProfile, compile_profile

        prefs = complete_uniform(5, seed=3)
        prefs.soa_cache()[4] = "garbage"  # not a VecProfile
        rebuilt = compile_profile(prefs, 4)
        assert isinstance(rebuilt, VecProfile)


class TestVecParameterValidation:
    def test_unknown_optimized_value_rejected(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(prefs, 0.5, optimized="fast")

    @needs_numpy
    def test_vec_rejects_removal_mode(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(
                prefs, 0.5, optimized="vec", remove_unmatched_violators=True
            )

    @needs_numpy
    def test_vec_rejects_randomized_oracle(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(
                prefs, 0.5, optimized="vec", mm_oracle=israeli_itai_oracle(3)
            )

    def test_unavailable_error_when_numpy_missing(self, monkeypatch):
        import repro.vec as vec_pkg

        monkeypatch.setattr(vec_pkg, "HAS_NUMPY", False)
        with pytest.raises(VecUnavailableError) as exc:
            vec_pkg.require_numpy()
        assert "repro[fast]" in str(exc.value)
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(VecUnavailableError):
            ASMEngine(prefs, 0.5, optimized="vec")

    def test_python_paths_unaffected_by_numpy_absence(self, monkeypatch):
        import repro.vec as vec_pkg

        monkeypatch.setattr(vec_pkg, "HAS_NUMPY", False)
        prefs = complete_uniform(6, seed=1)
        assert asm(prefs, 0.5, optimized=True) == asm(
            prefs, 0.5, optimized=False
        )


class _EngineKinds(ASMObserver):
    """Records which engine (``engine.optimized``) each call ran on."""

    def __init__(self):
        self.kinds = set()

    def on_quantile_match_end(self, engine):
        self.kinds.add(engine.optimized)


class TestDefaultEngineRule:
    """``optimized=True`` takes vec exactly when the call can run on it."""

    @needs_numpy
    def test_default_asm_takes_vec(self):
        kinds = _EngineKinds()
        asm(complete_uniform(8, seed=0), 0.5, observer=kinds)
        assert kinds.kinds == {"vec"}

    def test_rand_asm_takes_reference(self):
        kinds = _EngineKinds()
        rand_asm(complete_uniform(8, seed=0), 0.5, seed=1, observer=kinds)
        assert kinds.kinds == {False}

    def test_almost_regular_asm_takes_reference(self):
        kinds = _EngineKinds()
        almost_regular_asm(
            complete_uniform(8, seed=0), 0.5, seed=1, observer=kinds
        )
        assert kinds.kinds == {False}

    def test_no_numpy_install_takes_reference(self, monkeypatch):
        import repro.vec as vec_pkg

        monkeypatch.setattr(vec_pkg, "HAS_NUMPY", False)
        kinds = _EngineKinds()
        asm(complete_uniform(8, seed=0), 0.5, observer=kinds)
        assert kinds.kinds == {False}


@needs_numpy
class TestPartnerObserversOnBothEngines:
    """The blocking-pair observers read partners the same way on vec
    (``-1`` = unmatched in its arrays) as on the reference engine."""

    def test_instability_trace_identical(self):
        """SLOMonitor's per-round blocking counts equal the full-scan
        oracle on both engines."""
        prefs = complete_uniform(12, seed=0)

        class FullScan(ASMObserver):
            def __init__(self):
                self.counts = []

            def on_proposal_round_end(self, engine, stats):
                matching = Matching(
                    (m, w)
                    for m, w in enumerate(engine.man_partners())
                    if w is not None
                )
                self.counts.append(count_blocking_pairs(prefs, matching))

        for optimized in (False, "vec"):
            monitor = SLOMonitor(prefs, StabilitySLO(target_eps=0.05))
            asm(prefs, 0.5, observer=monitor, optimized=optimized)
            oracle = FullScan()
            asm(prefs, 0.5, observer=oracle, optimized=optimized)
            counts = [blocking for _, _, blocking in monitor.trajectory]
            assert counts and counts == oracle.counts, optimized

    def test_slo_trajectory_identical(self):
        prefs = complete_uniform(12, seed=0)
        runs = []
        for optimized in (False, "vec"):
            monitor = SLOMonitor(prefs, StabilitySLO(target_eps=0.05))
            asm(prefs, 0.5, observer=monitor, optimized=optimized)
            runs.append((monitor.trajectory, monitor.violations))
        assert runs[0][0] and runs[0] == runs[1]


class TestQuantileBoundaryCache:
    """Satellite: per-(degree, k) boundaries computed once, reused."""

    def test_boundaries_match_ceiling_arithmetic(self):
        for degree in range(0, 25):
            for k in (1, 2, 3, 7, 16):
                expected = tuple(
                    -(-rank * k // degree) for rank in range(1, degree + 1)
                )
                assert quantile_boundaries(degree, k) == expected

    def test_cached_identity(self):
        a = quantile_boundaries(12, 16)
        b = quantile_boundaries(12, 16)
        assert a is b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            quantile_boundaries(5, 0)
        with pytest.raises(InvalidParameterError):
            quantile_boundaries(-1, 4)


@needs_numpy
class TestDynamicVecSolver:
    """Satellite: the dynamic engine's full solves can use the vec path."""

    def test_trajectory_identical_across_solvers(self):
        from repro.dynamic.engine import DynamicMatchingEngine
        from repro.workloads.churn import ChurnConfig, churn_stream

        prefs = bounded_degree(60, 5, seed=23)
        deltas = churn_stream(prefs, ChurnConfig(steps=12), 23)
        engines = [
            DynamicMatchingEngine(prefs, 0.5, solver_optimized=solver)
            for solver in (False, "vec")
        ]
        for engine in engines:
            engine.apply_stream(deltas)
        py, vec = engines
        assert py.trajectory == vec.trajectory
        assert py.fallbacks == vec.fallbacks
        assert py.marriages == vec.marriages
        assert sorted(py.current_matching().pairs()) == sorted(
            vec.current_matching().pairs()
        )
