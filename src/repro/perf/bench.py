"""Pinned benchmark matrix and regression gate for ``repro-asm bench``.

:func:`run_bench` executes a fixed workload matrix (full scale, or the
``smoke`` shrink used in CI) and returns a machine-readable report:
wall time (best of ``repeats``, :func:`time.perf_counter`), Python
allocation peak (``tracemalloc``), process peak RSS, and the
deterministic counters — messages, rounds, blocking pairs, matching
size — that must reproduce *exactly* across machines.

:func:`compare_reports` is the gate: deterministic counters are
compared strictly, wall time with a relative tolerance (and an
absolute floor below which timing noise dominates and the check is
skipped).  :func:`provenance_warnings` separately flags *advisory*
mismatches — different machine shape, Python version, or worker count
— that make wall times incomparable without being regressions.

``run_bench(..., workers=N)`` shards the matrix across processes via
:class:`repro.parallel.pool.TrialPool`; each case is one
:class:`~repro.parallel.spec.TrialSpec` and its wall time is measured
*inside* the worker, single-threaded, so per-case timings stay
comparable to serial runs (see ``docs/parallel.md``).

This module performs no I/O (TEL003): persistence goes through
:func:`repro.io.save_bench` and reporting through the CLI.
"""

from __future__ import annotations

import os
import platform
import random
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

try:
    import resource
except ImportError:  # Windows: the resource module is Unix-only.
    resource = None  # type: ignore[assignment]

from repro.analysis.stability import count_blocking_pairs
from repro.core.asm import asm
from repro.core.matching import MutableMatching
from repro.errors import InvalidParameterError
from repro.parallel import TrialPool, TrialSpec
from repro.perf.blocking_index import BlockingPairIndex
from repro.workloads.generators import GENERATORS, gnp_incomplete

__all__ = [
    "BENCH_KIND",
    "WORKLOAD_MATRIX",
    "VEC_MATRIX",
    "run_bench",
    "run_index_vs_oracle",
    "run_dynamic_vs_full",
    "run_vec_suite",
    "compare_reports",
    "provenance_warnings",
]

BENCH_KIND = "bench_report"

#: The pinned matrix: one entry per workload family we track.  ``full``
#: sizes target ~a second per case on commodity hardware; ``smoke``
#: sizes keep the whole matrix under a few seconds for CI.
WORKLOAD_MATRIX: Tuple[Dict[str, Any], ...] = (
    {
        "name": "complete",
        "generator": "complete",
        "eps": 0.5,
        "full": {"n": 200, "seed": 7},
        "smoke": {"n": 24, "seed": 7},
    },
    {
        "name": "gnp_sparse",
        "generator": "gnp",
        "eps": 0.5,
        "full": {"n": 600, "p": 0.05, "seed": 11},
        "smoke": {"n": 40, "p": 0.2, "seed": 11},
    },
    {
        "name": "bounded_degree",
        "generator": "bounded",
        "eps": 0.25,
        "full": {"n": 400, "d": 12, "seed": 3},
        "smoke": {"n": 30, "d": 5, "seed": 3},
    },
    {
        "name": "master_list",
        "generator": "master_list",
        "eps": 0.5,
        "full": {"n": 150, "noise": 0.1, "seed": 5},
        "smoke": {"n": 20, "noise": 0.1, "seed": 5},
    },
    {
        "name": "euclidean",
        "generator": "euclidean",
        "eps": 0.5,
        "full": {"n": 300, "radius": 0.3, "seed": 9},
        "smoke": {"n": 24, "radius": 0.5, "seed": 9},
    },
)

#: Scales for the index-vs-oracle trajectory comparison (the
#: acceptance-criterion case: n=2000 at full scale).
INDEX_VS_ORACLE_SCALES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 2000, "p": 0.01, "steps": 120, "seed": 17},
    "smoke": {"n": 120, "p": 0.2, "steps": 30, "seed": 17},
}

#: Scales for the dynamic-engine incremental-repair vs full-re-run
#: comparison (the acceptance-criterion case: n=10⁴ at full scale,
#: where per-delta localized repair must beat a per-delta full ASM
#: solve by ≥ 10×).  ``full_samples`` bounds how many full solves the
#: control arm times — per-delta cost is their mean, so the case stays
#: runnable while the incremental arm replays every delta.
DYNAMIC_VS_FULL_SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "n": 10_000, "d": 8, "steps": 40, "full_samples": 3,
        "seed": 23, "eps": 0.5,
    },
    "smoke": {
        "n": 120, "d": 6, "steps": 16, "full_samples": 4,
        "seed": 23, "eps": 0.5,
    },
    # The vec-arm raise (part of the vec suite, not the main gate): one
    # order of magnitude above "full", runnable only because every full
    # solve — warm start, SLO fallbacks, and the control arm — goes
    # through the numpy engine (``solver="vec"``).  The n=10⁴ "full"
    # gate above is deliberately untouched so the pure-Python
    # comparison baseline stays stable.
    "full_vec": {
        "n": 100_000, "d": 8, "steps": 20, "full_samples": 2,
        "seed": 23, "eps": 0.5, "solver": "vec",
    },
}

#: The vec-engine matrix (``run_vec_suite``): the ``dual`` case runs
#: the pure-Python reference engine and the numpy struct-of-arrays
#: engine on the same workload, asserts their results are identical,
#: and reports the speedup; ``vec``-mode cases run the numpy engine
#: alone at scales the Python engines cannot reach in bench time.
#: ``smoke`` keeps the n=10⁴ dual case (the acceptance gate) and drops
#: the larger scales.
VEC_MATRIX: Tuple[Dict[str, Any], ...] = (
    {
        "name": "vec_dual_1e4",
        "mode": "dual",
        "eps": 0.5,
        "full": {"n": 10_000, "d": 8, "seed": 42},
        "smoke": {"n": 10_000, "d": 8, "seed": 42},
    },
    {
        "name": "vec_scale_1e5",
        "mode": "vec",
        "eps": 0.5,
        "full": {"n": 100_000, "d": 8, "seed": 42},
    },
    {
        # A single timed run: at n=10⁶ the solve is tens of seconds and
        # deterministic counters, not timing noise, are the gate.
        "name": "vec_scale_1e6",
        "mode": "vec",
        "eps": 0.5,
        "max_repeats": 1,
        "full": {"n": 1_000_000, "d": 8, "seed": 42},
    },
)


def _run_case(case: Dict[str, Any], scale: str, repeats: int) -> Dict[str, Any]:
    params = dict(case[scale])
    prefs = GENERATORS[case["generator"]](**params)
    eps = case["eps"]

    # The matrix times the pure-Python reference engine; the vec engine
    # has its own matrix (run_vec_suite).
    wall = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = asm(prefs, eps, optimized=False)
        elapsed = time.perf_counter() - t0
        if wall is None or elapsed < wall:
            wall = elapsed

    tracemalloc.start()
    asm(prefs, eps, optimized=False)
    _, alloc_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    blocking = count_blocking_pairs(prefs, result.matching)
    return {
        "name": case["name"],
        "generator": case["generator"],
        "params": params,
        "eps": eps,
        "wall_seconds": wall,
        "alloc_peak_bytes": alloc_peak,
        "counters": {
            "num_edges": result.num_edges,
            "matching_size": len(result.matching),
            "blocking_pairs": blocking,
            "rounds_active": result.rounds.rounds_active,
            "rounds_scheduled": result.rounds.rounds_scheduled,
            "synchronous_time": result.synchronous_time,
            "proposal_rounds_executed": result.proposal_rounds_executed,
            "messages": (
                result.messages.proposes
                + result.messages.accepts
                + result.messages.rejects
            ),
        },
    }


def run_index_vs_oracle(scale: str = "full") -> Dict[str, Any]:
    """Incremental :class:`BlockingPairIndex` vs. the full-scan oracle.

    Replays the same blocking-pair-satisfaction trajectory twice — once
    maintaining the count incrementally, once re-counting with the
    ``O(|E|)`` full scan after every step — asserts the two count
    sequences agree exactly, and reports the wall-time ratio.  The
    acceptance gate requires ≥ 3× at full scale (n=2000).
    """
    cfg = INDEX_VS_ORACLE_SCALES[scale]
    prefs = gnp_incomplete(cfg["n"], cfg["p"], seed=cfg["seed"])
    rng = random.Random(cfg["seed"])

    # Pass 1 (timed): incremental index drives the trajectory.
    t0 = time.perf_counter()
    index = BlockingPairIndex(prefs)
    ops: List[Tuple[int, int]] = []
    index_counts: List[int] = [len(index)]
    for _ in range(cfg["steps"]):
        if not len(index):
            break
        pair = index.choose(rng)
        index.satisfy(*pair)
        ops.append(pair)
        index_counts.append(len(index))
    index_seconds = time.perf_counter() - t0

    # Pass 2 (timed): identical trajectory, full rescan per step.
    t0 = time.perf_counter()
    current = MutableMatching()
    oracle_counts: List[int] = [
        count_blocking_pairs(prefs, current.freeze())
    ]
    for m, w in ops:
        old_w = current.partner_of_man(m)
        old_m = current.partner_of_woman(w)
        if old_w is not None:
            current.unmatch_man(m)
        if old_m is not None:
            current.unmatch_woman(w)
        current.match(m, w)
        oracle_counts.append(count_blocking_pairs(prefs, current.freeze()))
    oracle_seconds = time.perf_counter() - t0

    agree = index_counts == oracle_counts
    return {
        "n": cfg["n"],
        "p": cfg["p"],
        "steps": len(ops),
        "seed": cfg["seed"],
        "index_seconds": index_seconds,
        "oracle_seconds": oracle_seconds,
        "speedup": (oracle_seconds / index_seconds) if index_seconds else 0.0,
        "agree": agree,
        "final_blocking_pairs": index_counts[-1],
    }


def run_dynamic_vs_full(scale: str = "full") -> Dict[str, Any]:
    """Incremental localized repair vs. a full ASM re-run per delta.

    Both arms replay the same seeded churn stream.  The *incremental*
    arm drives a :class:`~repro.dynamic.engine.DynamicMatchingEngine`
    (warm-started outside the timed section) through every delta.  The
    *control* arm replays the stream structurally (no repair) and
    times a full ASM solve on a frozen snapshot at ``full_samples``
    evenly spaced deltas — what a re-run-from-scratch service would
    pay per delta.  Alongside the timing ratio the case pins the
    engine's correctness counters: the index must agree with a fresh
    full-scan index at the end, and ε must have stayed under the SLO
    target after every delta.
    """
    from repro.dynamic.engine import DynamicMatchingEngine
    from repro.workloads.churn import ChurnConfig, churn_stream

    if scale not in DYNAMIC_VS_FULL_SCALES:
        raise InvalidParameterError(
            f"unknown scale {scale!r}; "
            f"known: {sorted(DYNAMIC_VS_FULL_SCALES)}"
        )
    cfg = DYNAMIC_VS_FULL_SCALES[scale]
    solver = cfg.get("solver", False)
    prefs = GENERATORS["bounded"](cfg["n"], cfg["d"], cfg["seed"])
    deltas = churn_stream(
        prefs, ChurnConfig(steps=cfg["steps"]), cfg["seed"]
    )
    eps = cfg["eps"]

    # Incremental arm (timed): warm start outside the timed section —
    # the steady-state per-delta cost is the claim under test.
    engine = DynamicMatchingEngine(prefs, eps, solver_optimized=solver)
    t0 = time.perf_counter()
    engine.apply_stream(deltas)
    incremental_seconds = time.perf_counter() - t0

    index_agrees = True
    try:
        engine.index.verify()
    except AssertionError:
        index_agrees = False
    eps_ok = all(
        e <= engine.slo.target_eps + 1e-12 for _, e in engine.trajectory
    )

    # Control arm: replay structurally (untimed), full solve (timed)
    # at sampled deltas.
    shadow = DynamicMatchingEngine(
        prefs, eps, warm_start=False, auto_repair=False
    )
    sample_every = max(1, len(deltas) // max(1, cfg["full_samples"]))
    full_seconds: List[float] = []
    for i, delta in enumerate(deltas):
        shadow.apply(delta)
        if i % sample_every == 0 and len(full_seconds) < cfg["full_samples"]:
            frozen = shadow.market.freeze()
            t0 = time.perf_counter()
            asm(frozen, eps, optimized=solver)
            full_seconds.append(time.perf_counter() - t0)

    per_delta_incremental = (
        incremental_seconds / len(deltas) if deltas else 0.0
    )
    per_delta_full = (
        sum(full_seconds) / len(full_seconds) if full_seconds else 0.0
    )
    return {
        "n": cfg["n"],
        "d": cfg["d"],
        "seed": cfg["seed"],
        "eps": eps,
        "solver": "vec" if solver == "vec" else "python",
        "deltas": len(deltas),
        "full_samples": len(full_seconds),
        "incremental_seconds": incremental_seconds,
        "per_delta_incremental_seconds": per_delta_incremental,
        "per_delta_full_seconds": per_delta_full,
        "speedup_per_delta": (
            per_delta_full / per_delta_incremental
            if per_delta_incremental
            else 0.0
        ),
        "fallbacks": engine.fallbacks,
        "marriages": engine.marriages,
        "final_blocking_pairs": len(engine.index),
        "final_matching_size": sum(
            1 for _ in engine.current_matching().pairs()
        ),
        "final_num_edges": engine.market.num_edges,
        "eps_ok": eps_ok,
        "index_agrees": index_agrees,
    }


def run_vec_suite(scale: str = "full", repeats: int = 3) -> Dict[str, Any]:
    """Execute the :data:`VEC_MATRIX` and the vec dynamic-vs-full case.

    Returns ``{"available": False, "reason": ...}`` when numpy is not
    installed — the suite is an optional extra (``repro[fast]``), so
    its absence is reported, never an error, and
    :func:`compare_reports` skips vec gating for such reports.

    For every case the *cold* wall time includes compiling the profile
    to struct-of-arrays form; the reported ``wall_seconds`` is the best
    of ``repeats`` warm runs (the compilation is cached on the profile,
    mirroring how a service amortizes it across solves).  ``dual``-mode
    cases also run the pure-Python reference engine
    (``optimized=False``) on the same workload, hard-assert result
    identity, and report the speedup.  The reference arm keeps the
    ``optimized_wall_seconds`` report key so older reports compare.
    """
    from repro.vec import HAS_NUMPY, VecUnavailableError

    if not HAS_NUMPY:
        try:  # raise for the canonical message, not a handcrafted copy
            from repro.vec import require_numpy

            require_numpy()
        except VecUnavailableError as exc:
            return {"available": False, "reason": str(exc), "cases": []}

    from repro.vec.stability import count_blocking_pairs_vec

    cases: List[Dict[str, Any]] = []
    for case in VEC_MATRIX:
        if scale not in case:
            continue
        params = dict(case[scale])
        eps = case["eps"]
        case_repeats = min(repeats, case.get("max_repeats", repeats))
        prefs = GENERATORS["bounded"](**params)

        t0 = time.perf_counter()
        result = asm(prefs, eps, optimized="vec")
        cold = time.perf_counter() - t0
        wall = cold
        for _ in range(max(0, case_repeats - 1)):
            t0 = time.perf_counter()
            result = asm(prefs, eps, optimized="vec")
            elapsed = time.perf_counter() - t0
            wall = min(wall, elapsed)

        blocking = count_blocking_pairs_vec(prefs, result.matching.pairs())
        entry: Dict[str, Any] = {
            "name": case["name"],
            "mode": case["mode"],
            "params": params,
            "eps": eps,
            "wall_seconds": wall,
            "cold_wall_seconds": cold,
            "counters": {
                "num_edges": result.num_edges,
                "matching_size": len(result.matching),
                "blocking_pairs": blocking,
                "rounds_active": result.rounds.rounds_active,
                "rounds_scheduled": result.rounds.rounds_scheduled,
                "synchronous_time": result.synchronous_time,
                "proposal_rounds_executed": result.proposal_rounds_executed,
                "messages": (
                    result.messages.proposes
                    + result.messages.accepts
                    + result.messages.rejects
                ),
            },
        }

        if case["mode"] == "dual":
            ref_wall = None
            for _ in range(case_repeats):
                t0 = time.perf_counter()
                ref_result = asm(prefs, eps, optimized=False)
                elapsed = time.perf_counter() - t0
                if ref_wall is None or elapsed < ref_wall:
                    ref_wall = elapsed
            entry["optimized_wall_seconds"] = ref_wall
            entry["speedup"] = (ref_wall / wall) if wall else 0.0
            entry["results_identical"] = (
                ref_result.to_dict() == result.to_dict()
            )
        cases.append(entry)

    suite: Dict[str, Any] = {"available": True, "cases": cases}
    if "full_vec" in DYNAMIC_VS_FULL_SCALES and scale == "full":
        suite["dynamic_vs_full_vec"] = run_dynamic_vs_full("full_vec")
    return suite


# ----------------------------------------------------------------------
# Spec runners (resolved by name inside worker processes)
# ----------------------------------------------------------------------

_BENCH_RUNNER = "repro.perf.bench:run_case_spec"
_IVO_RUNNER = "repro.perf.bench:run_ivo_spec"
_DVF_RUNNER = "repro.perf.bench:run_dvf_spec"


def run_case_spec(spec: TrialSpec) -> Dict[str, Any]:
    """Execute one pinned matrix case named by ``spec.workload``.

    Timing happens here, inside the executing (worker) process and
    single-threaded, so per-case wall times mean the same thing at any
    ``--workers N``.
    """
    matching = [c for c in WORKLOAD_MATRIX if c["name"] == spec.workload]
    if not matching:
        raise InvalidParameterError(
            f"unknown bench case {spec.workload!r}; "
            f"known: {[c['name'] for c in WORKLOAD_MATRIX]}"
        )
    return _run_case(
        matching[0], spec.param("scale"), spec.param("repeats")
    )


def run_ivo_spec(spec: TrialSpec) -> Dict[str, Any]:
    """Execute the index-vs-oracle comparison for ``spec``'s scale."""
    return run_index_vs_oracle(spec.param("scale"))


def run_dvf_spec(spec: TrialSpec) -> Dict[str, Any]:
    """Execute the dynamic-vs-full comparison for ``spec``'s scale."""
    return run_dynamic_vs_full(spec.param("scale"))


def _max_rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB, or ``None`` where unavailable.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but in *bytes*
    on macOS (and the module doesn't exist on Windows); normalizing
    here keeps ``max_rss_kb`` comparable across machines.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak // 1024
    return peak


def run_bench(
    scale: str = "full",
    repeats: int = 3,
    workers: int = 1,
    telemetry=None,
) -> Dict[str, Any]:
    """Execute the pinned matrix and return the report body.

    Parameters
    ----------
    scale:
        ``"full"`` (the committed baseline) or ``"smoke"`` (CI sizes).
    repeats:
        Timing repetitions per case; the minimum is reported.
    workers:
        Worker processes for the matrix (default 1 = in-process).
        Deterministic counters are identical for any value; per-case
        wall times remain in-worker single-threaded measurements.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; the pool
        merges worker metrics and emits one ``trial_chunk`` event per
        bench case into it (the ``--metrics-out``/``--events-out``
        CLI path).
    """
    if scale not in ("full", "smoke"):
        raise InvalidParameterError(
            f"scale must be 'full' or 'smoke', got {scale!r}"
        )
    if repeats < 1:
        raise InvalidParameterError(f"repeats must be >= 1, got {repeats}")
    specs = [
        TrialSpec.make(
            _BENCH_RUNNER,
            algorithm="asm",
            workload=case["name"],
            n=case[scale]["n"],
            eps=case["eps"],
            seed=case[scale]["seed"],
            scale=scale,
            repeats=repeats,
        )
        for case in WORKLOAD_MATRIX
    ]
    ivo_cfg = INDEX_VS_ORACLE_SCALES[scale]
    specs.append(
        TrialSpec.make(
            _IVO_RUNNER,
            algorithm="blocking-index",
            n=ivo_cfg["n"],
            seed=ivo_cfg["seed"],
            scale=scale,
        )
    )
    dvf_cfg = DYNAMIC_VS_FULL_SCALES[scale]
    specs.append(
        TrialSpec.make(
            _DVF_RUNNER,
            algorithm="dynamic-engine",
            n=dvf_cfg["n"],
            eps=dvf_cfg["eps"],
            seed=dvf_cfg["seed"],
            scale=scale,
        )
    )
    # One spec per chunk: each bench case is its own timing unit.
    pool = TrialPool(workers=workers, chunk_size=1, telemetry=telemetry)
    outcomes = pool.run(specs)
    report: Dict[str, Any] = {
        "scale": scale,
        "repeats": repeats,
        "cases": outcomes[:-2],
        "index_vs_oracle": outcomes[-2],
        "dynamic_vs_full": outcomes[-1],
        # In-process and serial (the numpy engine is fast enough that
        # sharding would only blur the timings); reports
        # available=False cleanly on numpy-absent installs.
        "vec": run_vec_suite(scale, repeats),
        "max_rss_kb": _max_rss_kb(),
        "provenance": {
            "workers": workers,
            "cpu_count": os.cpu_count(),
            "python_version": platform.python_version(),
        },
    }
    return report


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
    min_wall_seconds: float = 0.05,
) -> List[str]:
    """Violations of ``current`` against ``baseline``; empty = pass.

    Deterministic counters must match exactly.  Wall time may regress
    by at most ``tolerance`` (relative), checked only when the baseline
    case took at least ``min_wall_seconds`` — below that, scheduler
    noise dominates and timing comparisons are meaningless.
    """
    violations: List[str] = []
    if current.get("scale") != baseline.get("scale"):
        violations.append(
            f"scale mismatch: current={current.get('scale')!r} "
            f"baseline={baseline.get('scale')!r}"
        )
        return violations
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    cur_cases = {c["name"]: c for c in current.get("cases", [])}
    for name, base in base_cases.items():
        cur = cur_cases.get(name)
        if cur is None:
            violations.append(f"{name}: missing from current report")
            continue
        if cur["counters"] != base["counters"]:
            diffs = [
                f"{key}: {base['counters'][key]} -> {cur['counters'].get(key)}"
                for key in base["counters"]
                if cur["counters"].get(key) != base["counters"][key]
            ]
            violations.append(
                f"{name}: deterministic counters changed ({'; '.join(diffs)})"
            )
        base_wall = base.get("wall_seconds") or 0.0
        cur_wall = cur.get("wall_seconds") or 0.0
        if (
            base_wall >= min_wall_seconds
            and cur_wall > base_wall * (1.0 + tolerance)
        ):
            violations.append(
                f"{name}: wall time regressed {base_wall:.4f}s -> "
                f"{cur_wall:.4f}s (> {tolerance:.0%} tolerance)"
            )
    ivo_base: Optional[Dict[str, Any]] = baseline.get("index_vs_oracle")
    ivo_cur: Optional[Dict[str, Any]] = current.get("index_vs_oracle")
    if ivo_base and ivo_cur:
        if not ivo_cur.get("agree", False):
            violations.append(
                "index_vs_oracle: incremental index disagrees with "
                "full-scan oracle"
            )
        if ivo_cur.get("final_blocking_pairs") != ivo_base.get(
            "final_blocking_pairs"
        ):
            violations.append(
                "index_vs_oracle: trajectory diverged "
                f"({ivo_base.get('final_blocking_pairs')} -> "
                f"{ivo_cur.get('final_blocking_pairs')} final blocking pairs)"
            )
    dvf_base: Optional[Dict[str, Any]] = baseline.get("dynamic_vs_full")
    dvf_cur: Optional[Dict[str, Any]] = current.get("dynamic_vs_full")
    if dvf_base and dvf_cur:
        # Like the smoke matrix, this gate is on the deterministic
        # counters; the wall-time ratio is reported, not gated (smoke
        # scale sits below the noise floor).
        if not dvf_cur.get("index_agrees", False):
            violations.append(
                "dynamic_vs_full: dynamic index disagrees with a fresh "
                "full-scan index after the churn stream"
            )
        if not dvf_cur.get("eps_ok", False):
            violations.append(
                "dynamic_vs_full: ε exceeded the SLO target after a delta"
            )
        for key in (
            "deltas",
            "fallbacks",
            "marriages",
            "final_blocking_pairs",
            "final_matching_size",
            "final_num_edges",
        ):
            if dvf_cur.get(key) != dvf_base.get(key):
                violations.append(
                    f"dynamic_vs_full: {key} changed "
                    f"({dvf_base.get(key)} -> {dvf_cur.get(key)})"
                )
    violations.extend(_compare_vec(current, baseline, tolerance))
    return violations


def _compare_vec(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float,
) -> List[str]:
    """Vec-suite violations; empty when either side lacks the suite.

    numpy is an optional extra, so a report with
    ``vec.available == False`` (or predating the suite) is a valid
    environment difference, not a regression — gating applies only
    when both reports actually ran the suite.  Result identity between
    the reference and vec engines, however, is checked whenever the
    *current* report ran a dual case: a divergence is a correctness
    bug regardless of what the baseline saw.
    """
    violations: List[str] = []
    vec_cur = current.get("vec") or {}
    vec_base = baseline.get("vec") or {}
    for case in vec_cur.get("cases", []):
        if case.get("mode") == "dual" and not case.get("results_identical"):
            violations.append(
                f"vec/{case['name']}: reference and vec engine results "
                "diverged (bit-identity contract broken)"
            )
    if not (vec_cur.get("available") and vec_base.get("available")):
        return violations
    base_cases = {c["name"]: c for c in vec_base.get("cases", [])}
    cur_cases = {c["name"]: c for c in vec_cur.get("cases", [])}
    for name, base in base_cases.items():
        cur = cur_cases.get(name)
        if cur is None:
            violations.append(f"vec/{name}: missing from current report")
            continue
        if cur["counters"] != base["counters"]:
            diffs = [
                f"{key}: {base['counters'][key]} -> {cur['counters'].get(key)}"
                for key in base["counters"]
                if cur["counters"].get(key) != base["counters"][key]
            ]
            violations.append(
                f"vec/{name}: deterministic counters changed "
                f"({'; '.join(diffs)})"
            )
    dvf_base = vec_base.get("dynamic_vs_full_vec")
    dvf_cur = vec_cur.get("dynamic_vs_full_vec")
    if dvf_base and dvf_cur:
        for key in (
            "deltas",
            "fallbacks",
            "marriages",
            "final_blocking_pairs",
            "final_matching_size",
            "final_num_edges",
        ):
            if dvf_cur.get(key) != dvf_base.get(key):
                violations.append(
                    f"vec/dynamic_vs_full_vec: {key} changed "
                    f"({dvf_base.get(key)} -> {dvf_cur.get(key)})"
                )
    return violations


def provenance_warnings(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
) -> List[str]:
    """Advisory provenance mismatches between two reports; empty = same.

    Different worker counts, CPU counts, or Python versions make
    wall-time comparisons unreliable (different scheduling pressure,
    interpreter performance) without any code having regressed, so the
    CLI prints these as warnings and never fails on them — deliberately
    separate from :func:`compare_reports`'s violations.  Silent when
    either report predates provenance recording.
    """
    cur = current.get("provenance")
    base = baseline.get("provenance")
    if not isinstance(cur, dict) or not isinstance(base, dict):
        return []
    warnings: List[str] = []
    labels = {
        "workers": "worker count",
        "cpu_count": "CPU count",
        "python_version": "Python version",
    }
    for key, label in labels.items():
        if cur.get(key) != base.get(key):
            warnings.append(
                f"provenance: {label} differs from baseline "
                f"({base.get(key)!r} -> {cur.get(key)!r}); "
                "wall-time comparison may be unreliable"
            )
    return warnings
