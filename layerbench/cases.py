"""The benchmark's four workloads.

Each workload has a ``setup`` (its inputs, built from a generator seed
that the runner derives from ``--seed`` for each of the workload's
``instances``; timed as ``setup_s``) and a ``run`` (the timed operation
plus its correctness checks).  Both make every call into the program through
``rec.call(layer, ...)`` so that a recorder from :mod:`layers` can
observe it.  ``telemetry`` is the program's own instrumentation bundle:
``None`` everywhere except in the traced run's program-tracing pass.

Engines are selected explicitly (``optimized="vec"`` or ``False``),
never through ``optimized=True``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from layers import percentile
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.congest.transport import AsyncEventTransport, SyncTransport
from repro.core.asm import ASMEngine, params_for_eps
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.dynamic.engine import DynamicMatchingEngine
from repro.errors import InvalidMatchingError
from repro.trace.slo import StabilitySLO
from repro.vec.compile import compile_profile
from repro.vec.stability import count_blocking_pairs_vec
from repro.workloads import (
    ChurnConfig,
    bounded_degree,
    churn_stream,
    gnp_incomplete,
    parse_latency,
)


@dataclass
class Pass:
    """What one timed operation of a workload produced."""

    op_s: float
    """Wall time of the operation (one ``solve_s`` sample)."""
    calls: List[float]
    """Latency of each client call into the program, in seconds."""
    attempted: int
    failed: int
    problems: List[str]
    """Check failures that are not per-operation (wrong counters, ...)."""
    counters: Dict[str, float]
    """Deterministic outputs: identical for identical seeds."""
    digest: str
    """Hash of the output matching (and, for churn, the ε trajectory)."""
    layer: Dict[str, float] = field(default_factory=dict)
    """Measured per-layer numbers that are not deterministic."""
    samples: Dict[str, int] = field(default_factory=dict)
    """Sample counts of the ``layer`` numbers that have more than one."""


def solve_vec(prefs: PreferenceProfile, eps: float, telemetry: Any, **schedule: Any):
    return ASMEngine(prefs, eps, optimized="vec", telemetry=telemetry, **schedule).run()


def solve_reference(prefs: PreferenceProfile, eps: float, **schedule: Any):
    return ASMEngine(prefs, eps, optimized=False, **schedule).run()


def matched_frac(matching: Matching, men_degrees: Sequence[int]) -> float:
    """Matched men over men with a nonempty preference list."""
    players = sum(1 for d in men_degrees if d > 0)
    return len(matching) / players if players else 1.0


def matching_digest(matching: Matching, *extra: object) -> str:
    h = hashlib.sha256(repr(sorted(matching.pairs())).encode())
    for item in extra:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def asm_counters(result: Any, blocking_pairs: int) -> Dict[str, float]:
    return {
        "asm.proposal_rounds": result.proposal_rounds_executed,
        "asm.messages": result.messages.total,
        "asm.rounds_active": result.rounds_active,
        "asm.num_edges": result.num_edges,
        "asm.matching_size": len(result.matching),
        "asm.blocking_pairs": blocking_pairs,
    }


def validate(rec: Any, matching: Matching, prefs: PreferenceProfile) -> Optional[str]:
    try:
        rec.call("matching.validate", matching.validate_against, prefs)
    except InvalidMatchingError as exc:
        return f"invalid matching: {exc}"
    return None


class SolveBounded:
    """Batch solve at scale: raw lists → profile → vec compile → vec solve."""

    name = "solve_bounded"
    instances = 1
    n, d, eps = 10_000, 8, 0.5

    def setup(self, seed: int, rec: Any, telemetry: Any):
        prefs = rec.call("workloads.generate", bounded_degree, self.n, self.d, seed=seed)
        men = [list(prefs.man_list(m)) for m in range(prefs.n_men)]
        women = [list(prefs.woman_list(w)) for w in range(prefs.n_women)]
        return men, women

    def run(self, state: Any, rec: Any, telemetry: Any) -> Pass:
        men, women = state
        k = params_for_eps(self.eps)[0]
        t0 = perf_counter()
        prefs = rec.call("preferences.build", PreferenceProfile, men, women)
        compiled = rec.call("vec.compile", compile_profile, prefs, k)
        result = rec.call("vec.solve", solve_vec, prefs, self.eps, telemetry)
        op_s = perf_counter() - t0
        problems = [p for p in [validate(rec, result.matching, prefs)] if p]
        bp = rec.call(
            "vec.verify", count_blocking_pairs_vec, prefs, result.matching.pairs(),
            profile=compiled,
        )
        if bp > self.eps * prefs.num_edges:
            problems.append(
                f"Theorem 3 bound broken: {bp} blocking pairs > "
                f"{self.eps} * {prefs.num_edges} edges"
            )
        counters = asm_counters(result, bp)
        counters["eps"] = bp / prefs.num_edges
        counters["matched_frac"] = matched_frac(result.matching, [len(m) for m in men])
        return Pass(
            op_s=op_s,
            calls=[op_s],
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            counters=counters,
            digest=matching_digest(result.matching),
        )


class CongestSync:
    """Message-level ASM over the lockstep (sync) transport."""

    name = "congest_sync"
    # Eight small instances per run: one instance's edge count, matched
    # share and (async) run time swing widely with the seed.
    instances = 8
    n, p, eps = 20, 0.15, 0.5
    schedule = {"inner_iterations": 4, "outer_iterations": 3}

    def setup(self, seed: int, rec: Any, telemetry: Any):
        return rec.call("workloads.generate", gnp_incomplete, self.n, self.p, seed=seed)

    def transport(self):
        return SyncTransport()

    def reference_check(self, prefs, res, rec, telemetry, problems) -> Dict[str, float]:
        """The run must equal the logical engine on both explicit paths."""
        ref = rec.call("asm.reference", solve_reference, prefs, self.eps, **self.schedule)
        vec = rec.call("vec.solve", solve_vec, prefs, self.eps, telemetry, **self.schedule)
        got = sorted(res.matching.pairs())
        for label, other in (("optimized=False", ref), ('optimized="vec"', vec)):
            if sorted(other.matching.pairs()) != got:
                problems.append(f"congest matching differs from ASMEngine({label})")
        bp = self.blocking_pairs(prefs, vec.matching, rec)
        return asm_counters(vec, bp)

    def blocking_pairs(self, prefs, matching, rec) -> int:
        """Counted on the solve's compilation (cached on the profile)."""
        k = params_for_eps(self.eps)[0]
        compiled = rec.call("vec.compile", compile_profile, prefs, k)
        return rec.call(
            "vec.verify", count_blocking_pairs_vec, prefs, matching.pairs(),
            profile=compiled,
        )

    def run(self, prefs: PreferenceProfile, rec: Any, telemetry: Any) -> Pass:
        transport = self.transport()
        t0 = perf_counter()
        res = rec.call(
            "congest.run", run_congest_asm, prefs, self.eps, telemetry=telemetry,
            transport=transport, **self.schedule,
        )
        op_s = perf_counter() - t0
        problems = [p for p in [validate(rec, res.matching, prefs)] if p]
        counters = self.reference_check(prefs, res, rec, telemetry, problems)
        bp = self.blocking_pairs(prefs, res.matching, rec)
        stats = res.stats
        idle = sum(1 for c in stats.messages_per_round if c == 0)
        counters.update({
            "congest.rounds": stats.rounds,
            "congest.messages": stats.messages,
            "congest.total_bits": stats.total_bits,
            "congest.idle_round_frac": idle / max(1, len(stats.messages_per_round)),
            "transport.deferred": getattr(transport, "deferred", 0),
            "transport.delivered_late": getattr(transport, "delivered_late", 0),
            "congest.retries": res.retries,
            "congest.unresolved_men": len(res.unresolved_men),
            "eps": bp / prefs.num_edges,
            "matched_frac": matched_frac(
                res.matching, [len(prefs.man_list(m)) for m in range(prefs.n_men)]
            ),
        })
        return Pass(
            op_s=op_s,
            calls=[op_s],
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            counters=counters,
            digest=matching_digest(res.matching, sorted(res.unresolved_men)),
            layer={
                "congest.rounds_per_s": stats.rounds / op_s,
                "congest.msgs_per_s": stats.messages / op_s,
            },
        )


class CongestAsync(CongestSync):
    """The same instances and schedule under dense uniform 0–1 link latency.

    Reordered delivery leaves men unresolved and multiplies the
    blocking pairs of the lockstep run; the run is only checked for
    validity, and the gap shows in ``matched_frac``, ``eps`` and
    ``congest.unresolved_men``.
    """

    name = "congest_async"
    latency, link_seed = "uniform:0-1", 0

    def transport(self):
        return AsyncEventTransport(parse_latency(self.latency), link_seed=self.link_seed)

    def reference_check(self, prefs, res, rec, telemetry, problems) -> Dict[str, float]:
        return {}


FAMILIES = ("arrival", "departure", "edge", "swap")
_FAMILY_OF = {
    "arrive_man": "arrival", "arrive_woman": "arrival",
    "depart_man": "departure", "depart_woman": "departure",
    "add_edge": "edge", "remove_edge": "edge",
    "swap_man_prefs": "swap", "swap_woman_prefs": "swap",
}


class DynamicChurn:
    """A closed loop of one client applying churn deltas one at a time."""

    name = "dynamic_churn"
    instances = 1
    n, d, steps, eps, target_eps = 5_000, 8, 1_000, 0.5, 0.005

    def setup(self, seed: int, rec: Any, telemetry: Any):
        prefs = rec.call("workloads.generate", bounded_degree, self.n, self.d, seed=seed)
        stream = rec.call(
            "workloads.churn_stream", churn_stream, prefs, ChurnConfig(steps=self.steps), seed
        )
        engine = rec.call(
            "dynamic.warm_start", DynamicMatchingEngine, prefs, self.eps,
            slo=StabilitySLO(target_eps=self.target_eps, deadline_rounds=0),
            solver_optimized="vec", telemetry=telemetry,
        )
        return engine, stream

    def run(self, state: Any, rec: Any, telemetry: Any) -> Pass:
        engine, stream = state
        apply = engine.apply
        calls: List[float] = []
        outcomes = []
        t0 = perf_counter()
        for delta in stream:
            t = perf_counter()
            outcomes.append(rec.call("dynamic.apply", apply, delta))
            calls.append(perf_counter() - t)
        op_s = perf_counter() - t0

        failed = sum(1 for o in outcomes if o.eps_after > self.target_eps)
        problems: List[str] = []
        try:
            rec.call("dynamic.index_verify", engine.index.verify)
        except AssertionError as exc:
            problems.append(f"blocking index diverged: {exc}")
        market = engine.market
        final = engine.current_matching()
        counters = {
            "dynamic.fallbacks": engine.fallbacks,
            "dynamic.marriages_total": sum(o.marriages for o in outcomes),
            "dynamic.repair_passes_total": sum(o.repair_passes for o in outcomes),
            "dynamic.blocking_pairs_final": len(engine.index),
            "eps": max((o.eps_after for o in outcomes), default=0.0),
            "matched_frac": matched_frac(
                final, [market.deg_man(m) for m in range(market.n_men)]
            ),
        }
        return Pass(
            op_s=op_s,
            calls=calls,
            attempted=len(outcomes),
            failed=failed,
            problems=problems,
            counters=counters,
            digest=matching_digest(final, [o.eps_after for o in outcomes]),
            layer=self.delta_stats(outcomes, calls),
            samples=self.delta_samples(outcomes),
        )

    @staticmethod
    def delta_stats(outcomes, calls: List[float]) -> Dict[str, float]:
        us = 1e6
        repair = sorted(c for o, c in zip(outcomes, calls) if not o.fallback)
        fallback = [c for o, c in zip(outcomes, calls) if o.fallback]
        stats = {
            "dynamic.repair_p50_us": percentile(repair, 50) * us,
            "dynamic.repair_p99_us": percentile(repair, 99) * us,
            "dynamic.fallback_ms": 1e3 * sum(fallback) / len(fallback) if fallback else 0.0,
            "dynamic.delta_p999_us": percentile(sorted(calls), 99.9) * us,
            "dynamic.delta_max_ms": max(calls, default=0.0) * 1e3,
        }
        for family in FAMILIES:
            lat = sorted(c for o, c in zip(outcomes, calls) if _FAMILY_OF[o.kind] == family)
            stats[f"dynamic.{family}_p50_us"] = percentile(lat, 50) * us
        n = max(1, len(outcomes))
        passes = sum(o.repair_passes for o in outcomes)
        stats["dynamic.region_players"] = sum(o.region_men + o.region_women for o in outcomes) / n
        stats["dynamic.repair_passes"] = passes / n
        stats["dynamic.marriages_per_pass"] = (
            sum(o.marriages for o in outcomes) / passes if passes else 0.0
        )
        return stats

    @staticmethod
    def delta_samples(outcomes) -> Dict[str, int]:
        fallbacks = sum(1 for o in outcomes if o.fallback)
        samples = {
            "dynamic.repair_p50_us": len(outcomes) - fallbacks,
            "dynamic.repair_p99_us": len(outcomes) - fallbacks,
            "dynamic.fallback_ms": fallbacks,
            "dynamic.delta_p999_us": len(outcomes),
            "dynamic.delta_max_ms": len(outcomes),
            "dynamic.region_players": len(outcomes),
            "dynamic.repair_passes": len(outcomes),
        }
        for family in FAMILIES:
            samples[f"dynamic.{family}_p50_us"] = sum(
                1 for o in outcomes if _FAMILY_OF[o.kind] == family
            )
        return samples


WORKLOADS = {w.name: w for w in (SolveBounded(), CongestSync(), CongestAsync(), DynamicChurn())}
