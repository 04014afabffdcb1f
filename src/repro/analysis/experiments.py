"""Experiment drivers: one per entry in DESIGN.md §3.

The paper is a theory paper — its "evaluation" is Theorems 1, 3–6 and
Lemmas 1–8.  Each driver here empirically validates one of those
claims, producing the rows a table/figure would contain plus a
pass/fail verdict on the claim.  ``benchmarks/`` runs these at bench
scale; :mod:`repro.cli` runs them at report scale; EXPERIMENTS.md
records paper-vs-measured.

All drivers are deterministic functions of their ``seed``.

Execution model (PR 4)
----------------------
Every driver declares its trial grid as self-contained
:class:`~repro.parallel.spec.TrialSpec` lists and executes them
through a :class:`~repro.parallel.pool.TrialPool` (``pool=`` keyword,
default: in-process serial).  Each spec names a top-level trial
function (``_trial_e1``, ...) dispatched by :func:`run_trial_spec`, so
worker processes can run any trial from the spec alone.  Results are
merged in spec order, which makes a driver's rows **bit-identical**
for any worker count; aggregation (means, bootstrap CIs, verdicts)
happens in the driver exactly as it did serially.  Per-trial seeds are
the same explicit arithmetic derivations as always (``seed + 1000*t``
etc.), carried inside the specs — never derived from worker identity
or submission order.  See ``docs/parallel.md``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stability import (
    find_eps_blocking_pairs,
    instability,
)
from repro.analysis.statistics import (
    bootstrap_ci,
    geometric_decay_rate,
    loglog_slope,
    mean,
)
from repro.analysis.tables import format_table
from repro.baselines.gale_shapley import (
    ROUNDS_PER_GS_ITERATION,
    gale_shapley,
    parallel_gale_shapley,
)
from repro.baselines.random_greedy import random_greedy_matching
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.core.almost_regular import almost_regular_asm
from repro.core.asm import ASMEngine, asm
from repro.core.preferences import PreferenceProfile
from repro.core.rand_asm import plan_rand_asm, rand_asm
from repro.core.rounds import ActualCost
from repro.graphs import bipartite_graph_from_edges
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.israeli_itai import (
    israeli_itai_maximal_matching,
    rounds_for_amm,
)
from repro.mm.oracles import (
    deterministic_oracle,
    greedy_oracle,
    israeli_itai_oracle,
    port_order_oracle,
)
from repro.mm.verify import is_maximal_matching, violating_vertices
from repro.parallel import TrialPool, TrialSpec
from repro.workloads.generators import (
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
    master_list,
)

__all__ = [
    "ExperimentResult",
    "WORKLOAD_FACTORIES",
    "TRIAL_RUNNER",
    "run_trial_spec",
    "experiment_e1_approximation",
    "experiment_e2_rounds_scaling",
    "experiment_e3_rand_asm",
    "experiment_e4_almost_regular",
    "experiment_e5_baselines",
    "experiment_e6_israeli_itai_decay",
    "experiment_e7_quantile_match",
    "experiment_e8_bad_men",
    "experiment_e9_good_men",
    "experiment_e10_amm",
    "experiment_e11_synchronous_time",
    "experiment_e12_decentralized_dynamics",
    "experiment_a1_quantile_sweep",
    "experiment_a2_mm_ablation",
    "experiment_a3_congest_validation",
    "experiment_a4_welfare",
    "experiment_a5_message_complexity",
    "ALL_EXPERIMENTS",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Rows + verdict for one experiment of DESIGN.md §3."""

    experiment_id: str
    title: str
    paper_claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    passed: bool = True
    notes: str = ""

    def table(self) -> str:
        """Render the result as an ASCII table with verdict footer."""
        header = f"[{self.experiment_id}] {self.title}\nclaim: {self.paper_claim}"
        body = format_table(self.rows)
        footer = f"verdict: {'PASS' if self.passed else 'FAIL'}"
        if self.notes:
            footer += f"  ({self.notes})"
        return "\n".join([header, body, footer])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe document: id, claim, rows, verdict, notes.

        Contains no wall-clock fields, so serial and ``--workers N``
        runs of the same experiment serialize byte-identically (the
        property the ``parallel-smoke`` CI job diffs).
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "rows": [dict(row) for row in self.rows],
            "passed": self.passed,
            "notes": self.notes,
        }

    def to_markdown(self) -> str:
        """Render the result as a GitHub-flavored markdown section."""
        from repro.analysis.tables import format_value

        lines = [
            f"## {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim:** {self.paper_claim}",
            "",
        ]
        if self.rows:
            columns = list(self.rows[0].keys())
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in self.rows:
                lines.append(
                    "| "
                    + " | ".join(
                        format_value(row.get(c, "-")) for c in columns
                    )
                    + " |"
                )
            lines.append("")
        verdict = "**PASS**" if self.passed else "**FAIL**"
        note = f" ({self.notes})" if self.notes else ""
        lines.append(f"Verdict: {verdict}{note}")
        return "\n".join(lines)


# Factories used across experiments: name -> (n, seed) -> profile.
WORKLOAD_FACTORIES: Dict[str, Callable[[int, int], PreferenceProfile]] = {
    "complete": lambda n, seed: complete_uniform(n, seed),
    "gnp25": lambda n, seed: gnp_incomplete(n, 0.25, seed),
    "bounded8": lambda n, seed: bounded_degree(n, 8, seed),
    "master10": lambda n, seed: master_list(n, 0.1, seed),
}

# ----------------------------------------------------------------------
# Spec plumbing: every experiment's trials execute through this runner.
# ----------------------------------------------------------------------

#: The runner reference every experiment spec carries.
TRIAL_RUNNER = "repro.analysis.experiments:run_trial_spec"


def _spec(
    kind: str,
    *,
    algorithm: str,
    workload: Optional[str] = None,
    n: Optional[int] = None,
    eps: Optional[float] = None,
    seed: Optional[int] = None,
    **params: Any,
) -> TrialSpec:
    """One experiment trial spec of the given ``kind``."""
    return TrialSpec.make(
        TRIAL_RUNNER,
        algorithm=algorithm,
        workload=workload,
        n=n,
        eps=eps,
        seed=seed,
        kind=kind,
        **params,
    )


def _run_specs(pool: Optional[TrialPool], specs: List[TrialSpec]) -> List[Any]:
    """Execute ``specs`` through ``pool`` (default: in-process serial)."""
    return (pool if pool is not None else TrialPool()).run(specs)


def run_trial_spec(spec: TrialSpec) -> Dict[str, Any]:
    """Dispatch one experiment trial spec to its trial function.

    This is the entry point worker processes resolve; it must stay a
    pure function of the spec (``docs/parallel.md`` determinism
    contract).
    """
    kind = spec.param("kind")
    try:
        trial = _TRIAL_FUNCS[kind]
    except KeyError:
        raise KeyError(
            f"unknown trial kind {kind!r}; known: {sorted(_TRIAL_FUNCS)}"
        ) from None
    return trial(spec)


# ----------------------------------------------------------------------
# E1 — Theorem 3: approximation guarantee
# ----------------------------------------------------------------------

def _trial_e1(spec: TrialSpec) -> Dict[str, Any]:
    prefs = WORKLOAD_FACTORIES[spec.workload](spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    return {
        "frac": instability(prefs, run.matching),
        "bad_frac": len(run.bad_men) / max(1, run.n_men),
    }


def experiment_e1_approximation(
    n_values: Sequence[int] = (32, 64, 128),
    eps_values: Sequence[float] = (0.1, 0.2, 0.4),
    workloads: Sequence[str] = ("complete", "gnp25"),
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Theorem 3: ASM's output has at most ``ε·|E|`` blocking pairs."""
    result = ExperimentResult(
        experiment_id="E1",
        title="ASM approximation guarantee",
        paper_claim="blocking pairs <= eps * |E| for all instances (Thm 3)",
    )
    grid = [
        (workload, n, eps)
        for workload in workloads
        for n in n_values
        for eps in eps_values
    ]
    specs = [
        _spec(
            "e1",
            algorithm="asm",
            workload=workload,
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
        )
        for (workload, n, eps) in grid
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for workload, n, eps in grid:
        cell = [next(outcomes) for _ in range(trials)]
        fracs = [c["frac"] for c in cell]
        bad_fracs = [c["bad_frac"] for c in cell]
        ok = all(frac <= eps + 1e-12 for frac in fracs)
        ci_lo, ci_hi = bootstrap_ci(fracs, seed=seed)
        result.rows.append(
            {
                "workload": workload,
                "n": n,
                "eps": eps,
                "instability_mean": mean(fracs),
                "instability_ci95_hi": ci_hi,
                "instability_max": max(fracs),
                "bad_men_frac": mean(bad_fracs),
                "within_eps": ok,
            }
        )
        result.passed = result.passed and ok
    return result


# ----------------------------------------------------------------------
# E2 — Theorem 4: round complexity scaling vs Gale–Shapley
# ----------------------------------------------------------------------

def _trial_e2(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    par = parallel_gale_shapley(prefs)
    return {
        "sched": run.rounds_scheduled,
        "act": run.rounds_active,
        "gs_rounds": par.rounds,
        "gs_props": gale_shapley(prefs).proposals,
    }


def experiment_e2_rounds_scaling(
    n_values: Sequence[int] = (32, 64, 128, 256),
    eps: float = 0.4,
    trials: int = 2,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Theorem 4: ASM scheduled rounds grow polylogarithmically.

    Compares ASM's scheduled (HKP-charged) and active rounds against
    distributed Gale–Shapley rounds and centralized GS proposals on the
    same instances.  The log-log slope separates polylog (≈0) from
    polynomial (≥1) growth.
    """
    result = ExperimentResult(
        experiment_id="E2",
        title="Round-complexity scaling: ASM vs Gale-Shapley",
        paper_claim="ASM: O(eps^-3 log^5 n) rounds; GS: ~n^2 proposals (Thm 4)",
    )
    specs = [
        _spec("e2", algorithm="asm", n=n, eps=eps, seed=seed + 1000 * t)
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    asm_sched, asm_act, gs_rounds, gs_props = [], [], [], []
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        sched = [c["sched"] for c in cell]
        act = [c["act"] for c in cell]
        gsr = [c["gs_rounds"] for c in cell]
        gsp = [c["gs_props"] for c in cell]
        asm_sched.append(mean(sched))
        asm_act.append(mean(act))
        gs_rounds.append(mean(gsr))
        gs_props.append(mean(gsp))
        result.rows.append(
            {
                "n": n,
                "asm_rounds_scheduled": mean(sched),
                "asm_rounds_active": mean(act),
                "gs_rounds": mean(gsr),
                "gs_proposals": mean(gsp),
                "log2^5(n)": math.log2(n) ** 5,
            }
        )
    slope_asm = loglog_slope(n_values, asm_act)
    slope_gs = loglog_slope(n_values, gs_props)
    result.notes = (
        f"loglog slopes: asm_active={slope_asm:.2f}, "
        f"gs_proposals={slope_gs:.2f}"
    )
    # ASM's active rounds must grow strictly slower than GS's work.
    result.passed = slope_asm < slope_gs and slope_asm < 1.0
    return result


# ----------------------------------------------------------------------
# E3 — Theorem 5: RandASM success probability and rounds
# ----------------------------------------------------------------------

def _trial_e3_plan(spec: TrialSpec) -> Dict[str, Any]:
    prefs0 = complete_uniform(spec.n, spec.seed)
    plan = plan_rand_asm(
        prefs0, spec.eps, spec.param("failure_prob")
    )
    return {"mm_iters": plan.iterations_per_call}


def _trial_e3(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = rand_asm(
        prefs,
        spec.eps,
        spec.param("failure_prob"),
        seed=spec.param("alg_seed"),
    )
    return {
        "frac": instability(prefs, run.matching),
        "sched": run.rounds_scheduled,
    }


def experiment_e3_rand_asm(
    n_values: Sequence[int] = (32, 64, 128),
    eps: float = 0.25,
    failure_prob: float = 0.1,
    trials: int = 5,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Theorem 5: RandASM is (1−ε)-stable w.p. ≥ 1−δ in O(log²) rounds."""
    result = ExperimentResult(
        experiment_id="E3",
        title="RandASM success probability and round growth",
        paper_claim=(
            "(1-eps)-stable w.p. >= 1-delta in O(eps^-3 log^2(n/d e^3)) "
            "rounds (Thm 5)"
        ),
    )
    specs: List[TrialSpec] = []
    for n in n_values:
        specs.append(
            _spec(
                "e3_plan",
                algorithm="rand-asm",
                n=n,
                eps=eps,
                seed=seed,
                failure_prob=failure_prob,
            )
        )
        specs.extend(
            _spec(
                "e3",
                algorithm="rand-asm",
                n=n,
                eps=eps,
                seed=seed + 1000 * t,
                failure_prob=failure_prob,
                alg_seed=seed + 7 * t,
            )
            for t in range(trials)
        )
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        plan = next(outcomes)
        cell = [next(outcomes) for _ in range(trials)]
        fracs = [c["frac"] for c in cell]
        scheds = [c["sched"] for c in cell]
        successes = sum(1 for frac in fracs if frac <= eps + 1e-12)
        success_rate = successes / trials
        result.rows.append(
            {
                "n": n,
                "mm_iters_per_call": plan["mm_iters"],
                "instability_mean": mean(fracs),
                "success_rate": success_rate,
                "rounds_scheduled": mean(scheds),
            }
        )
        result.passed = result.passed and success_rate >= 1 - failure_prob
    return result


# ----------------------------------------------------------------------
# E4 — Theorem 6: AlmostRegularASM O(1) rounds for complete preferences
# ----------------------------------------------------------------------

def _trial_e4(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = almost_regular_asm(
        prefs,
        spec.eps,
        spec.param("failure_prob"),
        seed=spec.param("alg_seed"),
    )
    return {
        "frac": instability(prefs, run.matching),
        "sched": run.rounds_scheduled,
        "act": run.rounds_active,
    }


def experiment_e4_almost_regular(
    n_values: Sequence[int] = (32, 64, 128, 256),
    eps: float = 0.3,
    failure_prob: float = 0.1,
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Theorem 6: rounds independent of n on complete preferences."""
    result = ExperimentResult(
        experiment_id="E4",
        title="AlmostRegularASM constant rounds (complete prefs, alpha=1)",
        paper_claim="O(alpha eps^-3 log(alpha/(delta eps))) rounds, no n (Thm 6)",
    )
    specs = [
        _spec(
            "e4",
            algorithm="almost-regular-asm",
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
            failure_prob=failure_prob,
            alg_seed=seed + 7 * t,
        )
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    scheduled_seen = set()
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        fracs = [c["frac"] for c in cell]
        scheds = [c["sched"] for c in cell]
        acts = [c["act"] for c in cell]
        ok = all(frac <= eps + 1e-12 for frac in fracs)
        scheduled_seen.add(scheds[0])
        result.rows.append(
            {
                "n": n,
                "instability_mean": mean(fracs),
                "rounds_scheduled": mean(scheds),
                "rounds_active": mean(acts),
                "within_eps": ok,
            }
        )
        result.passed = result.passed and ok
    # The scheduled budget is a pure function of (alpha, eps, delta):
    # it must be identical across n.
    if len(scheduled_seen) != 1:
        result.passed = False
        result.notes = "scheduled rounds varied with n"
    else:
        result.notes = "scheduled rounds identical across all n"
    return result


# ----------------------------------------------------------------------
# E5 — Introduction comparison: ASM vs (truncated) Gale–Shapley
# ----------------------------------------------------------------------

def _trial_e5(spec: TrialSpec) -> Dict[str, Any]:
    prefs = WORKLOAD_FACTORIES[spec.workload](spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    budget = max(1, run.rounds_active // ROUNDS_PER_GS_ITERATION)
    tgs = parallel_gale_shapley(prefs, max_iterations=budget)
    full = parallel_gale_shapley(prefs)
    greedy = random_greedy_matching(prefs, spec.param("greedy_seed"))
    return {
        "asm": instability(prefs, run.matching),
        "asm_rounds": run.rounds_active,
        "tgs": instability(prefs, tgs.matching),
        "gs_rounds": full.rounds,
        "greedy": instability(prefs, greedy.matching),
    }


def experiment_e5_baselines(
    n: int = 128,
    eps: float = 0.2,
    workloads: Sequence[str] = ("complete", "gnp25", "bounded8", "master10"),
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Head-to-head: ASM vs full GS vs truncated GS vs random greedy.

    Truncated GS gets the same active-round budget ASM used (converted
    to GS iterations), reproducing the introduction's framing: for
    unbounded lists no prior sub-polynomial algorithm achieves ASM's
    instability at comparable budgets.
    """
    result = ExperimentResult(
        experiment_id="E5",
        title="Baseline comparison at matched round budgets",
        paper_claim=(
            "ASM reaches eps-instability in polylog rounds; truncated GS "
            "only matches it for bounded lists ([3], intro)"
        ),
    )
    specs = [
        _spec(
            "e5",
            algorithm="asm",
            workload=workload,
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
            greedy_seed=seed + t,
        )
        for workload in workloads
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for workload in workloads:
        cell = [next(outcomes) for _ in range(trials)]
        asm_mean = mean([c["asm"] for c in cell])
        result.rows.append(
            {
                "workload": workload,
                "asm_instability": asm_mean,
                "asm_rounds_active": mean([c["asm_rounds"] for c in cell]),
                "truncgs_instability_same_budget": mean(
                    [c["tgs"] for c in cell]
                ),
                "full_gs_rounds": mean([c["gs_rounds"] for c in cell]),
                "random_greedy_instability": mean(
                    [c["greedy"] for c in cell]
                ),
            }
        )
        result.passed = result.passed and asm_mean <= eps + 1e-12
    return result


# ----------------------------------------------------------------------
# E6 — Lemma 8 / Corollary 1: Israeli–Itai geometric decay
# ----------------------------------------------------------------------

def _trial_e6(spec: TrialSpec) -> Dict[str, Any]:
    prefs = gnp_incomplete(spec.n, spec.param("edge_prob"), spec.seed)
    graph = bipartite_graph_from_edges(
        prefs.iter_edges(), prefs.n_men, prefs.n_women
    )
    rng = random.Random(spec.param("rng_seed"))
    mm = israeli_itai_maximal_matching(graph, rng)
    start = graph.num_nodes - len(
        [v for v in graph.nodes() if graph.degree(v) == 0]
    )
    return {
        "maximal": is_maximal_matching(graph, mm.partner),
        "decay": geometric_decay_rate([start] + mm.per_iteration_active),
        "iters": len(mm.per_iteration_active),
    }


def experiment_e6_israeli_itai_decay(
    n_values: Sequence[int] = (64, 128, 256),
    edge_prob: float = 0.1,
    trials: int = 5,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Lemma 8: E|V₁| ≤ c·|V₀| for an absolute constant c < 1."""
    result = ExperimentResult(
        experiment_id="E6",
        title="Israeli-Itai active-vertex decay and maximality",
        paper_claim="E|V_1| <= c|V_0|, c < 1; maximal in O(log n) rounds (Lem 8)",
    )
    specs = [
        _spec(
            "e6",
            algorithm="israeli-itai",
            n=n,
            seed=seed + 1000 * t,
            edge_prob=edge_prob,
            rng_seed=seed + 31 * t,
        )
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        decays = [c["decay"] for c in cell]
        iter_counts = [c["iters"] for c in cell]
        all_maximal = all(c["maximal"] for c in cell)
        result.rows.append(
            {
                "n": n,
                "decay_c": mean(decays),
                "iterations_mean": mean(iter_counts),
                "log2(n)": math.log2(n),
                "all_maximal": all_maximal,
            }
        )
        result.passed = (
            result.passed and all_maximal and mean(decays) < 0.9
        )
    return result


# ----------------------------------------------------------------------
# E7 — Lemma 2: QuantileMatch guarantee
# ----------------------------------------------------------------------

def _trial_e7(spec: TrialSpec) -> Dict[str, Any]:
    prefs = WORKLOAD_FACTORIES[spec.workload](spec.n, spec.seed)
    try:
        run = asm(prefs, spec.eps, check_invariants=True)
    except Exception:  # invariant violation
        return {"violated": True, "qm_calls": None}
    return {
        "violated": False,
        "qm_calls": run.quantile_match_calls_executed,
    }


def experiment_e7_quantile_match(
    n_values: Sequence[int] = (32, 64),
    eps: float = 0.25,
    workloads: Sequence[str] = ("complete", "gnp25"),
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Lemma 2: A = ∅ for every man after each QuantileMatch.

    Runs ASM with internal invariant checking enabled (the engine
    raises on any violation) and reports per-run QuantileMatch counts.
    """
    result = ExperimentResult(
        experiment_id="E7",
        title="QuantileMatch guarantee (Lemma 2)",
        paper_claim="after QuantileMatch every man has A = empty (Lem 2)",
    )
    grid = [(workload, n) for workload in workloads for n in n_values]
    specs = [
        _spec(
            "e7",
            algorithm="asm",
            workload=workload,
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
        )
        for (workload, n) in grid
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for workload, n in grid:
        cell = [next(outcomes) for _ in range(trials)]
        violations = sum(1 for c in cell if c["violated"])
        qm_calls = [c["qm_calls"] for c in cell if not c["violated"]]
        result.rows.append(
            {
                "workload": workload,
                "n": n,
                "violations": violations,
                "qm_calls_executed_mean": mean(qm_calls),
            }
        )
        result.passed = result.passed and violations == 0
    return result


# ----------------------------------------------------------------------
# E8 — Lemma 6: few bad men after each inner loop
# ----------------------------------------------------------------------

def _trial_e8(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    worst = 0.0
    for it in run.outer_iterations:
        worst = max(worst, it.lemma6_bad_fraction)
    return {"delta": run.delta, "worst": worst}


def experiment_e8_bad_men(
    n_values: Sequence[int] = (64, 128),
    eps: float = 0.4,
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Lemma 6: at most a δ-fraction of participating men end bad."""
    result = ExperimentResult(
        experiment_id="E8",
        title="Bad-men fraction after each inner loop (Lemma 6)",
        paper_claim="<= delta fraction of active men bad per outer iter (Lem 6)",
    )
    specs = [
        _spec("e8", algorithm="asm", n=n, eps=eps, seed=seed + 1000 * t)
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        worst = max(c["worst"] for c in cell)
        worst = max(worst, 0.0)
        delta = cell[0]["delta"]
        result.rows.append(
            {
                "n": n,
                "delta": delta,
                "worst_bad_fraction": worst,
                "within_delta": worst <= delta + 1e-12,
            }
        )
        result.passed = result.passed and worst <= delta + 1e-12
    return result


# ----------------------------------------------------------------------
# E9 — Lemma 3 / Remark 2: good men and (2/k)-blocking pairs
# ----------------------------------------------------------------------

def _trial_e9(spec: TrialSpec) -> Dict[str, Any]:
    prefs = WORKLOAD_FACTORIES[spec.workload](spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    pairs = find_eps_blocking_pairs(prefs, run.matching, 2.0 / run.k)
    return {
        "pairs": len(pairs),
        "good_incident": sum(
            1 for (m, _w) in pairs if m in run.good_men
        ),
        "good_frac": run.good_fraction,
    }


def experiment_e9_good_men(
    n_values: Sequence[int] = (32, 64),
    eps: float = 0.25,
    workloads: Sequence[str] = ("complete", "gnp25"),
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Lemma 3: no good man is in a (2/k)-blocking pair.

    Also validates Remark 2: after removing the bad men, the matching
    is (2/k)-blocking-stable for the remaining players.
    """
    result = ExperimentResult(
        experiment_id="E9",
        title="Good men vs (2/k)-blocking pairs (Lemma 3, Remark 2)",
        paper_claim="(2/k)-blocking pairs only touch bad men (Lem 3)",
    )
    grid = [(workload, n) for workload in workloads for n in n_values]
    specs = [
        _spec(
            "e9",
            algorithm="asm",
            workload=workload,
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
        )
        for (workload, n) in grid
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for workload, n in grid:
        cell = [next(outcomes) for _ in range(trials)]
        total_pairs = sum(c["pairs"] for c in cell)
        good_incident = sum(c["good_incident"] for c in cell)
        good_frac = [c["good_frac"] for c in cell]
        result.rows.append(
            {
                "workload": workload,
                "n": n,
                "k_blocking_pairs": total_pairs,
                "incident_to_good_men": good_incident,
                "good_men_fraction": mean(good_frac),
            }
        )
        result.passed = result.passed and good_incident == 0
    return result


# ----------------------------------------------------------------------
# E10 — Corollary 2: AMM almost-maximality
# ----------------------------------------------------------------------

def _trial_e10(spec: TrialSpec) -> Dict[str, Any]:
    prefs = gnp_incomplete(spec.n, spec.param("edge_prob"), spec.seed)
    graph = bipartite_graph_from_edges(
        prefs.iter_edges(), prefs.n_men, prefs.n_women
    )
    rng = random.Random(spec.param("rng_seed"))
    mm = israeli_itai_maximal_matching(
        graph, rng, max_iterations=spec.param("budget")
    )
    frac = len(violating_vertices(graph, mm.partner)) / max(
        1, graph.num_nodes
    )
    return {"frac": frac}


def experiment_e10_amm(
    n_values: Sequence[int] = (64, 128, 256),
    eta: float = 0.05,
    delta: float = 0.1,
    edge_prob: float = 0.1,
    trials: int = 10,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Corollary 2: AMM(η, δ) is (1−η)-maximal w.p. ≥ 1−δ, rounds ∤ n."""
    result = ExperimentResult(
        experiment_id="E10",
        title="AMM almost-maximal matching (Corollary 2)",
        paper_claim="(1-eta)-maximal w.p. >= 1-delta in O(log 1/(eta delta))",
    )
    budget = rounds_for_amm(eta, delta)
    specs = [
        _spec(
            "e10",
            algorithm="israeli-itai",
            n=n,
            seed=seed + 1000 * t,
            edge_prob=edge_prob,
            rng_seed=seed + 13 * t,
            budget=budget,
        )
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        violator_fracs = [c["frac"] for c in cell]
        successes = sum(1 for frac in violator_fracs if frac <= eta)
        rate = successes / trials
        result.rows.append(
            {
                "n": n,
                "iterations_budget": budget,
                "violator_frac_mean": mean(violator_fracs),
                "success_rate": rate,
            }
        )
        result.passed = result.passed and rate >= 1 - delta
    return result


# ----------------------------------------------------------------------
# E11 — Remark 4: sub-quadratic synchronous run-time
# ----------------------------------------------------------------------

def _trial_e11(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    return {"sync": run.synchronous_time}


def _trial_e11_adversarial(spec: TrialSpec) -> Dict[str, Any]:
    from repro.workloads.generators import adversarial_gale_shapley

    adv = parallel_gale_shapley(adversarial_gale_shapley(spec.n))
    return {"sync": adv.synchronous_time}


def experiment_e11_synchronous_time(
    n_values: Sequence[int] = (32, 64, 128, 256),
    eps: float = 0.4,
    trials: int = 2,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Remark 4: ASM's synchronous run-time is Õ(n), sub-quadratic.

    "Synchronous time" sums, over executed rounds, the busiest single
    processor's local work.  Distributed GS pays Θ̃(n²) on adversarial
    instances (one woman processes Θ(n) suitors for Θ(n) rounds);
    ASM's quantized proposals keep per-processor work near-linear in
    total.  The claim is the log-log slope: ASM ≈ 1 (linear), GS
    adversarial ≈ 2 (quadratic).
    """
    result = ExperimentResult(
        experiment_id="E11",
        title="Synchronous run-time: ASM is sub-quadratic (Remark 4)",
        paper_claim="ASM synchronous run-time ~ n polylog(n); GS ~ n^2 (Rem 4)",
    )
    specs: List[TrialSpec] = []
    for n in n_values:
        specs.extend(
            _spec(
                "e11", algorithm="asm", n=n, eps=eps, seed=seed + 1000 * t
            )
            for t in range(trials)
        )
        specs.append(
            _spec("e11_adversarial", algorithm="gale-shapley", n=n)
        )
    outcomes = iter(_run_specs(pool, specs))
    asm_sync, gs_adv_sync = [], []
    for n in n_values:
        sync = [next(outcomes)["sync"] for _ in range(trials)]
        adv_sync = next(outcomes)["sync"]
        asm_sync.append(mean(sync))
        gs_adv_sync.append(adv_sync)
        result.rows.append(
            {
                "n": n,
                "asm_sync_time": mean(sync),
                "gs_adversarial_sync_time": adv_sync,
                "n^2": n * n,
            }
        )
    slope_asm = loglog_slope(n_values, asm_sync)
    slope_gs = loglog_slope(n_values, gs_adv_sync)
    result.notes = (
        f"loglog slopes: asm={slope_asm:.2f}, gs_adversarial={slope_gs:.2f}"
    )
    result.passed = slope_asm < 1.6 and slope_gs > 1.7
    return result


# ----------------------------------------------------------------------
# E12 — decentralized dynamics baseline (Eriksson–Häggström [2])
# ----------------------------------------------------------------------

def _trial_e12(spec: TrialSpec) -> Dict[str, Any]:
    from repro.baselines.random_dynamics import better_response_dynamics

    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    dyn = better_response_dynamics(
        prefs,
        seed=spec.param("dyn_seed"),
        history_stride=1,
        max_steps=10 * prefs.num_edges,
    )
    # Steps until the dynamics first reaches eps-instability — the
    # quality ASM guarantees in polylog coordinated rounds.
    threshold = spec.eps * prefs.num_edges
    reach = next(
        (i for i, b in enumerate(dyn.blocking_history) if b <= threshold),
        dyn.steps,
    )
    return {
        "asm_rounds": run.rounds_active,
        "steps": dyn.steps,
        "converged": dyn.converged,
        "final_instab": instability(prefs, dyn.matching),
        "reach": reach,
    }


def experiment_e12_decentralized_dynamics(
    n_values: Sequence[int] = (16, 32, 64),
    eps: float = 0.2,
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Context for Definition 1: uncoordinated better-response dynamics.

    Eriksson–Häggström [2] (the source of the paper's instability
    measure) study decentralized markets where random blocking pairs
    marry.  The process converges (Roth–Vande Vate) but takes many
    *inherently sequential* steps; ASM reaches ε-instability in polylog
    coordinated rounds.  We report steps-to-stability of the dynamics,
    the step count at which it first reaches ASM's achieved
    instability, and ASM's active rounds.
    """
    result = ExperimentResult(
        experiment_id="E12",
        title="Decentralized better-response dynamics vs ASM",
        paper_claim=(
            "(context for Def. 1, refs [2]) sequential dynamics converge "
            "slowly; ASM coordinates to eps-instability in polylog rounds"
        ),
    )
    specs = [
        _spec(
            "e12",
            algorithm="asm",
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
            dyn_seed=seed + 31 * t,
        )
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    dyn_series, asm_series = [], []
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        steps_list = [c["steps"] for c in cell]
        to_eps_quality = [c["reach"] for c in cell]
        asm_rounds = [c["asm_rounds"] for c in cell]
        final_instab = [c["final_instab"] for c in cell]
        all_converged = all(c["converged"] for c in cell)
        dyn_series.append(mean(to_eps_quality))
        asm_series.append(mean(asm_rounds))
        result.rows.append(
            {
                "n": n,
                "dynamics_steps_to_stable": mean(steps_list),
                "dynamics_steps_to_eps": mean(to_eps_quality),
                "dynamics_final_instability": mean(final_instab),
                "asm_rounds_active": mean(asm_rounds),
                "all_converged": all_converged,
            }
        )
    # The sequentiality gap is in the *scaling*: each dynamics step
    # satisfies one pair, so clearing the Θ(|E|) = Θ(n²) initial
    # blocking pairs takes polynomially growing sequential steps, while
    # ASM's coordinated rounds grow polylogarithmically.
    slope_dyn = loglog_slope(n_values, dyn_series)
    slope_asm = loglog_slope(n_values, asm_series)
    result.passed = slope_dyn > slope_asm and slope_dyn > 0.8
    notes = [
        f"loglog slopes: dynamics_steps_to_eps={slope_dyn:.2f}, "
        f"asm_rounds={slope_asm:.2f}"
    ]
    if not all(row["all_converged"] for row in result.rows):
        notes.append(
            "dynamics hit its step budget on some instances without "
            "reaching stability — the slow-convergence phenomenon [2]"
        )
    result.notes = "; ".join(notes)
    return result


# ----------------------------------------------------------------------
# A1 — ablation: quantile count k
# ----------------------------------------------------------------------

def _trial_a1(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    # Fix delta so only k varies.
    engine = ASMEngine(
        prefs, eps=spec.eps, k=spec.param("k"), delta=spec.param("delta")
    )
    run = engine.run()
    return {
        "frac": instability(prefs, run.matching),
        "act": run.rounds_active,
    }


def experiment_a1_quantile_sweep(
    n: int = 128,
    k_values: Sequence[int] = (2, 4, 8, 16, 32),
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Ablation: k controls the instability/round trade-off.

    Larger k = finer quantiles = fewer blocking pairs from good men
    (≤ 4|E|/k) but a longer schedule.  k = deg degenerates to
    Gale–Shapley behavior (remark after Algorithm 1).
    """
    result = ExperimentResult(
        experiment_id="A1",
        title="Quantile-count ablation",
        paper_claim="good-men blocking pairs <= 4|E|/k (Lem 4); rounds ~ k^3",
    )
    specs = [
        _spec(
            "a1",
            algorithm="asm",
            n=n,
            eps=0.5,
            seed=seed + 1000 * t,
            k=k,
            delta=0.1,
        )
        for k in k_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for k in k_values:
        cell = [next(outcomes) for _ in range(trials)]
        fracs = [c["frac"] for c in cell]
        acts = [c["act"] for c in cell]
        result.rows.append(
            {
                "k": k,
                "instability_mean": mean(fracs),
                "bound_4_over_k": 4.0 / k,
                "rounds_active": mean(acts),
            }
        )
    # The Lemma-4 bound must hold for every k (bad men add delta-term).
    for row in result.rows:
        if row["instability_mean"] > row["bound_4_over_k"] + 0.1 + 1e-9:
            result.passed = False
    return result


# ----------------------------------------------------------------------
# A2 — ablation: maximal-matching subroutine choice
# ----------------------------------------------------------------------

#: Oracle construction lives in the trial (factories close over the
#: trial's seed and are not picklable; names are).
_A2_ORACLES: Dict[str, Callable[[int], Any]] = {
    "deterministic": lambda _seed: deterministic_oracle(),
    "port_order": lambda _seed: port_order_oracle(),
    "israeli_itai": lambda oracle_seed: israeli_itai_oracle(oracle_seed),
    "greedy_centralized": lambda _seed: greedy_oracle(),
}


def _trial_a2(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    oracle = _A2_ORACLES[spec.param("oracle")](spec.param("oracle_seed"))
    run = asm(prefs, spec.eps, mm_oracle=oracle, mm_cost_model=ActualCost())
    return {
        "frac": instability(prefs, run.matching),
        "act": run.rounds_active,
    }


def experiment_a2_mm_ablation(
    n: int = 96,
    eps: float = 0.25,
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Ablation: ASM's guarantee holds for any exact maximal-matching oracle.

    Quality must be eps-bounded for all oracles; simulated subroutine
    rounds differ (deterministic pointer vs Israeli–Itai vs free
    centralized greedy).
    """
    result = ExperimentResult(
        experiment_id="A2",
        title="Maximal-matching oracle ablation inside ASM",
        paper_claim="Thm 3 needs only maximality, not a specific algorithm",
    )
    oracle_names = list(_A2_ORACLES)
    specs = [
        _spec(
            "a2",
            algorithm="asm",
            n=n,
            eps=eps,
            seed=seed + 1000 * t,
            oracle=name,
            oracle_seed=seed + t,
        )
        for name in oracle_names
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for name in oracle_names:
        cell = [next(outcomes) for _ in range(trials)]
        fracs = [c["frac"] for c in cell]
        acts = [c["act"] for c in cell]
        ok = all(frac <= eps + 1e-12 for frac in fracs)
        result.rows.append(
            {
                "oracle": name,
                "instability_mean": mean(fracs),
                "rounds_active": mean(acts),
                "within_eps": ok,
            }
        )
        result.passed = result.passed and ok
    return result


# ----------------------------------------------------------------------
# A4 — extension: rank welfare of ASM's output
# ----------------------------------------------------------------------

def _trial_a4(spec: TrialSpec) -> Dict[str, Any]:
    from repro.analysis.welfare import welfare_report

    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    rep = welfare_report(prefs, run.matching)
    return {
        "men": rep.men_rank,
        "women": rep.women_rank,
        "men_opt": rep.men_rank_man_optimal,
        "women_opt": rep.women_rank_man_optimal,
        # Sanity bracket: the man-optimal anchor is at least as good
        # for men as ASM (it is best-for-men among stable matchings
        # and ASM is near-stable).
        "ok": rep.men_rank_man_optimal <= rep.men_rank + 1.0,
    }


def experiment_a4_welfare(
    n: int = 96,
    eps: float = 0.25,
    trials: int = 3,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Extension: where does ASM's matching sit in the stable lattice?

    The man-proposing structure suggests ASM should favor men relative
    to the woman-optimal stable matching; quantization blunts the
    advantage relative to full man-optimal GS.  Not a paper claim —
    characterization only; the pass criterion is just that welfare is
    bracketed sanely (men do no better than man-optimal GS on average).
    """
    result = ExperimentResult(
        experiment_id="A4",
        title="Rank welfare: ASM vs stable-lattice anchors (extension)",
        paper_claim="(extension; no paper claim) characterize mean ranks",
    )
    eps_runs = (eps, 2 * eps)
    specs = [
        _spec(
            "a4", algorithm="asm", n=n, eps=eps_run, seed=seed + 1000 * t
        )
        for eps_run in eps_runs
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    for eps_run in eps_runs:
        cell = [next(outcomes) for _ in range(trials)]
        ok = all(c["ok"] for c in cell)
        result.rows.append(
            {
                "eps": eps_run,
                "asm_men_rank": mean([c["men"] for c in cell]),
                "asm_women_rank": mean([c["women"] for c in cell]),
                "gs_men_rank (man-opt)": mean([c["men_opt"] for c in cell]),
                "gs_women_rank (man-opt)": mean(
                    [c["women_opt"] for c in cell]
                ),
                "bracket_ok": ok,
            }
        )
        result.passed = result.passed and ok
    return result


# ----------------------------------------------------------------------
# A5 — extension: message complexity
# ----------------------------------------------------------------------

def _trial_a5(spec: TrialSpec) -> Dict[str, Any]:
    prefs = complete_uniform(spec.n, spec.seed)
    run = asm(prefs, spec.eps)
    gs = parallel_gale_shapley(prefs)
    return {
        "per_edge": run.messages.total / prefs.num_edges,
        "k": run.k,
        "gs_per_edge": gs.proposals / prefs.num_edges,
    }


def experiment_a5_message_complexity(
    n_values: Sequence[int] = (32, 64, 128, 256),
    eps: float = 0.25,
    trials: int = 2,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Extension: total algorithm messages, normalized by |E|.

    ASM trades rounds for messages: men propose to whole quantiles, so
    an edge can carry several PROPOSEs before resolving.  The total
    stays within a small factor of |E| (each edge is rejected at most
    once, and repeat proposals are bounded by the QuantileMatch
    schedule), while Gale–Shapley sends at most one proposal per edge
    plus responses.  Pass criterion: ASM's messages-per-edge stays
    bounded (≤ 2k) and grows at most polylogarithmically in n.
    """
    result = ExperimentResult(
        experiment_id="A5",
        title="Message complexity per communication-graph edge (extension)",
        paper_claim="(extension) ASM messages = O(|E|) up to k/polylog factors",
    )
    specs = [
        _spec("a5", algorithm="asm", n=n, eps=eps, seed=seed + 1000 * t)
        for n in n_values
        for t in range(trials)
    ]
    outcomes = iter(_run_specs(pool, specs))
    ratios = []
    for n in n_values:
        cell = [next(outcomes) for _ in range(trials)]
        per_edge = [c["per_edge"] for c in cell]
        gs_per_edge = [c["gs_per_edge"] for c in cell]
        k_used = cell[-1]["k"]
        ratios.append(mean(per_edge))
        result.rows.append(
            {
                "n": n,
                "asm_messages_per_edge": mean(per_edge),
                "gs_proposals_per_edge": mean(gs_per_edge),
                "bound_2k": 2 * (k_used or 0),
            }
        )
        result.passed = result.passed and mean(per_edge) <= 2 * (k_used or 1)
    slope = loglog_slope(n_values, ratios)
    result.notes = f"loglog slope of asm messages/edge: {slope:.2f}"
    result.passed = result.passed and slope < 0.5
    return result


# ----------------------------------------------------------------------
# A3 — CONGEST protocol validation
# ----------------------------------------------------------------------

def _trial_a3(spec: TrialSpec) -> Dict[str, Any]:
    from repro.congest.protocols.asm_protocol import (
        run_congest_almost_regular_asm,
    )

    n, eps = spec.n, spec.eps
    prefs = complete_uniform(n, spec.seed)
    k, inner, outer, mm_iters = 4, 6, 4, 2 * n
    congest = run_congest_asm(
        prefs,
        eps,
        k=k,
        inner_iterations=inner,
        outer_iterations=outer,
        mm_iterations=mm_iters,
    )
    engine = ASMEngine(
        prefs,
        eps,
        k=k,
        inner_iterations=inner,
        outer_iterations=outer,
        mm_oracle=lambda g: deterministic_maximal_matching(
            g, max_iterations=mm_iters
        ),
    )
    logical = engine.run()
    equal = congest.matching == logical.matching
    # AlmostRegularASM variant: deliberately weak matching budget so
    # the MM_FREE removal path actually fires, then compare exactly.
    ar_congest = run_congest_almost_regular_asm(
        prefs,
        eps,
        quantile_match_iterations=inner,
        mm_iterations=1,
        mm_kind="pointer",
    )
    ar_engine = ASMEngine(
        prefs,
        eps,
        k=ar_congest.schedule.k,
        mm_oracle=lambda g: deterministic_maximal_matching(
            g, max_iterations=1
        ),
        remove_unmatched_violators=True,
    )
    ar_equal = ar_congest.matching == ar_engine.run_flat(inner).matching
    return {
        "equal": equal,
        "ar_equal": ar_equal,
        "congest_rounds": congest.stats.rounds,
        "messages": congest.stats.messages,
        "total_bits": congest.stats.total_bits,
        "max_message_bits": congest.stats.max_message_bits,
    }


def experiment_a3_congest_validation(
    n_values: Sequence[int] = (6, 8),
    eps: float = 0.5,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """The message-level protocol equals the logical engine exactly.

    Also verifies the CONGEST constraints: every message within the
    O(log n) bit cap (enforced by the simulator — a violation raises).
    """
    result = ExperimentResult(
        experiment_id="A3",
        title="CONGEST message-level protocols vs logical engine",
        paper_claim="ASM is a CONGEST protocol with O(log n)-bit messages",
    )
    specs = [
        _spec("a3", algorithm="congest-asm", n=n, eps=eps, seed=seed + n)
        for n in n_values
    ]
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        c = next(outcomes)
        result.rows.append(
            {
                "n": n,
                "asm_identical": c["equal"],
                "almost_regular_identical": c["ar_equal"],
                "congest_rounds": c["congest_rounds"],
                "messages": c["messages"],
                "total_bits": c["total_bits"],
                "max_message_bits": c["max_message_bits"],
            }
        )
        result.passed = result.passed and c["equal"] and c["ar_equal"]
    return result


# ----------------------------------------------------------------------
# FAULTS — robustness of the CONGEST protocol under injected faults
# ----------------------------------------------------------------------

#: The fault profiles the robustness experiment sweeps, in row order.
_FAULT_PROFILES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("baseline", {"use_plan": False}),
    ("zero-rate", {}),
    ("drop", {"drop_rate": 0.1}),
    ("delay+dup", {"delay_rate": 0.1, "duplicate_rate": 0.1}),
    ("crash", {"crash_nodes": 1, "crash_round": 5}),
)


def _trial_faults(spec: TrialSpec) -> Dict[str, Any]:
    from repro.faults.harness import run_fault_trial

    return run_fault_trial(spec)


def experiment_faults_robustness(
    n_values: Sequence[int] = (6, 8),
    eps: float = 0.5,
    seed: int = 0,
    fault_seed: int = 7,
    pool: Optional[TrialPool] = None,
) -> ExperimentResult:
    """Graceful degradation of message-level ASM under injected faults.

    Sweeps the profiles of :data:`_FAULT_PROFILES` on pinned instances.
    Pass criteria: (1) the zero-rate :class:`~repro.faults.plan.FaultPlan`
    run is *identical* to the plan-free baseline — same matching, same
    round/message counts, empty fault trace — so the injection hook is
    provably inert when idle; (2) every faulty run still yields a
    well-formed result: a mutual matching plus explicit unresolved
    nodes covering everything the matching misses, with retry-driven
    recovery visible where it occurred.
    """
    result = ExperimentResult(
        experiment_id="FAULTS",
        title="CONGEST ASM robustness under injected faults (extension)",
        paper_claim=(
            "(extension) fault-free behaviour is untouched by the "
            "injection layer; faulty runs degrade gracefully"
        ),
    )
    specs = [
        _spec(
            "faults",
            algorithm="congest-asm",
            n=n,
            eps=eps,
            seed=seed + n,
            fault_seed=fault_seed,
            **profile,
        )
        for n in n_values
        for _, profile in _FAULT_PROFILES
    ]
    outcomes = iter(_run_specs(pool, specs))
    for n in n_values:
        cells = {
            name: next(outcomes) for name, _ in _FAULT_PROFILES
        }
        zero_identical = cells["zero-rate"] == cells["baseline"]
        for name, _ in _FAULT_PROFILES:
            c = cells[name]
            matched_men = {m for m, _w in c["matching"]}
            well_formed = (
                c["outcome"] in ("converged", "degraded", "timeout")
                and not (matched_men & set(c["unresolved_men"]))
                and matched_men | set(c["unresolved_men"]) <= set(range(n))
            )
            result.rows.append(
                {
                    "n": n,
                    "profile": name,
                    "outcome": c["outcome"],
                    "matched": len(c["matching"]),
                    "unresolved": len(c["unresolved_men"])
                    + len(c["unresolved_women"]),
                    "instability": c["instability"],
                    "dropped": c["dropped"],
                    "delayed": c["delayed"],
                    "duplicated": c["duplicated"],
                    "retries": c["retries"],
                    "zero_rate_identical": zero_identical
                    if name == "zero-rate"
                    else "-",
                }
            )
            result.passed = result.passed and well_formed
        result.passed = result.passed and zero_identical
    return result


#: Trial dispatch table for :func:`run_trial_spec`.
_TRIAL_FUNCS: Dict[str, Callable[[TrialSpec], Dict[str, Any]]] = {
    "e1": _trial_e1,
    "e2": _trial_e2,
    "e3": _trial_e3,
    "e3_plan": _trial_e3_plan,
    "e4": _trial_e4,
    "e5": _trial_e5,
    "e6": _trial_e6,
    "e7": _trial_e7,
    "e8": _trial_e8,
    "e9": _trial_e9,
    "e10": _trial_e10,
    "e11": _trial_e11,
    "e11_adversarial": _trial_e11_adversarial,
    "e12": _trial_e12,
    "a1": _trial_a1,
    "a2": _trial_a2,
    "a3": _trial_a3,
    "a4": _trial_a4,
    "a5": _trial_a5,
    "faults": _trial_faults,
}


ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "e1": experiment_e1_approximation,
    "e2": experiment_e2_rounds_scaling,
    "e3": experiment_e3_rand_asm,
    "e4": experiment_e4_almost_regular,
    "e5": experiment_e5_baselines,
    "e6": experiment_e6_israeli_itai_decay,
    "e7": experiment_e7_quantile_match,
    "e8": experiment_e8_bad_men,
    "e9": experiment_e9_good_men,
    "e10": experiment_e10_amm,
    "e11": experiment_e11_synchronous_time,
    "e12": experiment_e12_decentralized_dynamics,
    "a1": experiment_a1_quantile_sweep,
    "a2": experiment_a2_mm_ablation,
    "a3": experiment_a3_congest_validation,
    "a4": experiment_a4_welfare,
    "a5": experiment_a5_message_complexity,
    "faults": experiment_faults_robustness,
}


def run_experiment(name: str, **kwargs: Any) -> ExperimentResult:
    """Run a registered experiment by id (case-insensitive).

    ``pool=`` (a :class:`~repro.parallel.pool.TrialPool`) shards the
    experiment's trial grid across processes; omitted, trials run
    serially in-process with identical results.
    """
    key = name.lower()
    if key not in ALL_EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(ALL_EXPERIMENTS)}"
        )
    return ALL_EXPERIMENTS[key](**kwargs)
