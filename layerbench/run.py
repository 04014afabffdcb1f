"""Layered benchmark of the ASM reproduction.

Run from the repository root::

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``cases.py`` and ``provenance.json``): ``solve_bounded``,
``congest_sync``, ``congest_async``, ``dynamic_churn``.  One process,
one closed-loop client, no threads.

``--trace 0`` measures the end-to-end metrics with nothing observing
the program: the workload is set up and its operation run, pass after
pass, for ``--seconds`` of wall time (at least three passes per
instance); cheap setups are repeated within each pass.  Timings are
scaled to a reference machine speed measured by a fixed probe loop
around each pass, and are the lower quartile of their samples: of the
setups, of the operations, and of each pass's own call-latency p50 and
p99.

``--trace 1`` gives the per-layer metrics from single passes in one
process, in this order: a pass recording the ``ru_maxrss`` growth of
each layer call; a pass with one span per layer call under a root span
(self times, the ``unattributed`` bucket, spans written to
``.layerbench/``); a pass with the program's own tracing on
(``Telemetry.tracing(CausalTracer(), PhaseProfiler())``); an
untraced pass, the base of both overhead ratios; and a child
process that repeats that pass under another ``PYTHONHASHSEED``, must
reproduce every deterministic counter, and takes the ``tracemalloc``
peak of each layer call in :data:`ALLOC_LAYERS`.

Every pass checks the workload's outputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the names and units listed in ``BENCHMARK.json``); the
line before it is a human-readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from layers import (
    AllocRecorder,
    Recorder,
    RssRecorder,
    SpanRecorder,
    attribution_error,
    max_rss_mb,
    percentile,
)

ROOT = Path(__file__).resolve().parent.parent
# The machine's speed swings by up to 1.7x, over seconds and over
# minutes.  End-to-end timings are therefore scaled to the speed at
# which probe() takes PROBE_REF_S, using probes right around each pass,
# and are the lower quartile of a run's scaled samples.
PROBE_REF_S = 0.005
TIME_QUANTILE = 25
MIN_PASSES = 3
SETUP_PER_PASS_S = 0.05
CHILD_TIMEOUT_S = 100
# Layers whose calls the traced run's child wraps in tracemalloc.
ALLOC_LAYERS = (
    "workloads.generate", "preferences.build",
    "vec.compile", "vec.solve", "vec.verify", "asm.reference",
    "matching.validate", "dynamic.warm_start", "dynamic.index_verify",
)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bootstrap() -> None:
    """Import the program from ``src/``; exit 2 if it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401  (the vec engine needs it)
        import repro  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"layerbench: cannot import the program from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)


def determinism_problems(passes: List[Any]) -> List[str]:
    first = passes[0]
    return [
        f"pass {i} differs from pass 0: {p.counters} / {p.digest} vs "
        f"{first.counters} / {first.digest}"
        for i, p in enumerate(passes[1:], start=1)
        if (p.counters, p.digest) != (first.counters, first.digest)
    ]


def instance_seed(workload: Any, seed: int, instance: int) -> int:
    """Generator seed of a workload's ``instance`` under ``--seed seed``."""
    return seed * workload.instances + instance


def timed_pass(
    workload: Any, seed: int, rec: Any, telemetry: Any = None, instance: int = 0,
) -> Tuple[float, Any]:
    t0 = perf_counter()
    state = workload.setup(instance_seed(workload, seed, instance), rec, telemetry)
    setup_s = perf_counter() - t0
    result = workload.run(state, rec, telemetry)
    del state
    gc.collect()
    return setup_s, result


def low(values: List[float]) -> float:
    return percentile(sorted(values), TIME_QUANTILE)


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for i in range(40_000):
        table[i & 1023] = i
        total += table[(i * 7) & 1023]
    return perf_counter() - t0


def measure(workload: Any, seed: int, seconds: float):
    """End-to-end metrics, nothing observing the program.

    Passes (setup, then the operation) repeat until ``seconds`` of wall
    time have gone, each of the workload's instances in turn, at least
    :data:`MIN_PASSES` times each.  Each pass repeats a cheap setup
    until the pass has spent :data:`SETUP_PER_PASS_S` on it, so setup
    samples are spread over the whole run like the operation's.

    A :func:`probe` just before and just after each pass gives the
    machine's speed during it; the pass's timings are scaled by
    ``PROBE_REF_S / probe`` to seconds at the reference speed.  A
    timing is the mean over instances of each one's lower quartile of
    scaled samples.
    """
    rec = Recorder()
    k = workload.instances
    setups: List[List[float]] = [[] for _ in range(k)]
    passes: List[Any] = []
    scales: List[float] = []
    probes: List[float] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES * k or perf_counter() - start < seconds:
        j = len(passes) % k
        before = probe()
        setup_s, result = timed_pass(workload, seed, rec, instance=j)
        pass_setups = [setup_s]
        while sum(pass_setups) < SETUP_PER_PASS_S:
            t0 = perf_counter()
            workload.setup(instance_seed(workload, seed, j), rec, None)
            pass_setups.append(perf_counter() - t0)
        probes += [before, probe()]
        scale = PROBE_REF_S / statistics.fmean(probes[-2:])
        setups[j] += [s * scale for s in pass_setups]
        scales.append(scale)
        passes.append(result)
    per_pass = {
        "solve_s": lambda p: p.op_s,
        "call_p50_us": lambda p: percentile(sorted(p.calls), 50) * 1e6,
        "call_p99_us": lambda p: percentile(sorted(p.calls), 99) * 1e6,
    }
    by_instance = [passes[j::k] for j in range(k)]
    metrics = {
        name: statistics.fmean(
            low([of(p) * scale for p, scale in zip(by_instance[j], scales[j::k])])
            for j in range(k)
        )
        for name, of in per_pass.items()
    }
    metrics.update({
        "setup_s": statistics.fmean(low(group) for group in setups),
        "peak_rss_mb": max_rss_mb(),
        "matched_frac": statistics.fmean(g[0].counters["matched_frac"] for g in by_instance),
    })
    calls = sum(len(p.calls) for p in passes)
    samples = {
        "setup_s": sum(len(group) for group in setups), "solve_s": len(passes),
        "peak_rss_mb": 1, "matched_frac": len(passes),
        "call_p50_us": calls, "call_p99_us": calls,
    }
    problems = [msg for group in by_instance for msg in determinism_problems(group)]
    return passes, metrics, samples, problems, statistics.median(probes)


def program_tracing():
    from repro.obs.telemetry import Telemetry
    from repro.trace import CausalTracer, PhaseProfiler

    tracer, profiler = CausalTracer(), PhaseProfiler()
    return tracer, profiler, Telemetry.tracing(tracer, profiler)


def pinned(result: Any, tracer: Any, profiler: Any) -> Dict[str, Any]:
    """The deterministic outputs of a program-tracing pass."""
    counters = dict(result.counters)
    counters["trace.records"] = len(tracer.records) + len(profiler.records)
    return {"counters": counters, "digest": result.digest}


def pin_counters(workload: Any, seed: int) -> None:
    """Child mode of the traced run: pins plus ``tracemalloc`` peaks.

    Runs the program-tracing pass again, in this fresh process under
    another ``PYTHONHASHSEED``, with ``tracemalloc`` around the calls
    to :data:`ALLOC_LAYERS`; prints one JSON line.
    """
    tracer, profiler, telemetry = program_tracing()
    alloc = AllocRecorder(ALLOC_LAYERS)
    _, result = timed_pass(workload, seed, alloc, telemetry)
    print(json.dumps({
        "pins": pinned(result, tracer, profiler),
        "alloc_peak_mb": alloc.alloc_peak_mb,
    }, sort_keys=True))


def run_child(workload: Any, seed: int) -> Tuple[str, Dict[str, Any], List[str]]:
    """Start :func:`pin_counters` under a ``PYTHONHASHSEED`` unlike ours."""
    mine = os.environ.get("PYTHONHASHSEED", "random")
    other = "1" if mine == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=other)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(seed), "--seconds", "0", "--trace", "0", "--pin-counters",
    ]
    label = f"PYTHONHASHSEED {mine} vs {other}"
    proc = subprocess.run(
        cmd, env=env, cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        return label, {}, [f"child under {label} failed ({proc.returncode}): {proc.stderr[-2000:]}"]
    return label, json.loads(proc.stdout.strip().splitlines()[-1]), []


def traced(workload: Any, seed: int):
    """Per-layer metrics (see the module docstring for the passes)."""
    rss = RssRecorder()
    _, first = timed_pass(workload, seed, rss)

    spans = SpanRecorder(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    holder: List[Any] = []
    spans.root(lambda: holder.append(timed_pass(workload, seed, spans)[1]))
    spanned = holder[0]
    problems = [p for p in [attribution_error(spans)] if p]

    tracer, profiler, telemetry = program_tracing()
    _, traced_result = timed_pass(workload, seed, Recorder(), telemetry)
    pins = pinned(traced_result, tracer, profiler)

    # The overhead ratios compare warm passes: the first pass of a
    # process pays for page faults and first calls.
    _, plain = timed_pass(workload, seed, Recorder())

    passes = [first, spanned, traced_result, plain]
    problems += determinism_problems(passes)
    hash_label, child, child_problems = run_child(workload, seed)
    problems += child_problems
    if child and child["pins"] != json.loads(json.dumps(pins)):
        problems.append(f"pins differ under {hash_label}: {child['pins']} vs {pins}")

    self_times = spans.self_times()
    root_s = spans.root_seconds()
    layer: Dict[str, float] = {f"{name}_s": value for name, value in self_times.items()}
    layer["trace.root_s"] = root_s
    layer["unattributed_frac"] = self_times.get("unattributed", 0.0) / root_s
    for name, value in rss.rss_delta_mb.items():
        layer[f"{name}.rss_delta_mb"] = value
    for name, value in child.get("alloc_peak_mb", {}).items():
        layer[f"{name}.alloc_peak_mb"] = value
    layer.update(phase_metrics(profiler))
    layer.update(first.counters)
    layer.update(first.layer)
    layer.pop("matched_frac")  # an end-to-end metric
    layer["trace.records"] = pins["counters"]["trace.records"]
    layer["trace.overhead_ratio"] = traced_result.op_s / plain.op_s
    layer["bench.span_overhead_ratio"] = spanned.op_s / plain.op_s

    out_dir = ROOT / ".layerbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": spans.spans, "self_s": self_times, "root_s": root_s}, fh)
    return passes, layer, problems, hash_label


def phase_metrics(profiler: Any) -> Dict[str, float]:
    """``asm.phase.*`` wall times from the program's own profiler."""
    totals: Dict[str, float] = {}
    for record in profiler.records:
        totals[record["name"]] = totals.get(record["name"], 0.0) + record["dur"] / 1e6
    phases = {
        name: totals.get(f"asm.phase.{name}", 0.0)
        for name in ("propose", "accept_reject", "maximal_matching")
    }
    solve = totals.get("asm.outer_iteration", 0.0)
    out = {f"asm.phase.{name}_s": value for name, value in phases.items()}
    out["asm.phase.unattributed_frac"] = 1.0 - sum(phases.values()) / solve if solve else 0.0
    return out


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    from cases import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-counters", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.pin_counters:
        pin_counters(workload, args.seed)
        return 0

    spec = load_spec()
    if args.trace:
        passes, computed, problems, hash_label = traced(workload, args.seed)
        wanted = spec["per_layer"]
        samples = {name: 1 for name in computed}
        samples.update(passes[0].samples)
        extra = f"; {hash_label}"
        unknown = sorted(set(computed) - {m["name"] for m in wanted})
        if unknown:
            raise SystemExit(f"layerbench: metrics missing from BENCHMARK.json: {unknown}")
    else:
        passes, computed, samples, problems, probe_s = measure(
            workload, args.seed, args.seconds
        )
        wanted = spec["end_to_end"]
        extra = f"; probe median {probe_s * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:g} ms)"
    metrics = {
        m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems] + problems
    for msg in problems:
        sys.stderr.write(f"layerbench: check failed: {msg}\n")
    outputs = " ".join(
        f"{name}={fmt(passes[0].counters[name])}"
        for name in ("eps", "congest.unresolved_men")
        if name in passes[0].counters
    )
    tally = " ".join(
        f"{name}={fmt(m['value'])}{m['unit']}(n={samples.get(name, 0)})"
        for name, m in metrics.items()
    )
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"ops attempted={attempted} ok={attempted - failed} failed={failed} "
        f"checks={'ok' if not problems else f'{len(problems)} failed'}{extra} "
        f"outputs: {outputs} | {tally}"
    )
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
