"""Run one workload of the abslog benchmark and print its metrics.

    python3 perfbench/run.py --workload builtins --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src`` and
the builtin specs are read from ``specs``.  One process runs one workload,
single-threaded.  Set-up (a fresh import of abslog plus building the
workload's inputs from the seed) is repeated and its median reported; then
warm-up passes run and are discarded, and whole passes over the job list run
until ``--seconds`` have elapsed.  Every verdict is checked against the
known answer.  The last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` records a span
around every call into the program and reports per-layer self times and
counters per pass; the spans are written to ``perfbench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import known
from perfbench.probe import SpeedClock
from perfbench.trace import NullTracer, Tracer
from perfbench.workloads import ROOT, WORKLOADS, SetupError, import_program

SETUP_REPEATS = 7
WARMUP_SECONDS = 1.0
OUT_DIR = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# span name -> metric "<span>.ms"; README.md says what each should move
LAYER_SPANS = (
    "proofengine.engine_init",
    "proofengine.saturate",
    "proofengine.build_lindenbaum",
    "proofengine.verify_isomorphism",
    "proofengine.verify_soundness",
    "proofengine.verify_completeness",
    "proofengine.derivable",
    "logicgen.generate_proof_system",
    "logicgen.render",
    "logicgen.parse_machine",
    "logicgen.minimize_proof_system",
    "specfile.load",
    "specfile.emit",
    "concrete.preservation_report",
    "concrete.check_order_embedding",
    "octagon.export_abstraction",
    "octagon.verify_irreducibility",
    "octagon.conjunction_nonpreservation_witness",
    "cartesian.product",
    "cartesian.product_embedding_criterion",
    "cartesian.check_galois",
    "cartesian.check_iota_preserves_meets",
    "cartesian.check_iota_injective_on_nonempty",
)

# counters, summed per pass
LAYER_COUNTS = (
    "proofengine.generators",
    "proofengine.lindenbaum.classes",
    "proofengine.soundness.generators_checked",
    "proofengine.soundness.cells_checked",
    "proofengine.soundness.replays_checked",
    "proofengine.completeness.pairs_checked",
    "proofengine.derivable.calls",
    "logicgen.rules",
    "logicgen.minimize.oracle_calls",
    "logicgen.minimize.removed",
    "cartesian.checked",
)

PER_LAYER = {
    **{f"{name}.ms": "ms" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "logicgen.minimize.removed_per_call": "ratio",
    "trace.pass.ms": "ms",
    "trace.harness.ms": "ms",
    "trace.verdicts_per_s": "1/s",
    "trace.spans": "count",
}


def setup(workload: str, seed: int, clock: SpeedClock):
    """Import the program afresh and build the inputs, SETUP_REPEATS times;
    returns the last job list and the median rescaled set-up time in s."""
    build = WORKLOADS[workload][0]
    times = []
    for _ in range(SETUP_REPEATS):
        clock.checkpoint(force=True)
        start = clock.scaled_s
        jobs = build(import_program(fresh=True), seed)
        clock.checkpoint(force=True)
        times.append(clock.scaled_s - start)
    return jobs, statistics.median(times)


def run_verdict(job, tracer) -> bool:
    """One job to its checked answer; False if it raised or answered wrong."""
    try:
        facts = tracer.call("verdict", job.run, tracer)
        expected = known.KNOWN[job.name]
        wrong = {k: facts.get(k) for k, v in expected.items() if facts.get(k) != v}
    except Exception:  # a verdict that raises counts as failed; keep measuring
        print(f"{job.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
        return False
    if wrong:
        print(f"{job.name}: answer differs from the known one: {wrong}", file=sys.stderr)
    return not wrong


class Measurement:
    """Verdicts of one run, each timed on the speed clock."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.verdict_ms: list[float] = []   # rescaled to the reference speed
        self.factors: list[float] = []      # rescaled over wall time, per verdict
        self.wall_s = 0.0
        self.failed = 0

    def run_pass(self, tracer) -> None:
        clock = tracer.clock
        for job in self.jobs:
            tracer.verdict = len(self.verdict_ms)
            clock.checkpoint(force=True)
            scaled, wall = clock.scaled_s, clock.wall()
            ok = run_verdict(job, tracer)
            clock.checkpoint(force=True)
            scaled, wall = clock.scaled_s - scaled, clock.wall() - wall
            self.verdict_ms.append(scaled * 1000.0)
            self.factors.append(scaled / wall)
            self.wall_s += wall
            self.failed += not ok

    @property
    def passes(self) -> int:
        return len(self.verdict_ms) // len(self.jobs)


def measure(jobs, seconds: float, traced: bool, clock: SpeedClock,
            warmup_s: float = WARMUP_SECONDS):
    """Discarded warm-up passes for ``warmup_s``, then whole passes until
    ``seconds`` of wall time have elapsed (at least one)."""
    new_tracer = Tracer if traced else NullTracer
    warm = Measurement(jobs)
    while warm.wall_s < warmup_s:
        warm.run_pass(new_tracer(clock))
    del warm
    gc.collect()
    m, tracer = Measurement(jobs), new_tracer(clock)
    deadline = perf_counter() + seconds
    while True:
        m.run_pass(tracer)
        if perf_counter() >= deadline:
            return m, tracer


def end_to_end(m: Measurement, setup_s: float) -> dict[str, float]:
    deciles = statistics.quantiles(m.verdict_ms, n=10)
    return {
        "setup_s": setup_s,
        "verdict_ms.p50": deciles[4],
        "verdict_ms.p90": deciles[8],
        "verdicts_per_s": len(m.verdict_ms) * 1000.0 / sum(m.verdict_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(m: Measurement, tracer: Tracer) -> dict[str, float]:
    """Self times and counters per pass, rescaled like the verdicts."""
    passes = m.passes
    self_s = tracer.self_times(m.factors)
    unknown = set(self_s) - set(LAYER_SPANS) - {"verdict"}
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    pass_ms = sum(m.verdict_ms) / passes
    out = {f"{name}.ms": self_s.get(name, 0.0) * 1000.0 / passes for name in LAYER_SPANS}
    out.update({name: tracer.counts.get(name, 0) / passes for name in LAYER_COUNTS})
    calls = tracer.counts.get("logicgen.minimize.oracle_calls", 0)
    out["logicgen.minimize.removed_per_call"] = (
        tracer.counts.get("logicgen.minimize.removed", 0) / calls if calls else 0.0)
    out["trace.pass.ms"] = pass_ms
    # everything outside the layer spans: job bodies, answer checks, tracing
    out["trace.harness.ms"] = pass_ms - sum(out[f"{name}.ms"] for name in LAYER_SPANS)
    out["trace.verdicts_per_s"] = len(m.jobs) * 1000.0 / pass_ms
    out["trace.spans"] = len(tracer.spans) / passes
    return out


def write_spans(workload: str, seed: int, jobs, m: Measurement, tracer: Tracer) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.json"
    names = [job.name for job in jobs]
    verdicts = [[vid, vid // len(jobs), names[vid % len(jobs)]]
                for vid in range(len(m.verdict_ms))]
    with path.open("w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "verdict"],
                   "verdicts": verdicts, "speed_factors": m.factors,
                   "spans": tracer.spans}, f,
                  separators=(",", ":"))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = SpeedClock()
    try:
        jobs, setup_s = setup(args.workload, args.seed, clock)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    m, tracer = measure(jobs, args.seconds, traced=bool(args.trace), clock=clock)
    if args.trace:
        metrics, units = per_layer(m, tracer), PER_LAYER
        print(f"spans written to {write_spans(args.workload, args.seed, jobs, m, tracer)}",
              file=sys.stderr)
    else:
        metrics, units = end_to_end(m, setup_s), END_TO_END
    print(f"{args.workload}: {m.passes} passes, {len(m.verdict_ms)} verdicts "
          f"(the timing samples), {m.failed} failed, {m.wall_s:.1f} s of wall time, "
          f"median speed factor {statistics.median(m.factors):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": len(m.verdict_ms),
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
