"""Run every workload, untraced then traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Each run is its own process, one at a time, so ``peak_rss_mb`` belongs to
one workload.  Prints every end-to-end metric by name with its unit and
sample count, ``failed_frac`` (failed / attempted verdicts), the per-layer
self times and counters of the traced run, how the self times add up to the
pass time, and the tracing overhead (traced against untraced verdicts_per_s).
Exits non-zero if any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    all_correct = True
    for w in spec["workloads"]:
        name = w["name"]
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        print(f"== {name}: {w['why']}")
        print(f"   {plain['attempted']} verdicts (samples), {plain['failed']} failed, "
              f"failed_frac = {plain['failed'] / plain['attempted']:g}")
        for key, m in plain["metrics"].items():
            print(f"   {key:<18} {m['value']:12.4f} {m['unit']}")
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        print("   per layer, traced run, per pass:")
        for key, m in traced["metrics"].items():
            if m["value"]:
                print(f"     {key:<46} {m['value']:14.3f} {m['unit']}")
        spans_ms = sum(v for k, v in layers.items()
                       if k.endswith(".ms") and not k.startswith("trace."))
        print(f"   layer self times {spans_ms:.1f} ms + harness "
              f"{layers['trace.harness.ms']:.1f} ms = pass {layers['trace.pass.ms']:.1f} ms")
        untraced_vps = plain["metrics"]["verdicts_per_s"]["value"]
        traced_vps = layers["trace.verdicts_per_s"]
        print(f"   tracing overhead: {traced_vps:.3f} verdicts/s traced against "
              f"{untraced_vps:.3f} untraced ({traced_vps / untraced_vps - 1:+.1%})")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
