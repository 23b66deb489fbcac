"""Dr.Fix end-to-end benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {evaluate,detect,serve} --seed N \\
        --seconds S --trace {0,1} [--serve-rate R]

Each repetition runs in a fresh interpreter (``perfbench/worker.py``) until
``--seconds`` are used up; the numbers below are medians over repetitions or
percentiles over the pooled samples.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics; with ``--trace 1`` the runs
alternate untraced and traced repetitions and carry the per-layer metrics.
Every end-to-end metric is measured on every workload; ``METRICS.md`` says
what each one means there.  The command exits non-zero when any correctness
check fails, and without a result when the program is not present.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from layers import share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("evaluate", "detect", "serve")
#: The whole run must end within this many seconds, hung repetitions included.
RUN_DEADLINE_S = 170.0


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``' exclusive
    method); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    index = min(max(int(round(fraction * 100)) - 1, 0), len(cuts) - 1)
    return cuts[index]


def run_rep(args: argparse.Namespace, rep: int, traced: bool,
            timeout_s: float) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its raw samples.

    ``rep`` selects the repetition's inputs (see ``workloads.rep_seed``).
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("DRFIX_")}
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--rep", str(rep), "--trace", "1" if traced else "0",
               "--serve-rate", repr(args.serve_rate),
               "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout_s)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "ops_per_s": statistics.median(
            share(rep["completed"], rep["wall_s"])
            for rep in reps),
        "p50_ms": percentile(latencies, 0.50),
        "quality_share": share(sum(rep["good"] for rep in reps),
                               sum(rep["graded"] for rep in reps)),
        "within_limit_share": share(sum(rep["within"] for rep in reps),
                                    sum(rep["attempted"] for rep in reps)),
    }


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics: Dict[str, float] = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    latencies = [ms for rep in plain for ms in rep["latencies_ms"]]
    metrics["ops.p90_ms"] = percentile(latencies, 0.90)
    metrics["ops.samples"] = len(latencies)
    waits = [ms for rep in traced for ms in rep.get("waits_ms", [])]
    metrics["service.wait_ms.p50"] = percentile(waits, 0.50)
    metrics["service.wait_ms.p90"] = percentile(waits, 0.90)
    kinds: Dict[str, List[float]] = {"warm": [], "detect": [], "fix": []}
    lateness = [ms for rep in plain for ms in rep.get("lateness_ms", [])]
    for rep in plain:
        for kind, values in rep.get("kinds_ms", {}).items():
            kinds[kind].extend(values)
    for kind, label in (("fix", "fix_cold"), ("detect", "detect_cold"), ("warm", "warm")):
        metrics[f"serve.{label}.p50_ms"] = percentile(kinds[kind], 0.50)
        metrics[f"serve.{label}.p90_ms"] = percentile(kinds[kind], 0.90)
    metrics["serve.lateness.p50_ms"] = percentile(lateness, 0.50)
    metrics["serve.lateness.max_ms"] = max(lateness, default=0.0)

    def cpu_per_op(reps: List[Dict[str, Any]]) -> float:
        return statistics.median(rep["cpu_s"] / rep["attempted"] for rep in reps)

    metrics["trace.overhead_share"] = cpu_per_op(traced) / cpu_per_op(plain) - 1.0
    return metrics


def check(args: argparse.Namespace, reps: List[Dict[str, Any]]) -> List[str]:
    """Failed correctness checks over all repetitions of this run."""
    failures = [message for rep in reps for message in rep["checks"]]
    for rep in reps:
        if rep.get("missing"):
            failures.append("traced entry points predicted for this workload "
                            f"recorded no call: {', '.join(rep['missing'])}")
    if args.workload == "evaluate":
        if len({rep["digest"] for rep in reps}) != 1:
            failures.append("the rendered evaluate report differs between "
                            "repetitions of the same seed")
        if len({(rep["good"], rep["graded"]) for rep in reps}) != 1:
            failures.append("the full-arm fix rate differs between repetitions")
    return failures


def report(args: argparse.Namespace, reps: List[Dict[str, Any]],
           metrics: Dict[str, float]) -> None:
    """Human-readable lines: every timing with its sample count."""
    samples = sum(len(rep["latencies_ms"]) for rep in reps)
    latencies = [ms for rep in reps if not rep["traced"] for ms in rep["latencies_ms"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetition(s), "
          f"{samples} timed operations; untraced p50 {percentile(latencies, 0.5):.3f} ms, "
          f"p90 {percentile(latencies, 0.9):.3f} ms over {len(latencies)} samples")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g}")
    for index, rep in enumerate(reps):
        for case_id in rep.get("mismatches", []):
            print(f"  rep {index}: verdict mismatch: {case_id}")
        for kind, values in sorted(rep.get("kinds_ms", {}).items()):
            print(f"  rep {index}: {kind} {len(values)} samples, p50 "
                  f"{percentile(values, 0.5):.3f} ms, p90 {percentile(values, 0.9):.3f} ms")
        if rep.get("lateness_ms"):
            print(f"  rep {index}: generator lateness p50 "
                  f"{percentile(rep['lateness_ms'], 0.5):.3f} ms, "
                  f"max {max(rep['lateness_ms']):.3f} ms")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, default=10.0,
                        help="open-loop arrival rate of the serve workload (req/s)")
    args = parser.parse_args(argv)
    launched = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"drfix benchmark: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile the bytecode up front so no repetition pays for it in set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, capture_output=True)

    reps: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        # A traced run pairs each traced repetition with an untraced one on
        # the same inputs, so the two differ only by the tracing.
        tracing = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, len(reps) // 2 if args.trace else len(reps),
                            traced=tracing,
                            timeout_s=RUN_DEADLINE_S - (began - launched)))
        elapsed = time.monotonic() - start
        if args.trace and len(reps) < 2:
            continue
        if elapsed >= args.seconds - 0.5 * (time.monotonic() - began):
            break

    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain)
    failures = check(args, reps)
    report(args, reps, end_to_end(plain) if args.trace else metrics)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"]
             for entry in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           "measured or declared, not both")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
