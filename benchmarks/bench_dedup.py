"""Schedule-class dedup benchmark: class counts, detection, and throughput.

Measures what the schedule-space dedup layer buys on validator-shaped
workloads and emits the ``BENCH_dedup.json`` artifact:

* **classes** — per template case: seeded runs vs distinct schedule
  equivalence classes (the detector's refined HB+access trace hash) and the
  in-sweep dedup rate (fraction of runs that replayed an already-explored
  class); the corpus-wide rate is the headline statistic motivating
  novelty-guided budget reallocation;
* **detection** — detection probability (fraction of (case, seed) sweeps
  that raced) per run budget, dedup ON vs OFF.  Dedup must not change any
  verdict: the two columns are asserted equal sweep-for-sweep, not just in
  aggregate;
* **throughput** — the repeated-validation workload (the fix loop
  re-validating candidates against the same case): ``repeat_calls``
  successive harness invocations of one configuration.  The OFF arm pays the
  full run budget every call; the ON arm warms the schedule-class index on
  the first call and saturates early on the rest.  Detection outcomes
  (race-pair hash sets) are asserted identical between arms;
* **counters** — the registry totals (classes explored, runs deduped and
  skipped, PCT prefix rejections, saturation stops) for the whole benchmark,
  the same numbers ``drfix bench`` and ``GET /metrics`` export.

Run standalone to (re)generate the artifact::

    PYTHONPATH=src python benchmarks/bench_dedup.py --output BENCH_dedup.json

or as a pytest smoke (used by CI) that gates the corpus-wide dedup rate and
the repeated-validation speedup::

    python -m pytest benchmarks/bench_dedup.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.corpus.generator import CorpusConfig, CorpusGenerator  # noqa: E402
from repro.runtime.harness import run_package_tests  # noqa: E402
from repro.runtime.schedule_index import SCHEDULE_CLASS_REGISTRY  # noqa: E402

#: The repeated-validation workload: one configuration validated this many
#: times in a row (the fix loop's shape — every candidate patch re-runs the
#: same detection sweep).
REPEAT_CALLS = 6
RUNS_PER_CALL = 16
#: Saturation patience for the ON arm: stop a sweep after this many
#: consecutive runs with no novel class or prefix.
SATURATION_AFTER = 2
#: Run budgets for the detection-probability curve.
BUDGETS = (2, 4, 8, 16)
DETECTION_SEEDS = (0, 7, 19)
TRIALS = 5


def _representative_cases(dataset):
    """One case per race category (the corpus templates), stable order."""
    picks = {}
    for case in dataset.evaluation:
        picks.setdefault(str(case.category), case)
    return list(picks.values())


def _class_stats(case) -> dict:
    """One full-budget sweep: distinct classes and the in-sweep dedup rate."""
    SCHEDULE_CLASS_REGISTRY.clear()
    result = run_package_tests(case.package, runs=RUNS_PER_CALL, dedup="on")
    return {
        "category": str(case.category),
        "runs": result.runs,
        "distinct_classes": result.schedule_classes,
        "runs_deduped": result.runs_deduped,
        "dedup_rate": round(result.runs_deduped / result.runs, 4)
        if result.runs else 0.0,
    }


def _detection_curve(cases) -> list:
    """Detection probability per run budget, dedup ON vs OFF.

    ON and OFF sweeps are compared verdict-for-verdict: dedup reallocates
    budget, it never changes what a given budget detects."""
    curve = []
    for budget in BUDGETS:
        raced_on = raced_off = mismatches = 0
        sweeps = 0
        for case in cases:
            for seed in DETECTION_SEEDS:
                off = run_package_tests(case.package, runs=budget, seed=seed,
                                        dedup="off")
                SCHEDULE_CLASS_REGISTRY.clear()
                on = run_package_tests(case.package, runs=budget, seed=seed,
                                       dedup="on")
                sweeps += 1
                raced_off += bool(off.reports)
                raced_on += bool(on.reports)
                mismatches += off.race_hashes() != on.race_hashes()
        curve.append({
            "runs": budget,
            "sweeps": sweeps,
            "detection_probability_off": round(raced_off / sweeps, 4),
            "detection_probability_on": round(raced_on / sweeps, 4),
            "verdict_mismatches": mismatches,
        })
    return curve


def _time_repeated_validation(case, dedup: str, trials: int) -> tuple[float, frozenset]:
    """Best-of-``trials`` wall time for the repeated-validation workload.

    The ON arm's first call runs the full budget with saturation disabled —
    a cold index has no basis for calling a novelty streak "saturated", and
    an early stop there can genuinely miss a late-budget class.  The
    re-validations saturate against the warmed index, and their merged
    verdicts cover every memoized class, so per-call detection matches the
    full-budget sweep."""
    best = float("inf")
    hashes: frozenset = frozenset()
    for _ in range(trials):
        SCHEDULE_CLASS_REGISTRY.clear()
        start = time.perf_counter()
        collected = set()
        for call in range(REPEAT_CALLS):
            saturation = SATURATION_AFTER if dedup == "on" and call else 0
            result = run_package_tests(
                case.package, runs=RUNS_PER_CALL,
                dedup=dedup, saturation_after=saturation)
            collected.update(result.race_hashes())
        best = min(best, time.perf_counter() - start)
        hashes = frozenset(collected)
    return best, hashes


def run_benchmark(scale: float = 1.0, trials: int = TRIALS) -> dict:
    dataset = CorpusGenerator(CorpusConfig().scaled(scale)).generate()
    cases = _representative_cases(dataset)

    report: dict = {
        "schema": "drfix-bench-dedup/1",
        "workload": {
            "repeat_calls": REPEAT_CALLS,
            "runs_per_call": RUNS_PER_CALL,
            "saturation_after": SATURATION_AFTER,
            "budgets": list(BUDGETS),
            "detection_seeds": list(DETECTION_SEEDS),
            "trials": trials,
            "corpus_scale": scale,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": {},
    }

    total_runs = total_deduped = total_classes = 0
    for case in cases:
        stats = _class_stats(case)
        report["cases"][case.case_id] = stats
        total_runs += stats["runs"]
        total_deduped += stats["runs_deduped"]
        total_classes += stats["distinct_classes"]
    report["classes"] = {
        "runs": total_runs,
        "distinct_classes": total_classes,
        "runs_deduped": total_deduped,
        "dedup_rate": round(total_deduped / total_runs, 4) if total_runs else 0.0,
    }

    report["detection"] = _detection_curve(cases)

    throughput = []
    off_total_s = on_total_s = 0.0
    for case in cases:
        off_s, off_hashes = _time_repeated_validation(case, "off", trials)
        on_s, on_hashes = _time_repeated_validation(case, "on", trials)
        throughput.append({
            "case": case.case_id,
            "off_seconds": round(off_s, 6),
            "on_seconds": round(on_s, 6),
            "speedup": round(off_s / on_s, 3) if on_s else None,
            "detection_identical": off_hashes == on_hashes,
        })
        off_total_s += off_s
        on_total_s += on_s
    report["throughput"] = {
        "per_case": throughput,
        "off_seconds": round(off_total_s, 6),
        "on_seconds": round(on_total_s, 6),
        "validations_per_sec_off": round(
            len(cases) * REPEAT_CALLS / off_total_s, 3) if off_total_s else None,
        "validations_per_sec_on": round(
            len(cases) * REPEAT_CALLS / on_total_s, 3) if on_total_s else None,
        "speedup": round(off_total_s / on_total_s, 3) if on_total_s else None,
        "detection_identical": all(t["detection_identical"] for t in throughput),
    }
    report["counters"] = SCHEDULE_CLASS_REGISTRY.stats()
    SCHEDULE_CLASS_REGISTRY.clear()
    return report


# ---------------------------------------------------------------------------
# pytest smoke (CI): dedup rate and repeated-validation speedup gates.
# ---------------------------------------------------------------------------


def test_bench_dedup_smoke():
    import os

    artifact = os.environ.get("DRFIX_DEDUP_BENCH_ARTIFACT", "")
    if artifact and Path(artifact).exists():
        # CI writes the artifact in the preceding step; reuse it instead of
        # re-measuring the whole workload.
        report = json.loads(Path(artifact).read_text())
    else:
        report = run_benchmark(scale=0.05, trials=2)
    classes = report["classes"]
    assert classes["distinct_classes"] > 0
    assert classes["runs_deduped"] == classes["runs"] - classes["distinct_classes"]
    # The motivating statistic: ≥25% of a full-budget corpus sweep replays
    # already-explored schedule classes.  Class structure is
    # seeded-deterministic, so this gate is exact, not jitter-prone.
    assert classes["dedup_rate"] >= 0.25, classes
    # Dedup must not change a single verdict at any budget.
    for point in report["detection"]:
        assert point["verdict_mismatches"] == 0, point
        assert point["detection_probability_on"] == \
            point["detection_probability_off"], point
    throughput = report["throughput"]
    assert throughput["detection_identical"], throughput
    # The artifact documents ≥1.5× on the full workload; the CI gate is
    # softer because shared runners jitter small wall-clock measurements.
    assert throughput["speedup"] >= 1.2, throughput
    counters = report["counters"]
    assert counters["saturation_stops"] > 0, counters
    assert counters["runs_skipped"] > 0, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default="BENCH_dedup.json",
                        help="artifact path (default: ./BENCH_dedup.json)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (default 1.0 = full corpus templates)")
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help=f"best-of trials per measurement (default {TRIALS})")
    args = parser.parse_args(argv)
    report = run_benchmark(scale=args.scale, trials=args.trials)
    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    classes = report["classes"]
    throughput = report["throughput"]
    print(f"wrote {out}")
    print(f"schedule classes:        {classes['distinct_classes']} distinct / "
          f"{classes['runs']} runs (dedup rate {classes['dedup_rate']:.1%})")
    for point in report["detection"]:
        print(f"detection @ {point['runs']:>2} runs:     "
              f"on {point['detection_probability_on']:.3f} / "
              f"off {point['detection_probability_off']:.3f} "
              f"({point['verdict_mismatches']} mismatches)")
    print(f"repeated validation:     {throughput['speedup']}x "
          f"({throughput['validations_per_sec_on']} vs "
          f"{throughput['validations_per_sec_off']} validations/s, "
          f"detection identical: {throughput['detection_identical']})")
    counters = report["counters"]
    print(f"counters:                {counters['classes_explored']} classes, "
          f"{counters['runs_deduped']} deduped, {counters['runs_skipped']} skipped, "
          f"{counters['saturation_stops']} saturation stops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
