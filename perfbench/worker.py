"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the program's
process-wide caches (``PROGRAM_CACHE``, ``SCHEDULE_CLASS_REGISTRY``) start
empty, as they do for a user.  The script sets the workload up, runs the timed
region, checks the outputs, and prints one JSON object of raw samples as its
last line of standard output.  Counters are deltas over the timed region.

    python3 perfbench/worker.py --workload detect --seed 1 --rep 0 \\
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import queue
import re
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import DrFixConfig  # noqa: E402
from repro.core.database import ExampleDatabase  # noqa: E402
from repro.corpus.generator import CorpusGenerator  # noqa: E402
from repro.evaluation import runner as evaluation_runner  # noqa: E402
from repro.evaluation.experiments import all_experiment_tables  # noqa: E402
from repro.evaluation.reporting import render_report  # noqa: E402
from repro.runtime.compiler import PROGRAM_CACHE  # noqa: E402
from repro.runtime.schedule_index import SCHEDULE_CLASS_REGISTRY  # noqa: E402
from repro.service import (  # noqa: E402
    DrFixService,
    RequestKind,
    execute_detect,
    execute_fix,
)
from repro.service import requests as service_requests  # noqa: E402
from repro.service.frontend import handle_stdio_line  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, import_all  # noqa: E402

#: Seconds a client or collector waits for one response before it counts
#: the request as failed.
TIMEOUT_S = 60.0
#: Latency limits (ms) of ``within_limit_share``, per kind of operation.
LIMITS_MS = {
    "case": 150.0,          # one evaluate case-evaluation
    "warm": 25.0,           # a result-cache hit of either kind
    "detect": 150.0,        # a cold /detect
    "fix": 600.0,           # a cold /fix
}
#: The open-loop generator may fall behind its schedule by at most this share
#: of the schedule's length before the repetition is invalid.
MAX_LATENESS_SHARE = 0.05
#: Responses per kind re-computed by a direct call and compared.
DIRECT_CHECKS = 2
#: The report's one wall-clock field (RQ1's mean pipeline time, "0.06s") is
#: masked before the report is digested; everything else is deterministic.
WALL_CLOCK_RE = re.compile(r"\b\d+\.\d+s\b")


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def counters(service: Optional[DrFixService] = None) -> Dict[str, Any]:
    snapshot: Dict[str, Any] = {
        "program_cache": PROGRAM_CACHE.stats(),
        "dedup": SCHEDULE_CLASS_REGISTRY.stats(),
    }
    if service is not None:
        metrics = service.metrics()
        snapshot["service"] = {"batches": metrics.batches,
                               "batched_requests": metrics.batched_requests}
        snapshot["cache"] = service.cache.stats()
    return snapshot


def delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    return {group: {key: after[group][key] - before[group].get(key, 0)
                    for key in after[group]}
            for group in after}


def build_service(seed: int) -> DrFixService:
    """The service exactly as ``drfix serve`` builds it by default."""
    config = DrFixConfig(model="gpt-4o")
    corpus = CorpusGenerator(workloads.corpus_config(seed)).generate()
    database = ExampleDatabase.from_cases(corpus.db_examples, config)
    return DrFixService(config, database=database, max_queue_depth=64,
                        max_in_flight=4, jobs=None, executor="thread",
                        cache_capacity=256)


def direct_payload(service: DrFixService, line: str) -> Dict[str, Any]:
    request = service_requests.request_from_payload(
        json.loads(line), default_runs=workloads.RUNS)
    if request.kind is RequestKind.DETECT:
        return execute_detect(request, service.config)
    return execute_fix(request, service.config, service.database)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def run_evaluate(args: argparse.Namespace, tracer: Tracer,
                 start_timer: Callable[[], None]) -> Dict[str, Any]:
    context = evaluation_runner.ExperimentContext(
        corpus_config=workloads.corpus_config(args.seed),
        base_config=DrFixConfig(model="gpt-4o"),
    )
    case_ms: List[float] = []
    evaluate_case = evaluation_runner.evaluate_single_case

    def timed_case(*call_args: Any, **call_kwargs: Any) -> Any:
        begin = time.perf_counter()
        result = evaluate_case(*call_args, **call_kwargs)
        case_ms.append((time.perf_counter() - begin) * 1000.0)
        return result

    evaluation_runner.evaluate_single_case = timed_case
    before = counters()
    start_timer()
    begin = time.perf_counter()
    tables = tracer.span("bench.evaluate", all_experiment_tables, context)
    report = render_report(tables)
    wall = time.perf_counter() - begin
    after = counters()
    full = context.full_run().fix_rate()
    return {
        "wall_s": wall,
        "latencies_ms": case_ms,
        "within": sum(ms <= LIMITS_MS["case"] for ms in case_ms),
        "good": full.fixed,
        "graded": full.total,
        "attempted": len(case_ms),
        "completed": len(case_ms),
        "failed": 0,
        "digest": hashlib.sha256(
            WALL_CLOCK_RE.sub("<wall>", report).encode("utf-8")).hexdigest(),
        "counters": delta(before, after),
        "checks": [],
    }


def run_detect(args: argparse.Namespace, tracer: Tracer,
               start_timer: Callable[[], None]) -> Dict[str, Any]:
    lines = workloads.detect_lines(args.seed, args.rep)
    service = build_service(args.seed)
    results: List[Optional[tuple]] = [None] * len(lines)
    lock = threading.Lock()
    cursor = [0]

    def round_trip(line: str) -> tuple:
        response = handle_stdio_line(service, line, timeout=TIMEOUT_S,
                                     default_runs=workloads.RUNS)
        tracer.span("service.wire", json.dumps, response)
        return response, tracer.last_decoded()

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(lines):
                    return
                cursor[0] += 1
            begin = time.perf_counter()
            response, request = tracer.span("bench.request", round_trip,
                                            lines[index][1])
            results[index] = (begin, time.perf_counter(), response, request)

    before = counters(service)
    start_timer()
    clients = [threading.Thread(target=client, name=f"client-{n}") for n in range(2)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    after = counters(service)
    wall = max(r[1] for r in results) - min(r[0] for r in results)

    latencies, waits, checks, mismatches = [], [], [], []
    ok = agree = 0
    for (case, _), (begin, end, response, request) in zip(lines, results):
        latencies.append((end - begin) * 1000.0)
        if response.get("status") != "ok":
            continue
        ok += 1
        racy = bool(response["payload"]["race_hashes"])
        if racy == case.expected_race:
            agree += 1
        else:
            mismatches.append(case.case_id)
        if request is not None:
            waits.append(response["duration_ms"]
                         - tracer.execute_ns.get(id(request), 0) / 1e6)
    for index in workloads.sample_indices(args.seed + args.rep, len(lines),
                                          DIRECT_CHECKS):
        served = results[index][2].get("payload")
        if canonical(served) != canonical(direct_payload(service, lines[index][1])):
            checks.append(f"served /detect payload differs from a direct "
                          f"execute_detect for {lines[index][0].case_id}")
    service.shutdown(wait=True)
    return {
        "wall_s": wall,
        "latencies_ms": latencies,
        "within": sum(ms <= LIMITS_MS["detect"] for ms in latencies),
        "good": agree,
        "graded": ok,
        "mismatches": mismatches,
        "attempted": len(lines),
        "completed": ok,
        "failed": len(lines) - ok,
        "waits_ms": waits,
        "counters": delta(before, after),
        "checks": checks,
    }


def run_serve(args: argparse.Namespace, tracer: Tracer,
              start_timer: Callable[[], None]) -> Dict[str, Any]:
    schedule = workloads.serve_schedule(args.seed, args.rep, args.serve_rate)
    service = build_service(args.seed)
    submitted: "queue.Queue[Optional[tuple]]" = queue.Queue()
    answers: List[Optional[tuple]] = [None] * len(schedule)

    def decode(line: str) -> Any:
        # Through the module attribute, so the traced run sees the call.
        return service_requests.request_from_payload(
            json.loads(line), default_runs=workloads.RUNS)

    def collect() -> None:
        # Waits on tickets in send order; the latency comes from the
        # service's own admission-to-completion time, so a slow earlier
        # ticket does not inflate a later one.
        while True:
            item = submitted.get()
            if item is None:
                return
            index, ticket, request, due, sent = item
            try:
                response = ticket.result(timeout=TIMEOUT_S)
            except TimeoutError:
                answers[index] = (None, request, due, sent)
                continue
            tracer.span("service.wire", json.dumps, response.as_dict())
            answers[index] = (response, request, due, sent)

    before = counters(service)
    collector = threading.Thread(target=collect, name="collector")
    collector.start()
    start_timer()
    origin = time.perf_counter() + 0.05
    lateness = []
    for index, send in enumerate(schedule):
        due = origin + send.due_s
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        begin = time.perf_counter()
        lateness.append((begin - due) * 1000.0)
        request = tracer.span("service.wire", decode, send.line)
        sent = time.perf_counter()
        submitted.put((index, service.submit(request), request, due, sent))
    submitted.put(None)
    collector.join()
    after = counters(service)

    kinds: Dict[str, List[float]] = {"warm": [], "detect": [], "fix": []}
    latencies, waits, checks = [], [], []
    within = ok = fixed = racy_fixes = 0
    first: Dict[str, str] = {}
    last_done = origin
    for send, (response, request, due, sent) in zip(schedule, answers):
        if response is None or not response.ok:
            continue
        ok += 1
        latency = (sent - due) * 1000.0 + response.duration_ms
        last_done = max(last_done, due + latency / 1000.0)
        kind = "warm" if response.cached else send.tag
        kinds[kind].append(latency)
        if kind == "warm":
            latencies.append(latency)
        within += latency <= LIMITS_MS[kind]
        waits.append(response.duration_ms - tracer.execute_ns.get(id(request), 0) / 1e6)
        tracer.root_interval(int(due * 1e9), int((due + latency / 1000.0) * 1e9))
        payload = canonical(response.payload)
        if first.setdefault(send.line, payload) != payload:
            checks.append(f"{send.case_id} payload differs from the first one "
                          "served for the same line")
        if send.tag == "fix" and send.racy:
            racy_fixes += 1
            fixed += bool(response.payload.get("fixed_any"))
    cold = [i for i, send in enumerate(schedule) if send.tag != "warm"]
    for pick in workloads.sample_indices(args.seed + args.rep, len(cold),
                                         2 * DIRECT_CHECKS):
        send = schedule[cold[pick]]
        response = answers[cold[pick]][0]
        served = response.payload if response is not None else None
        if canonical(served) != canonical(direct_payload(service, send.line)):
            checks.append(f"served /{send.tag} payload differs from a direct "
                          f"call for {send.case_id}")
    late_limit = MAX_LATENESS_SHARE * workloads.SERVE_WINDOW_S * 1000.0
    if max(lateness) > late_limit:
        checks.append(f"generator ran {max(lateness):.1f} ms late, over the "
                      f"{late_limit:.0f} ms limit: the open loop is invalid")
    service.shutdown(wait=True)
    return {
        "wall_s": last_done - origin,
        "latencies_ms": latencies,
        "kinds_ms": kinds,
        "within": within,
        "good": fixed,
        "graded": racy_fixes,
        "attempted": len(schedule),
        "completed": ok,
        "failed": len(schedule) - ok,
        "waits_ms": waits,
        "lateness_ms": lateness,
        "counters": delta(before, after),
        "checks": checks,
    }


WORKLOADS = {"evaluate": run_evaluate, "detect": run_detect, "serve": run_serve}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rate", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    tracer = Tracer()
    if args.trace:
        import_all()
        layers.install(tracer)
        tracer.enabled = True
    marks: Dict[str, float] = {}

    def start_timer() -> None:
        marks["setup_s"] = time.monotonic() - spawned_at
        marks["cpu"] = time.process_time()
        tracer.phase = "timed"

    result = WORKLOADS[args.workload](args, tracer, start_timer)
    result["cpu_s"] = time.process_time() - marks["cpu"]
    result["setup_s"] = marks["setup_s"]
    result["traced"] = bool(args.trace)
    if args.trace:
        result["layers"] = layers.layer_metrics(tracer, result["wall_s"])
        result["layers"].update(layers.counter_metrics(result["counters"]))
        result["missing"] = layers.missing_predicted(tracer, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
