"""Which entry points of which layer are traced, and the per-layer metrics.

``ENTRY_POINTS`` is the outside-in span map: span name, the module that
defines the callable, its (qualified) name, and an optional hook that turns
the call's result into counters.  ``PREDICTED_CALLS`` names, per workload, the
spans the benchmark's layer map predicts to do work there; a traced run in
which one of them records zero calls fails.
"""

from __future__ import annotations

from typing import Any, Dict, List

from tracer import (LAYERS, SpanStats, Tracer, install_function, install_method,
                    unattributed_share)


def _tokens(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
            duration_ns: int) -> None:
    tracer.count("golang.tokens", len(result))


def _parse_source(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                  duration_ns: int) -> None:
    tracer.note_source(args[0] if args else kwargs.get("source", ""))


def _harness(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
             duration_ns: int) -> None:
    tracer.count("runtime.scheduler_steps", result.scheduler_steps)
    tracer.count("runtime.runs", result.runs)
    tracer.count("runtime.runs_deduped", result.runs_deduped)


def _validated(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
               duration_ns: int) -> None:
    tracer.count("core.validate.ok", int(bool(result.ok)))


def _completion(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
                duration_ns: int) -> None:
    tracer.count("llm.noop", int(result.refused or not result.content.strip()))


def _executed(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
              duration_ns: int) -> None:
    # _execute_request(config, database, request): the request object is the
    # one the client submitted, so its id correlates span and response.
    tracer.note_execute(args[2], duration_ns)


def _decoded(tracer: Tracer, args: tuple, kwargs: dict, result: Any,
             duration_ns: int) -> None:
    tracer.note_decoded(result)


#: (span name, module, function or Class.method, hook)
ENTRY_POINTS = (
    ("golang.tokenize", "repro.golang.lexer", "tokenize", _tokens),
    ("golang.parse_file", "repro.golang.parser", "parse_file", _parse_source),
    ("runtime.harness_run", "repro.runtime.harness", "GoTestHarness.run", _harness),
    ("runtime.build", "repro.runtime.compiler", "ProgramCache.get_or_build", None),
    ("diagnosis.diagnose", "repro.diagnosis.diagnose", "RaceDiagnoser.diagnose", None),
    ("core.fix_report", "repro.core.pipeline", "DrFix.fix_report", None),
    ("core.extract", "repro.core.race_info", "RaceInfoExtractor.extract", None),
    ("core.skeletonize", "repro.core.skeleton", "Skeletonizer.skeletonize_file", None),
    ("core.skeletonize", "repro.core.skeleton", "Skeletonizer.skeletonize_function", None),
    ("core.skeletonize", "repro.core.skeleton", "Skeletonizer.skeletonize_source", None),
    ("core.patch", "repro.core.patcher", "Patcher.apply", None),
    ("core.validate", "repro.core.validator", "FixValidator.validate", _validated),
    ("llm.complete", "repro.llm.simulated", "SimulatedLLM.complete", _completion),
    ("embedding.embed", "repro.embedding.embedder", "CodeEmbedder.embed", None),
    ("embedding.query", "repro.embedding.vector_store", "VectorStore.query", None),
    ("embedding.index", "repro.core.database", "ExampleDatabase.from_cases", None),
    ("service.execute", "repro.service.core", "_execute_request", _executed),
    ("service.batch", "repro.service.core", "DrFixService._serve_batch", None),
    ("service.cache", "repro.service.cache", "ResultCache.get", None),
    ("service.cache", "repro.service.cache", "ResultCache.put", None),
    ("service.wire", "repro.service.requests", "request_from_payload", _decoded),
    ("fingerprint.digest", "repro.fingerprint", "digest", None),
    ("corpus.generate", "repro.corpus.generator", "CorpusGenerator.generate", None),
    ("corpus.generate", "repro.corpus.generator",
     "CorpusGenerator.generate_mutant_corpus", None),
)

#: Spans each workload's layer map predicts to do work in the timed region.
PREDICTED_CALLS: Dict[str, List[str]] = {
    "evaluate": ["golang.tokenize", "golang.parse_file", "runtime.harness_run",
                 "runtime.build", "diagnosis.diagnose", "core.extract",
                 "core.skeletonize", "core.patch", "core.validate", "llm.complete",
                 "embedding.embed", "embedding.query"],
    "detect": ["golang.tokenize", "golang.parse_file", "runtime.harness_run",
               "runtime.build", "diagnosis.diagnose", "service.execute",
               "service.wire", "fingerprint.digest"],
    "serve": ["golang.tokenize", "golang.parse_file", "runtime.harness_run",
              "runtime.build", "diagnosis.diagnose", "core.extract",
              "core.skeletonize", "core.patch", "core.validate", "llm.complete",
              "embedding.embed", "embedding.query", "service.execute",
              "service.wire", "service.cache", "fingerprint.digest"],
}

def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS`."""
    for name, module, target, hook in ENTRY_POINTS:
        if "." in target:
            install_method(tracer, name, module, target, hook)
        else:
            install_function(tracer, name, module, target, hook)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer numbers of the timed region (set-up spans for set-up).

    ``share.<layer>`` is the layer's self time, summed over threads, as a
    share of the timed region's wall time.
    """
    def stat(name: str, phase: str = "timed") -> SpanStats:
        return tracer.stats.get((phase, name), SpanStats())

    def counter(name: str) -> float:
        return tracer.counters.get(("timed", name), 0)

    seconds = 1e-9
    out: Dict[str, float] = {}
    tokenize = stat("golang.tokenize")
    parse = stat("golang.parse_file")
    out["golang.tokenize.calls"] = tokenize.calls
    out["golang.tokenize.self_s"] = tokenize.self_ns * seconds
    out["golang.tokens_per_s"] = share(counter("golang.tokens"), tokenize.self_ns * seconds)
    out["golang.parse_file.calls"] = parse.calls
    out["golang.parse_file.self_s"] = parse.self_ns * seconds
    out["golang.parse_file.distinct_share"] = share(
        len(tracer.distinct_sources.get("timed", ())), parse.calls)
    harness = stat("runtime.harness_run")
    out["runtime.harness_run.calls"] = harness.calls
    out["runtime.harness_run.self_s"] = harness.self_ns * seconds
    out["runtime.scheduler_steps"] = counter("runtime.scheduler_steps")
    out["runtime.steps_per_s"] = share(counter("runtime.scheduler_steps"),
                                        harness.self_ns * seconds)
    out["runtime.runs"] = counter("runtime.runs")
    out["runtime.runs_deduped"] = counter("runtime.runs_deduped")
    build = stat("runtime.build")
    out["runtime.build.calls"] = build.calls
    out["runtime.build.self_s"] = build.self_ns * seconds
    for name in ("diagnosis.diagnose", "core.skeletonize", "core.patch",
                 "core.validate", "llm.complete", "embedding.embed",
                 "embedding.query", "fingerprint.digest"):
        span = stat(name)
        out[f"{name}.calls"] = span.calls
        out[f"{name}.self_s"] = span.self_ns * seconds
    out["core.fix_report.self_s"] = stat("core.fix_report").self_ns * seconds
    out["core.extract.self_s"] = stat("core.extract").self_ns * seconds
    out["core.patch.failed"] = stat("core.patch").errors
    out["core.validate.ok_share"] = share(counter("core.validate.ok"),
                                           stat("core.validate").calls)
    out["llm.noop_share"] = share(counter("llm.noop"), stat("llm.complete").calls)
    out["service.execute.self_s"] = stat("service.execute").self_ns * seconds
    out["service.batch.self_s"] = stat("service.batch").self_ns * seconds
    out["service.cache.self_s"] = stat("service.cache").self_ns * seconds
    out["service.wire.self_s"] = stat("service.wire").self_ns * seconds
    out["corpus.generate.self_s"] = stat("corpus.generate", "setup").self_ns * seconds
    out["embedding.index.self_s"] = stat("embedding.index", "setup").self_ns * seconds
    out["embedding.index.total_s"] = stat("embedding.index", "setup").total_ns * seconds
    out["trace.unattributed_share"] = unattributed_share(tracer)
    for layer in LAYERS:
        busy = sum(stats.self_ns for (phase, name), stats in tracer.stats.items()
                   if phase == "timed" and name.split(".", 1)[0] == layer)
        out[f"share.{layer}"] = share(busy * seconds, wall_s)
    return out


def missing_predicted(tracer: Tracer, workload: str) -> List[str]:
    """Predicted entry points that recorded no call in the timed region."""
    return [name for name in PREDICTED_CALLS[workload]
            if tracer.stats.get(("timed", name)) is None
            or tracer.stats[("timed", name)].calls == 0]


def counter_metrics(moved: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer ratios from the public counters' deltas over the timed region."""
    cache = moved["program_cache"]
    out = {
        "runtime.program_cache.hit_rate": share(
            cache["hits"], cache["hits"] + cache["misses"]),
        "runtime.program_cache.derived_builds": cache["derived_builds"],
        "service.cache.hit_rate": 0.0,
        "service.mean_batch_size": 0.0,
    }
    if "service" in moved:
        results = moved["cache"]
        out["service.cache.hit_rate"] = share(
            results["hits"], results["hits"] + results["misses"])
        out["service.mean_batch_size"] = share(
            moved["service"]["batched_requests"], moved["service"]["batches"])
    return out
