"""Micro-benchmarks of the substrate components (throughput, not tables).

These quantify the cost of the pieces the pipeline calls in its inner loop:
race detection runs, skeletonization, embedding, and retrieval.
"""

from repro.core.database import ExampleDatabase
from repro.core.skeleton import Skeletonizer, clear_skeleton_cache
from repro.embedding.embedder import CodeEmbedder, clear_token_cache
from repro.runtime.harness import run_package_tests
from repro.runtime.schedule_index import SCHEDULE_CLASS_REGISTRY


def cold(fn):
    """``fn`` with the skeleton memo and the token-hash cache emptied first,
    so every round computes instead of returning the last round's result."""
    def run():
        clear_skeleton_cache()
        clear_token_cache()
        return fn()
    return run


def test_bench_race_detection_run(benchmark, context):
    case = context.dataset.evaluation[0]

    def detect():
        # Execute every round instead of replaying the first one's sweep.
        SCHEDULE_CLASS_REGISTRY.clear()
        return run_package_tests(case.package, runs=4)

    result = benchmark(detect)
    assert result.built


def test_bench_skeletonization(benchmark, context):
    case = next(c for c in context.dataset.evaluation if c.expected_unfixed_reason is None)
    skeletonizer = Skeletonizer()
    skeleton = benchmark(cold(
        lambda: skeletonizer.skeletonize_source(
            case.racy_source(), racy_variables=[case.racy_variable]
        ).text
    ))
    assert "racyVar" in skeleton or "func1" in skeleton


def test_bench_embedding(benchmark, context):
    case = context.dataset.evaluation[0]
    embedder = CodeEmbedder(context.base_config.embedder)
    vector = benchmark(cold(lambda: embedder.embed(case.racy_source())))
    assert vector.shape[0] == context.base_config.embedder.dimensions


def test_bench_retrieval(benchmark, context):
    case = next(c for c in context.dataset.evaluation if c.expected_unfixed_reason is None)
    database: ExampleDatabase = context.skeleton_database
    result = benchmark(cold(
        lambda: database.query_code(case.racy_source(), racy_variable=case.racy_variable)
    ))
    assert result is not None
