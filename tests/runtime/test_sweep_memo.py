"""The schedule-class index's sweep memo: a replayed sweep ≡ a recomputed one.

With dedup on and no saturation, :meth:`GoTestHarness.run` answers a sweep
that repeats an earlier (package, config) from the index's sweep memo.  The
contract is "cached ≡ recomputed": a replay equals a fresh computation on
every field once process-global cell addresses are renumbered, and its dedup
accounting equals what re-running against the warm index would report.  The
memo stays out of ``dedup=off`` and saturated sweeps, is invalidated by a
stdlib registration, and keeps one entry per key under concurrent misses.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import threading

import pytest

from repro.core.config import DrFixConfig
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import all_templates
from repro.evaluation.runner import ExperimentContext
from repro.runtime import harness as harness_module
from repro.runtime import stdlib
from repro.runtime.harness import GoTestHarness, PackageRunResult, run_package_tests
from repro.runtime.schedule_index import (
    SCHEDULE_CLASS_REGISTRY,
    ClassOutcome,
    ScheduleClassIndex,
)
from repro.service import DetectRequest, FixRequest, execute_detect, execute_fix
from repro.service.core import normalize_addresses

RUNS = 4


def observable(result: PackageRunResult) -> dict:
    """Every field of a harness result, reports rendered in full."""
    row = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    row["reports"] = [
        [report.render(), report.variable, report.package, f"0x{report.address:012x}"]
        for report in result.reports
    ]
    return normalize_addresses(row)


def template_packages():
    return [template(321, 1).package for template in all_templates()]


def mutant_packages():
    generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
    cases = generator.generate_mutant_corpus(32, mutants_per_base=4)
    assert len(cases) >= 30
    return [case.package for case in cases]


@pytest.fixture
def clean_registry():
    SCHEDULE_CLASS_REGISTRY.clear()
    yield SCHEDULE_CLASS_REGISTRY
    SCHEDULE_CLASS_REGISTRY.clear()


@pytest.fixture
def memo_lookups_disabled(monkeypatch):
    """Turn sweep replay off, so every sweep re-runs against the warm index."""
    def disable():
        monkeypatch.setattr(ScheduleClassIndex, "lookup_sweep", lambda self, key: None)
    return disable


@pytest.fixture
def memo_forbidden(monkeypatch):
    def fail(self, *args):
        raise AssertionError("the sweep memo was touched")
    monkeypatch.setattr(ScheduleClassIndex, "lookup_sweep", fail)
    monkeypatch.setattr(ScheduleClassIndex, "store_sweep", fail)


def _assert_replay_equals_recompute(packages, stop_on_first_race, monkeypatch):
    sweep = dict(runs=RUNS, seed=5, stop_on_first_race=stop_on_first_race)
    replayed = 0
    for package in packages:
        SCHEDULE_CLASS_REGISTRY.clear()
        first = run_package_tests(package, **sweep)
        hit = run_package_tests(package, **sweep)
        if not hit.built or not hit.runs:
            continue
        assert SCHEDULE_CLASS_REGISTRY.stats()["sweeps_replayed"] == 1, package.name
        replayed += 1
        assert hit.runs_deduped == hit.runs, package.name
        # A fresh computation on an empty registry explores every class anew.
        SCHEDULE_CLASS_REGISTRY.clear()
        fresh = run_package_tests(package, **sweep)
        assert observable(first) == observable(fresh), package.name
        assert observable(hit) == observable(
            dataclasses.replace(fresh, runs_deduped=fresh.runs)), package.name
        # Re-running against the warm index (no replay) is exactly the hit.
        with monkeypatch.context() as patch:
            patch.setattr(ScheduleClassIndex, "lookup_sweep", lambda self, key: None)
            rerun = run_package_tests(package, **sweep)
        assert observable(hit) == observable(rerun), package.name
    assert replayed >= len(packages) // 2


class TestReplayEqualsRecompute:
    @pytest.mark.parametrize("stop_on_first_race", [False, True])
    def test_every_template(self, clean_registry, monkeypatch, stop_on_first_race):
        _assert_replay_equals_recompute(template_packages(), stop_on_first_race,
                                        monkeypatch)

    @pytest.mark.parametrize("stop_on_first_race", [False, True])
    def test_mutant_corpus(self, clean_registry, monkeypatch, stop_on_first_race):
        _assert_replay_equals_recompute(mutant_packages(), stop_on_first_race,
                                        monkeypatch)


class TestIsolation:
    def test_list_edits_on_returned_results_do_not_reach_later_hits(
            self, listing1_package, clean_registry):
        first = run_package_tests(listing1_package, runs=RUNS)
        expected = observable(first)
        assert first.reports
        for result in (first, run_package_tests(listing1_package, runs=RUNS)):
            result.reports.clear()
            result.output.append("edited")
            result.test_failures.append("edited")
            result.build_errors.append("edited")
            result.runs = 0
        hit = run_package_tests(listing1_package, runs=RUNS)
        assert observable(hit) == dict(expected, runs_deduped=expected["runs"])

    def test_pipeline_and_service_never_mutate_shared_reports(
            self, clean_registry, monkeypatch):
        """Replays share ``RaceReport`` objects with the stored sweep, which is
        sound only while no consumer writes to a report: run evaluation arms
        and served detect/fix requests, then compare every stored report with
        a snapshot taken when it was stored."""
        snapshots = []
        store = ScheduleClassIndex.store_sweep

        def recording(self, key, sweep):
            snapshots.append((sweep.reports, copy.deepcopy(sweep.reports)))
            store(self, key, sweep)

        monkeypatch.setattr(ScheduleClassIndex, "store_sweep", recording)
        context = ExperimentContext(corpus_config=CorpusConfig(
            db_examples=8, eval_fixable=6, eval_unfixable=3, seed=8))
        context.run_arm("full", context.base_config)
        context.run_arm("no-rag", context.base_config.without_rag())
        config = DrFixConfig(model="gpt-4o", validator_runs=6, detection_runs=6)
        for case in context.dataset.evaluation[:3]:
            execute_detect(DetectRequest(package=case.package, runs=6), config)
            execute_fix(FixRequest(package=case.package, runs=6), config,
                        context.skeleton_database)
        assert SCHEDULE_CLASS_REGISTRY.stats()["sweeps_replayed"] > 0
        assert any(reports for reports, _ in snapshots)
        for reports, snapshot in snapshots:
            assert repr(reports) == repr(snapshot)


class TestBypasses:
    def test_dedup_off_never_touches_the_memo(self, listing1_package, clean_registry,
                                              memo_forbidden):
        first = run_package_tests(listing1_package, runs=RUNS, dedup="off")
        second = run_package_tests(listing1_package, runs=RUNS, dedup="off")
        assert observable(first) == observable(second)
        assert clean_registry.stats()["sweeps_replayed"] == 0

    def test_saturated_sweeps_never_touch_the_memo(self, listing1_package,
                                                   clean_registry, memo_forbidden):
        for _ in range(2):
            run_package_tests(listing1_package, runs=12, saturation_after=2)
        assert clean_registry.stats()["sweeps_replayed"] == 0

    def test_register_package_invalidates_a_stored_sweep(self, listing1_package,
                                                         clean_registry):
        first = run_package_tests(listing1_package, runs=RUNS)
        stdlib.register_package("sweepmemo", {"Answer": 42})
        second = run_package_tests(listing1_package, runs=RUNS)
        assert clean_registry.stats()["sweeps_replayed"] == 0
        assert observable(second) == dict(observable(first),
                                          runs_deduped=first.runs)
        run_package_tests(listing1_package, runs=RUNS)
        assert clean_registry.stats()["sweeps_replayed"] == 1

    def test_settings_outside_the_index_key_select_distinct_sweeps(
            self, listing1_package, clean_registry):
        run_package_tests(listing1_package, runs=RUNS)
        run_package_tests(listing1_package, runs=RUNS + 1)
        run_package_tests(listing1_package, runs=RUNS, stop_on_first_race=True)
        run_package_tests(listing1_package, runs=RUNS, max_output_lines=1)
        stats = clean_registry.stats()
        assert stats["sweeps_replayed"] == 0
        assert stats["indexes"] == 1


class TestAccounting:
    @pytest.mark.parametrize("colliding_pct_plans", [False, True])
    def test_registry_stats_match_a_rerun(self, listing1_package, clean_registry,
                                          memo_lookups_disabled, monkeypatch,
                                          colliding_pct_plans):
        if colliding_pct_plans:
            # Every PCT run draws the same change points, so each one after
            # the first redraws: the sweep counts prefix rejections.
            monkeypatch.setattr(harness_module, "derive_run_seed",
                                lambda seed, index, policy: 7)
        for _ in range(2):
            run_package_tests(listing1_package, runs=12, seed=3)
        replayed = clean_registry.stats()
        clean_registry.clear()
        memo_lookups_disabled()
        for _ in range(2):
            run_package_tests(listing1_package, runs=12, seed=3)
        rerun = clean_registry.stats()
        assert replayed.pop("sweeps_replayed") == 1
        assert rerun.pop("sweeps_replayed") == 0
        assert replayed == rerun
        assert (rerun["prefix_rejections"] > 0) == colliding_pct_plans

    def test_memo_is_a_small_lru_per_index(self, listing1_package, clean_registry):
        harness = GoTestHarness(listing1_package)
        index = SCHEDULE_CLASS_REGISTRY.get(harness._index_key(harness.build(), []))
        for runs in range(1, 11):
            run_package_tests(listing1_package, runs=runs)
        assert len(index._sweeps) == index.max_sweeps == 8
        run_package_tests(listing1_package, runs=10)
        assert clean_registry.stats()["sweeps_replayed"] == 1
        run_package_tests(listing1_package, runs=1)  # evicted: recomputed
        assert clean_registry.stats()["sweeps_replayed"] == 1

    def test_class_eviction_drops_and_then_refuses_sweeps(self):
        # A replay must equal a re-run, which re-records evicted classes.
        index = ScheduleClassIndex(max_classes=2)
        index.record(1, ClassOutcome())
        index.store_sweep(("a",), "sweep")
        assert index.lookup_sweep(("a",)) == "sweep"
        index.record(2, ClassOutcome())
        index.store_sweep(("b",), "sweep")  # full: a re-run could now differ
        assert index.lookup_sweep(("b",)) is None
        index.record(3, ClassOutcome())  # evicts class 1
        assert index.lookup_sweep(("a",)) is None
        assert len(index._sweeps) == 0


class TestConcurrency:
    def test_concurrent_sweeps_converge_on_one_entry(self, listing1_package,
                                                     clean_registry):
        harness = GoTestHarness(listing1_package)
        index = SCHEDULE_CLASS_REGISTRY.get(harness._index_key(harness.build(), []))
        barrier = threading.Barrier(8)
        results = [None] * 8

        def sweep(slot):
            barrier.wait(timeout=60)
            results[slot] = run_package_tests(listing1_package, runs=RUNS)

        threads = [threading.Thread(target=sweep, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(index._sweeps) == 1
        rows = [observable(result) for result in results]
        # Whichever sweeps ran concurrently or replayed, only the dedup
        # accounting (novel vs known classes) may tell them apart.
        for row in rows:
            row.pop("runs_deduped")
        assert all(row == rows[0] for row in rows)
