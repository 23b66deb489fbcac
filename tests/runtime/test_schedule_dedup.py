"""Schedule-class dedup ON ≡ OFF: corpus-wide detection equivalence + units.

Dedup never changes which interleavings a sweep executes (the PCT avoid set
only redraws *exact duplicate* change-point plans, and plan-time signatures
essentially never collide), and in-call memo reuse substitutes reports the
merge would have deduplicated anyway — so unlike the slicing suite, this one
asserts the strongest property available: with saturation disabled, every
observable of :func:`repro.testing.detection_outcome` is **identical** per
(case, seed, policy) between dedup ON and OFF, across every template, the
mutation corpus, and all five scheduler policies.  Saturation early-stop
(opt-in) is covered separately: a saturated repeat sweep must reproduce the
full-budget sweep's verdict, racy-variable set, and bug hashes.
"""

from __future__ import annotations

import random

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.runtime.harness import DEFAULT_POLICIES, GoTestHarness, run_package_tests
from repro.runtime.schedule_index import (
    SCHEDULE_CLASS_REGISTRY,
    ClassOutcome,
    ScheduleClassIndex,
    ScheduleClassRegistry,
)
from repro.runtime.scheduler import (
    DEFAULT_PCT_MAX_TRIES,
    Scheduler,
    SchedulerPolicy,
    change_signature,
    pct_plan_signature,
    sample_change_points,
)
from repro.testing import detection_outcome, reset_addresses

SEEDS = (0, 11)


def _sweep(cases, mode, seeds, runs):
    reset_addresses()
    return [
        (case.case_id, seed,
         detection_outcome(case.package, seed, runs=runs, dedup=mode))
        for case in cases
        for seed in seeds
    ]


def _assert_detection_identical(cases, seeds, runs):
    off_rows = _sweep(cases, "off", seeds, runs)
    on_rows = _sweep(cases, "on", seeds, runs)
    for (case_id, seed, off), (_, _, on) in zip(off_rows, on_rows):
        assert off == on, f"dedup divergence on case={case_id} seed={seed}"


@pytest.fixture(scope="module")
def dataset():
    return CorpusGenerator(CorpusConfig()).generate()


@pytest.fixture
def clean_registry():
    SCHEDULE_CLASS_REGISTRY.clear()
    yield SCHEDULE_CLASS_REGISTRY
    SCHEDULE_CLASS_REGISTRY.clear()


class TestDedupDetectionEquivalence:
    def test_full_corpus_detection_identical(self, dataset):
        """Every template × seed × all five scheduler policies: dedup ON is
        observable-for-observable identical to OFF (verdicts, racy vars, bug
        hashes, failures, output, steps, run counts)."""
        _assert_detection_identical(
            dataset.evaluation + dataset.db_examples, SEEDS, runs=5
        )

    def test_mutant_corpus_detection_identical(self):
        """The mutation corpus (renames, reorders, workload/channel variants,
        sync-injected negatives) under both dedup modes."""
        generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
        cases = generator.generate_mutant_corpus(32, mutants_per_base=4)
        assert len(cases) >= 30
        _assert_detection_identical(cases, (7, 19), runs=3)


class TestDedupAccounting:
    def test_sweep_counts_classes_and_dedups(self, listing1_package, clean_registry):
        result = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        assert result.dedup_enabled
        assert result.runs_attempted == 12
        assert result.runs == 12  # saturation off: full budget always spent
        assert result.runs_skipped == 0
        assert not result.saturation_stopped
        # A fresh index: every executed run either explored a novel class or
        # re-confirmed one explored earlier in the same sweep.
        assert result.runs_deduped == result.runs - result.schedule_classes
        stats = clean_registry.stats()
        assert stats["classes_explored"] == result.schedule_classes
        assert stats["runs_deduped"] == result.runs_deduped
        assert stats["indexes"] == 1
        payload = result.dedup_stats()
        assert payload["enabled"] is True
        assert payload["runs_executed"] == result.runs
        assert payload["runs_deduped"] == result.runs_deduped

    def test_sweep_dedup_rate_is_substantial(self, listing1_package, clean_registry):
        """The motivating statistic: repeated runs collapse into few classes,
        so a meaningful fraction of a full-budget sweep is re-exploration."""
        result = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        assert result.runs_deduped / result.runs >= 0.25

    def test_repeat_invocation_dedups_everything(self, listing1_package, clean_registry):
        first = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        second = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        # Same configuration ⇒ same index ⇒ the repeat sweep replays only
        # known classes — and its observables are identical.
        assert second.runs_deduped == second.runs
        assert second.race_hashes() == first.race_hashes()
        stats = clean_registry.stats()
        assert stats["classes_explored"] == first.schedule_classes
        assert stats["indexes"] == 1

    def test_different_config_uses_a_different_index(self, listing1_package, clean_registry):
        run_package_tests(listing1_package, runs=6, seed=3, dedup="on")
        run_package_tests(listing1_package, runs=6, seed=4, dedup="on")
        assert clean_registry.stats()["indexes"] == 2

    def test_dedup_off_leaves_registry_untouched(self, listing1_package, clean_registry):
        result = run_package_tests(listing1_package, runs=6, seed=3, dedup="off")
        assert not result.dedup_enabled
        assert result.runs_deduped == 0
        stats = clean_registry.stats()
        assert stats["indexes"] == 0
        assert stats["classes_explored"] == 0


class TestSaturationEarlyStop:
    def test_saturated_repeat_sweep_stops_early_with_equal_verdict(
        self, listing1_package, clean_registry
    ):
        full = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        saturated = run_package_tests(
            listing1_package, runs=12, seed=3, dedup="on", saturation_after=2
        )
        assert saturated.saturation_stopped
        assert saturated.runs < saturated.runs_attempted
        assert saturated.runs_skipped == saturated.runs_attempted - saturated.runs
        # The verdict covers the whole explored space via the memoized
        # class outcomes, not just the pre-saturation prefix.
        assert bool(saturated.reports) == bool(full.reports)
        assert set(saturated.race_hashes()) == set(full.race_hashes())
        assert {r.variable for r in saturated.reports} == {
            r.variable for r in full.reports
        }
        assert clean_registry.stats()["saturation_stops"] == 1
        assert clean_registry.stats()["runs_skipped"] == saturated.runs_skipped

    def test_saturation_respects_the_policy_floor(self, listing1_package, clean_registry):
        run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        saturated = run_package_tests(
            listing1_package, runs=12, seed=3, dedup="on", saturation_after=1
        )
        # Never saturate before every policy in the rotation had a run.
        assert saturated.runs >= len(DEFAULT_POLICIES)

    def test_saturation_disabled_by_default(self, listing1_package, clean_registry):
        run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        repeat = run_package_tests(listing1_package, runs=12, seed=3, dedup="on")
        assert repeat.runs == repeat.runs_attempted == 12
        assert not repeat.saturation_stopped


class TestScheduleClassIndex:
    def test_record_is_first_writer_wins(self):
        index = ScheduleClassIndex()
        first = ClassOutcome(steps=1)
        assert index.record(42, first) is True
        assert index.record(42, ClassOutcome(steps=2)) is False
        assert index.lookup(42) is first
        assert len(index) == 1

    def test_lru_bound(self):
        index = ScheduleClassIndex(max_classes=2)
        index.record(1, ClassOutcome())
        index.record(2, ClassOutcome())
        index.record(3, ClassOutcome())
        assert len(index) == 2
        assert index.lookup(1) is None
        assert index.class_hashes() == [2, 3]

    def test_observe_prefixes_counts_novelty(self):
        index = ScheduleClassIndex()
        assert index.observe_prefixes((10, 11, 12)) == 3
        assert index.observe_prefixes((11, 12, 13)) == 1
        assert index.observe_prefixes((10, 11)) == 0

    def test_pct_signatures(self):
        index = ScheduleClassIndex()
        index.note_pct_signature(7)
        index.note_pct_signature(7)
        assert index.pct_signatures() == frozenset({7})

    def test_registry_shares_indexes_by_key_and_bounds_capacity(self):
        registry = ScheduleClassRegistry(capacity=2)
        a = registry.get(("k1",))
        assert registry.get(("k1",)) is a
        registry.get(("k2",))
        registry.get(("k3",))
        assert registry.stats()["indexes"] == 2
        assert registry.get(("k1",)) is not a  # evicted and rebuilt

    def test_registry_counters_and_clear(self):
        registry = ScheduleClassRegistry()
        registry.note_sweep(novel_classes=3, runs_deduped=2, runs_skipped=1,
                            prefix_rejections=4, saturated=True)
        stats = registry.stats()
        assert stats["classes_explored"] == 3
        assert stats["runs_deduped"] == 2
        assert stats["runs_skipped"] == 1
        assert stats["prefix_rejections"] == 4
        assert stats["saturation_stops"] == 1
        registry.clear()
        assert registry.stats()["classes_explored"] == 0
        assert registry.stats()["indexes"] == 0


class TestPCTNoveltyBiasing:
    def test_empty_avoid_set_is_bit_identical_to_the_unbiased_draw(self):
        reference = frozenset(random.Random(99).sample(range(1, 1000), 2))
        offsets, rejections = sample_change_points(random.Random(99), 3, 1000)
        assert offsets == reference
        assert rejections == 0

    def test_rejection_redraws_away_from_avoided_signatures(self):
        avoided, _ = sample_change_points(random.Random(99), 3, 1000)
        offsets, rejections = sample_change_points(
            random.Random(99), 3, 1000, avoid=frozenset({change_signature(avoided)})
        )
        assert rejections >= 1
        assert change_signature(offsets) != change_signature(avoided)

    def test_rejection_is_bounded(self):
        # Avoid every draw the RNG will make: the sampler gives up after
        # max_tries instead of spinning.
        probe = random.Random(99)
        signatures = frozenset(
            change_signature(probe.sample(range(1, 1000), 2))
            for _ in range(DEFAULT_PCT_MAX_TRIES + 1)
        )
        offsets, rejections = sample_change_points(
            random.Random(99), 3, 1000, avoid=signatures
        )
        assert rejections == DEFAULT_PCT_MAX_TRIES
        assert change_signature(offsets) in signatures  # degraded, not stuck

    def test_plan_signature_matches_the_scheduler_draw(self):
        for seed in (0, 7, 123456):
            scheduler = Scheduler(seed=seed, policy=SchedulerPolicy.PCT)
            planned, _ = pct_plan_signature(seed)
            assert planned == change_signature(scheduler._pct_change_points)

    def test_scheduler_counts_rejections(self):
        signature, _ = pct_plan_signature(5)
        scheduler = Scheduler(seed=5, policy=SchedulerPolicy.PCT,
                              avoid_signatures=frozenset({signature}))
        assert scheduler.stats.pct_rejections >= 1
        assert change_signature(scheduler._pct_change_points) != signature

    def test_harness_plan_accumulates_pct_avoid_sets(self, listing1_package):
        harness = GoTestHarness(listing1_package, runs=12, seed=3, dedup=True)
        specs, signatures = harness._plan_specs()
        assert [spec[:2] for spec in specs] == harness.plan_runs()
        pct_specs = [s for s in specs if s[1] is SchedulerPolicy.PCT]
        assert len(signatures) == len(pct_specs)
        assert pct_specs[0][2] == frozenset()
        # Each later PCT run avoids every signature planned before it.
        for position, spec in enumerate(pct_specs[1:], start=1):
            assert spec[2] == frozenset(signatures[:position])
        # Non-PCT runs carry no avoid set.
        for spec in specs:
            if spec[1] is not SchedulerPolicy.PCT:
                assert spec[2] == frozenset()

    def test_plan_is_unbiased_with_dedup_off(self, listing1_package):
        harness = GoTestHarness(listing1_package, runs=12, seed=3, dedup=False)
        specs, signatures = harness._plan_specs()
        assert signatures == []
        assert all(spec[2] == frozenset() for spec in specs)


class TestDedupSelection:
    def test_resolve_dedup_defaults_on(self, monkeypatch):
        from repro.execution import resolve_dedup

        monkeypatch.delenv("DRFIX_DEDUP", raising=False)
        assert resolve_dedup() is True
        assert resolve_dedup("off") is False
        assert resolve_dedup("on") is True
        assert resolve_dedup(False) is False
        assert resolve_dedup(True) is True

    def test_resolve_dedup_env_var(self, monkeypatch):
        from repro.execution import DEDUP_ENV_VAR, resolve_dedup

        monkeypatch.setenv(DEDUP_ENV_VAR, "off")
        assert resolve_dedup() is False
        monkeypatch.setenv(DEDUP_ENV_VAR, "on")
        assert resolve_dedup() is True

    def test_resolve_dedup_rejects_unknown(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.execution import DEDUP_ENV_VAR, resolve_dedup

        with pytest.raises(ConfigError, match=r"\(expected on or off\)"):
            resolve_dedup("maybe")
        monkeypatch.setenv(DEDUP_ENV_VAR, "maybe")
        with pytest.raises(ConfigError, match=r"\(expected on or off\)"):
            resolve_dedup()

    def test_config_dedup_validation_matches_resolver_message(self):
        from repro.core.config import DrFixConfig
        from repro.errors import ConfigError
        from repro.execution import resolve_dedup

        assert DrFixConfig(dedup="off").validated().dedup == "off"
        assert DrFixConfig().with_dedup("on").validated().dedup == "on"
        with pytest.raises(ConfigError) as config_err:
            DrFixConfig(dedup="maybe").validated()
        with pytest.raises(ConfigError) as resolver_err:
            resolve_dedup("maybe")
        assert str(config_err.value) == str(resolver_err.value)

    def test_config_saturation_validation(self):
        from repro.core.config import DrFixConfig
        from repro.errors import ConfigError

        assert DrFixConfig().with_saturation(3).validated().saturation_after == 3
        with pytest.raises(ConfigError, match="saturation_after"):
            DrFixConfig(saturation_after=-1).validated()


class TestMetricsExport:
    def test_service_metrics_snapshot_includes_dedup(self, listing1_package, clean_registry):
        from repro.service.metrics import MetricsRecorder

        run_package_tests(listing1_package, runs=6, seed=3, dedup="on")
        snapshot = MetricsRecorder().snapshot()
        for key in ("classes_explored", "runs_deduped", "runs_skipped",
                    "prefix_rejections", "saturation_stops", "indexes"):
            assert key in snapshot.dedup
        assert snapshot.dedup["classes_explored"] >= 1
        assert snapshot.as_dict()["dedup"] == snapshot.dedup
