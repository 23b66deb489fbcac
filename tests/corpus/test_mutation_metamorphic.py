"""Metamorphic validation of the template-mutation corpus engine.

Properties enforced here, per mutant:

* **label preservation** — rename/workload/reorder/buffer mutations keep the
  race reproducing at the labeled symbols, the human fix validating clean,
  and the category/diagnosis invariant;
* **tracked label flips** — ``sync_inject`` mutants are genuinely race-free
  (build, pass tests, produce no race report and hence no diagnosis), and
  ``sync_remove`` restores the racy sources byte for byte;
* **seed determinism** — the same seed yields byte-identical case sources and
  ids, including across processes with different ``PYTHONHASHSEED`` (asserted
  via :func:`repro.fingerprint.digest`);
* **mix hygiene** — malformed category mixes are rejected in one place with a
  clear :class:`~repro.errors.CorpusError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.mutate import (
    LABEL_FLIPPING_OPS,
    LABEL_PRESERVING_OPS,
    TemplateMutator,
    all_operators,
    mutate_corpus,
)
from repro.corpus.templates import TEMPLATE_REGISTRY
from repro.corpus.templates.capture_by_ref import make_ctx_select_err_case
from repro.corpus.templates.new_families import (
    make_bulk_wgadd_case,
    make_syncmap_entry_case,
)
from repro.corpus.validate import validate_case, validate_corpus
from repro.diagnosis.categories import RaceCategory
from repro.errors import CorpusError
from repro.fingerprint import digest
from repro.runtime.harness import run_package_tests

_SRC = Path(__file__).resolve().parents[2] / "src"


def _sources(case):
    return [(f.name, f.source) for f in case.package.files]


@pytest.fixture(scope="module")
def mutant_corpus():
    generator = CorpusGenerator(CorpusConfig(seed=4242, noise_level=1))
    return generator.generate_mutant_corpus(36, mutants_per_base=3, flip_fraction=0.25)


class TestMutationOperators:
    def test_unknown_operator_rejected(self):
        case = make_bulk_wgadd_case(41, 0)
        with pytest.raises(CorpusError, match="unknown mutation operator"):
            TemplateMutator(1).mutate(case, ["transmogrify"])

    def test_operator_registry_is_complete(self):
        assert set(all_operators()) == set(LABEL_PRESERVING_OPS) | set(LABEL_FLIPPING_OPS)

    def test_rename_rederives_ground_truth_through_the_map(self):
        base = make_syncmap_entry_case(97, 1)
        mutant = TemplateMutator(3).mutate(base, ["rename_symbols"], salt=5)
        assert mutant.mutations and mutant.mutations[0].startswith("rename_symbols(")
        assert mutant.base_case_id == base.case_id
        # The racy function was renamed, and the new name is what the mutant's
        # ground truth carries — in both the racy and the fixed source.
        assert mutant.racy_function != base.racy_function
        assert f"func (b *" in mutant.racy_source()
        assert mutant.racy_function in mutant.racy_source()
        assert mutant.racy_function in mutant.fixed_source()
        # The old name survives only as a prefix of its replacement.
        assert not re.search(rf"\b{base.racy_function}\b(?![A-Za-z])", mutant.racy_source())
        validation = validate_case(mutant, runs=8)
        assert validation.ok, validation.render()

    def test_vary_workload_touches_only_the_test_file(self):
        base = make_bulk_wgadd_case(41, 1)
        mutant = TemplateMutator(3).mutate(base, ["vary_workload"], salt=2)
        assert any(m.startswith("vary_workload(") for m in mutant.mutations)
        for racy_file, mutant_file in zip(base.package.files, mutant.package.files):
            if racy_file.name.endswith("_test.go"):
                assert racy_file.source != mutant_file.source
            else:
                assert racy_file.source == mutant_file.source
        validation = validate_case(mutant, runs=8)
        assert validation.ok, validation.render()

    def test_reorder_decls_preserves_the_function_set(self):
        base = make_bulk_wgadd_case(55, 1)
        mutant = TemplateMutator(9).mutate(base, ["reorder_decls"], salt=1)
        assert any(m.startswith("reorder_decls(") for m in mutant.mutations)
        assert mutant.racy_source() != base.racy_source()
        validation = validate_case(mutant, runs=8)
        assert validation.ok, validation.render()

    def test_buffer_channels_varies_topology(self):
        base = make_ctx_select_err_case(321, 1)
        mutant = TemplateMutator(7).mutate(base, ["buffer_channels"], salt=1)
        assert any(m.startswith("buffer_channels(") for m in mutant.mutations)
        assert mutant.racy_source() != base.racy_source()
        assert "make(chan " in mutant.racy_source()
        validation = validate_case(mutant, runs=8)
        assert validation.ok, validation.render()

    def test_inject_then_remove_round_trips_to_the_racy_label(self):
        base = make_bulk_wgadd_case(68, 1)
        mutant = TemplateMutator(7).mutate(base, ["sync_inject", "sync_remove"], salt=2)
        assert mutant.expected_race
        assert mutant.mutations == ["sync_inject", "sync_remove"]
        assert [f.source for f in mutant.package.files] == \
            [f.source for f in base.package.files]

    def test_mutant_ids_are_unique_and_trace_their_base(self, mutant_corpus):
        ids = [case.case_id for case in mutant_corpus]
        assert len(set(ids)) == len(ids)
        for case in mutant_corpus:
            if case.base_case_id:
                assert case.case_id.startswith(case.base_case_id + "-m")


class TestLabelFlips:
    def test_sync_injected_mutant_is_race_free_and_undiagnosed(self):
        base = make_syncmap_entry_case(77, 1)
        mutant = TemplateMutator(5).mutate(base, ["rename_symbols", "sync_inject"], salt=9)
        assert not mutant.expected_race
        detection = run_package_tests(mutant.package, runs=10)
        assert detection.built
        # No race report means there is nothing to diagnose: the negative
        # ground truth of a sync-injected mutant.
        assert not detection.reports
        assert not detection.test_failures
        validation = validate_case(mutant, runs=8)
        assert validation.ok, validation.render()

    def test_validator_flags_a_racy_package_labeled_race_free(self):
        base = make_bulk_wgadd_case(90, 1)
        mislabeled = dataclasses.replace(base, expected_race=False)
        validation = validate_case(mislabeled, runs=10)
        assert not validation.ok
        assert any("still races" in problem for problem in validation.problems)

    def test_validator_flags_a_racy_human_fix(self):
        base = make_bulk_wgadd_case(90, 1)
        broken = dataclasses.replace(base, fixed_package=base.package)
        validation = validate_case(broken, runs=10)
        assert not validation.ok
        assert any("human fix" in problem for problem in validation.problems)


class TestMetamorphicCorpus:
    def test_generated_corpus_passes_metamorphic_validation(self, mutant_corpus):
        validation = validate_corpus(mutant_corpus, runs=8)
        assert validation.ok, validation.summary()

    def test_mutants_inherit_category_strategy_and_difficulty(self, mutant_corpus):
        bases = {case.case_id: case for case in mutant_corpus if not case.base_case_id}
        mutants = [case for case in mutant_corpus if case.base_case_id]
        assert mutants, "corpus contains no mutants"
        for mutant in mutants:
            base = bases.get(mutant.base_case_id)
            if base is None:  # base trimmed by the corpus size cap
                continue
            assert mutant.category is base.category
            assert mutant.fix_strategy == base.fix_strategy
            assert mutant.difficulty is base.difficulty

    def test_corpus_mixes_racy_and_race_free_labels(self, mutant_corpus):
        racy = [case for case in mutant_corpus if case.expected_race]
        race_free = [case for case in mutant_corpus if not case.expected_race]
        assert racy and race_free
        for case in race_free:
            assert "sync_inject" in case.mutations

    def test_mutate_corpus_helper_fans_out_per_case(self):
        bases = [make_bulk_wgadd_case(41, 0), make_syncmap_entry_case(55, 0)]
        mutants = mutate_corpus(bases, mutants_per_case=2, seed=11)
        assert len(mutants) == 4
        assert {m.base_case_id for m in mutants} == {b.case_id for b in bases}


class TestSeedDeterminism:
    def test_same_seed_is_byte_identical_in_process(self):
        first = CorpusGenerator(CorpusConfig(seed=777, noise_level=1))
        second = CorpusGenerator(CorpusConfig(seed=777, noise_level=1))
        a = first.generate_mutant_corpus(24)
        b = second.generate_mutant_corpus(24)
        assert [c.case_id for c in a] == [c.case_id for c in b]
        assert [_sources(c) for c in a] == [_sources(c) for c in b]

    def test_different_seed_differs(self):
        a = CorpusGenerator(CorpusConfig(seed=777, noise_level=1)).generate_mutant_corpus(12)
        b = CorpusGenerator(CorpusConfig(seed=778, noise_level=1)).generate_mutant_corpus(12)
        assert [c.case_id for c in a] != [c.case_id for c in b]

    def test_cross_process_determinism_under_varying_hash_seeds(self):
        """Same seed ⇒ byte-identical ids and sources in fresh interpreters.

        ``PYTHONHASHSEED`` varies between the two child processes, so any
        reliance on ``hash()`` ordering or set iteration would break this."""
        script = (
            "import json, sys\n"
            "from repro.corpus.generator import CorpusConfig, CorpusGenerator\n"
            "from repro.fingerprint import digest\n"
            "gen = CorpusGenerator(CorpusConfig(seed=2025, noise_level=1))\n"
            "cases = gen.generate_mutant_corpus(20)\n"
            "payload = {\n"
            "    'ids': [c.case_id for c in cases],\n"
            "    'sources': digest({c.case_id: [[f.name, f.source] for f in c.package.files]\n"
            "                       for c in cases}),\n"
            "    'mutations': [c.mutations for c in cases],\n"
            "}\n"
            "print(json.dumps(payload, sort_keys=True))\n"
        )
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["ids"]) == 20


class TestMixValidation:
    def test_default_and_paper_mixes_pass(self):
        config = CorpusConfig()
        assert config.validate() is config
        assert config.scaled(0.1).validate() is not None

    def test_rejects_unnormalized_mix(self):
        config = CorpusConfig(eval_mix={RaceCategory.OTHERS: 0.5})
        with pytest.raises(CorpusError, match="sum to 0.5"):
            CorpusGenerator(config)

    def test_rejects_negative_weight(self):
        config = CorpusConfig(
            eval_mix={RaceCategory.OTHERS: 1.2, RaceCategory.LOOP_VARIABLE_CAPTURE: -0.2}
        )
        with pytest.raises(CorpusError, match="negative weight"):
            CorpusGenerator(config)

    def test_rejects_weight_on_category_without_templates(self, monkeypatch):
        monkeypatch.setitem(TEMPLATE_REGISTRY, RaceCategory.OTHERS, [])
        with pytest.raises(CorpusError, match="no template is registered"):
            CorpusConfig().validate()

    def test_db_mix_is_validated_too(self):
        config = CorpusConfig(db_mix={RaceCategory.OTHERS: 2.0})
        with pytest.raises(CorpusError, match="db_mix"):
            config.validate()

    def test_mutant_corpus_rejects_nonpositive_count(self):
        generator = CorpusGenerator(CorpusConfig(seed=1))
        with pytest.raises(CorpusError, match="positive"):
            generator.generate_mutant_corpus(0)
