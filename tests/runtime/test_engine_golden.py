"""Engine golden: the interpreter's observable outcomes match a recorded oracle.

``data/engine_golden.json`` holds, for every corpus template (evaluation and
example-database cases, seeds 0 and 11, all five scheduler policies), the
seed-606 32-case mutant corpus (seed 7, three runs per policy) and a few
hand-written packages (an entry-function run, a build error, over-long
comma-ok targets, a racy comma-ok map read), a digest of the full observable
outcome — rendered race reports with cell addresses, test failures, program
output, build errors, run and test counts — plus the race and failure counts
for readable diffs.

The file was recorded from the reference tree-walking interpreter before it
was deleted; the compile-once engine was bit-identical to it on every row.
Packages added to the corpus after that have no independent oracle: their
rows are whatever the engine produced when the golden was last recorded.
Slicing is forced off: the fully instrumented lowering is the one the oracle
pins (slicing elides schedule points, which legitimately changes seeded
schedules; its own suite is ``test_slicing_equivalence.py``).

Re-record (only after an intended change to observable behaviour) with::

    PYTHONPATH=src python tests/runtime/test_engine_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.runtime.compiler import PROGRAM_CACHE, package_fingerprint
from repro.runtime.harness import GoFile, GoPackage, run_package_tests
from repro.testing import reset_addresses, run_outcome

GOLDEN = Path(__file__).parent / "data" / "engine_golden.json"

SEEDS = (0, 11)
MUTANT_SEED = 7

BROKEN = GoPackage(
    name="broken",
    files=[GoFile("lib.go", "package broken\nfunc Broken( {\n")],
)

ENTRY = GoPackage(
    name="entry",
    files=[GoFile("main.go", """package entry

var total = 0

func Bump() {
\tfor i := 0; i < 3; i++ {
\t\ttotal += i
\t}
\tprintln(total)
}
""")],
)

#: ``v, ok, extra := m[k]`` declares ``extra`` as nil: comma-ok forms return
#: exactly two values however many targets there are, padded with ``None``.
PADDING = GoPackage(
    name="pad",
    files=[GoFile("pad_test.go", """package pad

import "testing"

func TestPad(t *testing.T) {
\tm := map[string]int{"a": 1}
\tv, ok, extra := m["a"]
\tprintln(v, ok, extra)
}
""")],
)

#: Every comma-ok form in one racy package: a map read racing a map write,
#: a channel receive until close, and a type assertion.
COMMA_OK = GoPackage(
    name="commaok",
    files=[GoFile("commaok_test.go", """package commaok

import (
\t"sync"
\t"testing"
)

func TestCommaOk(t *testing.T) {
\tm := map[string]int{"a": 1}
\tch := make(chan int, 1)
\tvar wg sync.WaitGroup
\twg.Add(2)
\tgo func() {
\t\tdefer wg.Done()
\t\tm["b"] = 2
\t\tch <- 3
\t\tclose(ch)
\t}()
\tgo func() {
\t\tdefer wg.Done()
\t\tv, ok := m["a"]
\t\tprintln(v, ok)
\t}()
\twg.Wait()
\tfor {
\t\tv, ok := <-ch
\t\tif !ok {
\t\t\tbreak
\t\t}
\t\tprintln(v, ok)
\t}
\tvar x interface{} = 5
\tn, isInt := x.(int)
\tprintln(n, isInt)
}
""")],
)


def _row(name: str, outcome: Dict[str, object]) -> Dict[str, object]:
    text = json.dumps(outcome, sort_keys=True, ensure_ascii=False)
    return {
        "id": name,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()[:20],
        "races": len(outcome["reports"]),
        "failures": len(outcome["failures"]),
    }


def _result_outcome(result) -> Dict[str, object]:
    return {
        "reports": [report.render() for report in result.reports],
        "failures": result.test_failures,
        "output": result.output,
        "build_errors": result.build_errors,
        "runs": result.runs,
        "tests": result.tests_discovered,
    }


def corpus_rows(dataset=None, seeds=SEEDS) -> List[Dict[str, object]]:
    if dataset is None:
        dataset = CorpusGenerator(CorpusConfig()).generate()
    rows = []
    for case in dataset.evaluation + dataset.db_examples:
        for seed in seeds:
            reset_addresses()
            outcome = run_outcome(case.package, seed, slicing="off")
            rows.append(_row(f"{case.case_id}@{seed}", outcome))
    return rows


def mutant_rows() -> List[Dict[str, object]]:
    generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
    cases = generator.generate_mutant_corpus(32, mutants_per_base=4)
    rows = []
    for case in cases:
        reset_addresses()
        outcome = run_outcome(case.package, MUTANT_SEED, runs=3, slicing="off")
        rows.append(_row(f"{case.case_id}@{MUTANT_SEED}", outcome))
    return rows


#: Golden row id -> (package, harness arguments), in golden-file order.
PACKAGES = {
    "broken": (BROKEN, dict(runs=2)),
    "entry": (ENTRY, dict(runs=3, entry_functions=["Bump"])),
    "padding": (PADDING, dict(runs=2)),
    "comma_ok": (COMMA_OK, dict(runs=4)),
}


def package_run(name: str):
    """Run one hand-written package; return its golden row and the result."""
    package, kwargs = PACKAGES[name]
    reset_addresses()
    result = run_package_tests(package, slicing="off", **kwargs)
    return _row(name, _result_outcome(result)), result


def package_rows() -> List[Dict[str, object]]:
    return [package_run(name)[0] for name in PACKAGES]


def record() -> Dict[str, object]:
    return {"corpus": corpus_rows(), "mutants": mutant_rows(), "packages": package_rows()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dataset():
    return CorpusGenerator(CorpusConfig()).generate()


def _golden_package(golden, name: str) -> Dict[str, object]:
    (row,) = [row for row in golden["packages"] if row["id"] == name]
    return row


def _assert_rows_match(actual, expected) -> None:
    assert [row["id"] for row in actual] == [row["id"] for row in expected], (
        "row set differs from the golden; re-record only after an intended change"
    )
    for got, want in zip(actual, expected):
        assert got == want, f"engine diverges from the golden on {want['id']}"


class TestEngineGolden:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_corpus_matches_golden_across_policies_and_seeds(self, golden, dataset, seed):
        """Every template × all five scheduler policies, one seed at a time."""
        expected = [row for row in golden["corpus"] if row["id"].rsplit("@", 1)[1] == str(seed)]
        assert len(expected) * len(SEEDS) == len(golden["corpus"])
        _assert_rows_match(corpus_rows(dataset, seeds=(seed,)), expected)

    def test_mutant_corpus_matches_golden(self, golden):
        """≥30 mutation-engine cases (renames, reorders, workload and channel
        variations, sync-injected negatives): the mutation operators must not
        reach any construct whose behaviour drifted from the oracle."""
        assert len(golden["mutants"]) >= 30
        _assert_rows_match(mutant_rows(), golden["mutants"])

    def test_hand_written_rows_are_all_checked(self, golden):
        assert [row["id"] for row in golden["packages"]] == list(PACKAGES)

    def test_build_error_matches_golden(self, golden):
        row, result = package_run("broken")
        assert result.build_errors  # the broken package really failed to build
        assert row == _golden_package(golden, "broken")

    def test_entry_function_matches_golden(self, golden):
        row, result = package_run("entry")
        assert result.output == ["3"] * result.runs and not result.test_failures
        assert row == _golden_package(golden, "entry")

    def test_overlong_comma_ok_targets_pad_with_nil(self, golden):
        """``v, ok, extra := m[k]`` declares ``extra`` as nil (regression: a
        spread branch once skipped the padding, leaving it undeclared)."""
        row, result = package_run("padding")
        assert not result.test_failures
        assert result.output == ["1 true <nil>"] * result.runs
        assert row == _golden_package(golden, "padding")

    def test_racy_comma_ok_forms_match_golden(self, golden):
        row, result = package_run("comma_ok")
        assert result.reports  # the comma-ok map read races the map write
        assert not result.test_failures
        assert row == _golden_package(golden, "comma_ok")

    def test_golden_rows_are_not_all_alike(self, golden):
        """The oracle exercises both racy and clean packages."""
        rows = golden["corpus"] + golden["mutants"]
        assert any(row["races"] for row in rows)
        assert any(not row["races"] for row in rows)
        assert len({row["digest"] for row in rows}) > len(rows) // 2


class TestProgramCache:
    def test_same_source_hits_cache(self):
        package = GoPackage(
            name="cached", files=[GoFile("a.go", "package cached\nfunc A() int { return 1 }\n")]
        )
        first = PROGRAM_CACHE.get_or_build(package)
        second = PROGRAM_CACHE.get_or_build(
            GoPackage(name="cached", files=[GoFile("a.go", package.files[0].source)])
        )
        assert first is second
        # Lowering is lazy: only a request that runs the package builds the program.
        assert first.program is None
        program = first.ensure_program()
        assert program is not None and program.code
        assert first.ensure_program() is program

    def test_fingerprint_tracks_content_and_names(self):
        base = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        same = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        renamed = GoPackage(name="p", files=[GoFile("b.go", "package p\n")])
        edited = GoPackage(name="p", files=[GoFile("a.go", "package p\nvar x = 1\n")])
        assert package_fingerprint(base) == package_fingerprint(same)
        assert package_fingerprint(base) != package_fingerprint(renamed)
        assert package_fingerprint(base) != package_fingerprint(edited)

    def test_parse_errors_cached_as_build_failures(self):
        package = GoPackage(
            name="syntax", files=[GoFile("bad.go", "package syntax\nfunc ( {\n")]
        )
        build = PROGRAM_CACHE.get_or_build(package)
        assert build.errors and build.program is None
        again = PROGRAM_CACHE.get_or_build(package)
        assert again is build

    def test_stdlib_registration_invalidates_cached_builds(self):
        """Late ``register_package`` shims must not serve stale lowerings.

        Compiled closures freeze stdlib package/member lookups at lowering
        time, so a build made before a registration would miss the shim; the
        cache tags builds with the stdlib generation and rebuilds instead."""
        from repro.runtime import stdlib
        from repro.runtime.compiler import ProgramCache

        cache = ProgramCache(capacity=4)
        package = GoPackage(
            name="shimmed",
            files=[GoFile("a.go", "package shimmed\nfunc A() int { return 1 }\n")],
        )
        before = cache.get_or_build(package)
        assert cache.get_or_build(package) is before
        stdlib.register_package("shimpkg", {"Answer": 42})
        after = cache.get_or_build(package)
        assert after is not before
        assert after.stdlib_generation == stdlib.generation()
        assert cache.get_or_build(package) is after

    def test_capacity_evicts_least_recently_used(self):
        from repro.runtime.compiler import ProgramCache

        cache = ProgramCache(capacity=2)
        packages = [
            GoPackage(name=f"p{i}", files=[GoFile("a.go", f"package p{i}\n")])
            for i in range(3)
        ]
        builds = [cache.get_or_build(p) for p in packages]
        assert len(cache) == 2
        # p0 was evicted; rebuilding it yields a fresh entry.
        rebuilt = cache.get_or_build(packages[0])
        assert rebuilt is not builds[0]
        assert rebuilt.fingerprint == builds[0].fingerprint


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_engine_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
