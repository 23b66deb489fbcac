"""The skeleton memo and the package-clause test of ``skeletonize_source``.

``Skeletonizer.skeletonize_source`` keeps one result per distinct
``(source, racy_lines, racy_variables, filename, preserve_names)``.  A hit
must equal an uncached computation, every call must return a result the
caller may edit freely, and concurrent misses must converge.  A bare
function is wrapped in a package clause only when the source does not open
with one, so a parameter named ``packageName`` no longer breaks retrieval.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import skeleton as skeleton_module
from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix
from repro.core.race_info import RaceInfoExtractor
from repro.core.skeleton import Skeletonizer, clear_skeleton_cache
from repro.corpus.templates import all_templates
from repro.embedding import embedder as embedder_module
from repro.golang.parser import has_package_clause
from repro.llm.strategies.base import parse_scope
from repro.runtime.harness import GoFile, GoPackage, run_package_tests


def uncached(skeletonizer: Skeletonizer, *args, **kwargs):
    clear_skeleton_cache()
    result = skeletonizer.skeletonize_source(*args, **kwargs)
    clear_skeleton_cache()
    return result


def as_tuple(result):
    return (result.text, result.racy_variables, result.kept_functions, result.rename_map)


@pytest.fixture(autouse=True)
def empty_memo():
    clear_skeleton_cache()
    yield
    clear_skeleton_cache()


@pytest.fixture(scope="module")
def template_items():
    """Every code item the pipeline would retrieve for, per template, plus
    each template's database example (the population-time query)."""
    config = DrFixConfig(model="gpt-4o")
    items = []
    for template in all_templates():
        case = template(321, 1)
        items.append((case.racy_source(), (), (case.racy_variable,) if case.racy_variable else ()))
        report = case.race_report(runs=config.detection_runs)
        if report is None:
            continue
        info = RaceInfoExtractor(case.package, config).extract(report)
        for item in info.ordered_items(config):
            items.append((item.code, tuple(item.racy_lines),
                          (item.racy_variable,) if item.racy_variable else ()))
    assert len(items) > 60
    return items


class TestMemo:
    def test_hit_equals_uncached_for_every_template_item(self, template_items):
        skeletonizer = Skeletonizer()
        for code, lines, variables in template_items:
            expected = as_tuple(uncached(skeletonizer, code, racy_lines=lines,
                                         racy_variables=variables))
            miss = skeletonizer.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
            hit = skeletonizer.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
            assert as_tuple(miss) == expected
            assert as_tuple(hit) == expected

    def test_each_call_returns_a_fresh_result(self, template_items):
        skeletonizer = Skeletonizer()
        code, lines, variables = template_items[1]
        first = skeletonizer.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
        expected = as_tuple(first)
        expected = (expected[0], list(expected[1]), list(expected[2]), dict(expected[3]))
        first.racy_variables.append("leaked")
        first.kept_functions.clear()
        first.rename_map["leaked"] = "v99"
        second = skeletonizer.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
        assert as_tuple(second) == expected
        assert second.racy_variables is not first.racy_variables
        assert second.rename_map is not first.rename_map

    def test_racy_lines_are_part_of_the_key(self, template_items):
        skeletonizer = Skeletonizer()
        distinct = 0
        for code, lines, _ in template_items:
            if not lines:
                continue
            other = (lines[0] + 1,) if len(lines) > 1 else ()
            expected = as_tuple(uncached(skeletonizer, code, racy_lines=other))
            skeletonizer.skeletonize_source(code, racy_lines=lines)
            got = as_tuple(skeletonizer.skeletonize_source(code, racy_lines=other))
            assert got == expected
            distinct += got != as_tuple(skeletonizer.skeletonize_source(code, racy_lines=lines))
        assert distinct > 0

    def test_racy_variables_are_part_of_the_key(self, template_items):
        skeletonizer = Skeletonizer()
        distinct = 0
        for code, _, variables in template_items:
            if not variables:
                continue
            expected = as_tuple(uncached(skeletonizer, code))
            skeletonizer.skeletonize_source(code, racy_variables=variables)
            got = as_tuple(skeletonizer.skeletonize_source(code))
            assert got == expected
            distinct += got != as_tuple(skeletonizer.skeletonize_source(code, racy_variables=variables))
        assert distinct > 0

    def test_preserve_names_are_part_of_the_key(self, template_items):
        code, lines, variables = template_items[1]
        plain = Skeletonizer()
        base = as_tuple(plain.skeletonize_source(code, racy_lines=lines, racy_variables=variables))
        renamed = [name for name in base[3] if not name.startswith("racyVar")]
        assert renamed
        preserving = Skeletonizer(preserve_names=renamed)
        expected = as_tuple(uncached(preserving, code, racy_lines=lines, racy_variables=variables))
        assert expected != base
        plain.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
        got = preserving.skeletonize_source(code, racy_lines=lines, racy_variables=variables)
        assert as_tuple(got) == expected

    def test_filename_is_part_of_the_key(self):
        code = "func F() {\n\tx := 1\n\t_ = x\n}\n"
        skeletonizer = Skeletonizer()
        skeletonizer.skeletonize_source(code, filename="a.go")
        skeletonizer.skeletonize_source(code, filename="b.go")
        assert len(skeleton_module._skeleton_cache) == 2

    def test_syntax_errors_are_not_memoized(self):
        skeletonizer = Skeletonizer()
        for _ in range(2):
            with pytest.raises(Exception):
                skeletonizer.skeletonize_source("package p\nfunc F( {\n")
        assert not skeleton_module._skeleton_cache

    def test_memo_is_bounded_lru(self):
        skeletonizer = Skeletonizer()
        capacity = skeleton_module._SKELETON_CACHE_CAPACITY
        for index in range(capacity + 3):
            skeletonizer.skeletonize_source(f"func F() {{\n\tx := {index}\n\t_ = x\n}}\n")
        assert len(skeleton_module._skeleton_cache) == capacity
        assert not any(key[0] == "func F() {\n\tx := 0\n\t_ = x\n}\n"
                       for key in skeleton_module._skeleton_cache)

    def test_concurrent_misses_converge(self, template_items):
        skeletonizer = Skeletonizer()
        items = template_items[:24]
        expected = [as_tuple(uncached(skeletonizer, code, racy_lines=lines, racy_variables=variables))
                    for code, lines, variables in items]

        def call(index):
            code, lines, variables = items[index % len(items)]
            return skeletonizer.skeletonize_source(code, racy_lines=lines, racy_variables=variables)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(call, range(len(items) * 8), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for index, result in enumerate(results):
            assert as_tuple(result) == expected[index % len(items)]
        assert len({id(result.rename_map) for result in results}) == len(results)
        assert len(skeleton_module._skeleton_cache) == len({
            (code, lines, variables) for code, lines, variables in items})


class TestTokenCache:
    def test_cached_token_hash_equals_a_fresh_one(self):
        embedder_module.clear_token_cache()
        embedder = embedder_module.CodeEmbedder()
        text = "func racyVar1() { mu.Lock(); x++; mu.Unlock() }"
        cold = embedder.embed(text)
        assert embedder_module._hash_token.cache_info().currsize > 0
        warm = embedder.embed(text)
        assert (cold == warm).all()
        embedder_module.clear_token_cache()
        assert embedder_module._hash_token.cache_info().currsize == 0
        assert embedder_module._hash_token.cache_info().maxsize == embedder_module._TOKEN_CACHE_CAPACITY


# ---------------------------------------------------------------------------
# Package clause
# ---------------------------------------------------------------------------


class TestPackageClause:
    @pytest.mark.parametrize("source, expected", [
        ("package p\n", True),
        ("\n\n  package p\n", True),
        ("// Package p does things.\npackage p\n", True),
        ("/* header\n */\npackage p\n", True),
        ("func f(packageName string) {}\n", False),
        ("// see package docs\nfunc f() {}\n", False),
        ("// one\n// package two\nfunc f() {}\n", False),
        ("/* a */ x /* b */ package p\n", False),
        ("/* a */ /* b */ package p\n", True),
        ("packages := 1\n", False),
        ("/* unterminated package\n", False),
        ("", False),
    ])
    def test_has_package_clause(self, source, expected):
        assert has_package_clause(source) is expected

    def test_parameter_named_package_is_wrapped(self):
        code = ("func Collect(packageName string, items []string) int {\n"
                "\ttotal := 0\n\tvar wg sync.WaitGroup\n"
                "\tfor _, item := range items {\n\t\twg.Add(1)\n"
                "\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\ttotal += len(item)\n\t\t}()\n\t}\n"
                "\twg.Wait()\n\treturn total\n}\n")
        result = Skeletonizer().skeletonize_source(code, racy_lines=[8])
        assert "go func()" in result.text and "racyVar1" in result.text
        scope = parse_scope(code)
        assert scope is not None and scope.wrapped

    def test_file_with_a_leading_comment_is_not_wrapped(self):
        code = "// Package p.\npackage p\n\nfunc F() {\n\tgo func() {}()\n}\n"
        scope = parse_scope(code)
        assert scope is not None and not scope.wrapped
        assert "go func()" in Skeletonizer().skeletonize_source(code).text


RACY_SOURCE = """package demo

import "sync"

func Collect(packageName string, items []string) int {
	total := 0
	var wg sync.WaitGroup
	for _, item := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total = total + len(item)
		}()
	}
	wg.Wait()
	return total
}
"""

RACY_TEST = """package demo

import "testing"

func TestCollect(t *testing.T) {
	Collect("demo", []string{"a", "bb", "ccc"})
}
"""


def test_fix_report_retrieves_for_a_parameter_named_package():
    config = DrFixConfig(model="gpt-4o")
    package = GoPackage("demo", [GoFile("collect.go", RACY_SOURCE),
                                 GoFile("collect_test.go", RACY_TEST)])
    report = run_package_tests(package, runs=config.detection_runs).reports[0]
    database = ExampleDatabase.from_cases([template(1009, 1) for template in all_templates()],
                                          config)
    pipeline = DrFix(package, config=config, database=database)
    outcome = pipeline.fix_report(report)
    assert pipeline.generator.retrievals > 0
    assert outcome.attempted
