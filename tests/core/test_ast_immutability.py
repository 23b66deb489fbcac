"""Guard: no stage writes into a tree held by the shared parse cache.

``parse_file`` hands every caller the same tree for the same text, so a stage
that mutates it in place would silently change what every later stage sees.
These tests run the whole pipeline (extract, diagnose, retrieve, skeletonize,
generate, patch, compile, validate) over every template and a fixed mutant
slice, then re-parse every cached source without the cache and compare the
trees attribute by attribute — ``vars()``, not dataclass equality, so an
attribute any stage sticks onto a cached node (such as a loop label) counts.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import all_templates
from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang import parser
from repro.golang.parser import Parser, parse_file
from repro.runtime.compiler import PROGRAM_CACHE
from repro.runtime.harness import GoFile, GoPackage, run_package_tests


def assert_same_tree(cached, fresh, path: str = "file") -> None:
    """Recursive comparison over ``vars()`` of every node."""
    assert type(cached) is type(fresh), path
    if isinstance(cached, ast.Node):
        assert vars(cached).keys() == vars(fresh).keys(), f"attributes differ at {path}"
        for name, value in vars(cached).items():
            assert_same_tree(value, vars(fresh)[name], f"{path}.{name}")
    elif isinstance(cached, list):
        assert len(cached) == len(fresh), f"length differs at {path}"
        for index, (a, b) in enumerate(zip(cached, fresh)):
            assert_same_tree(a, b, f"{path}[{index}]")
    else:
        assert cached == fresh, f"value differs at {path}: {cached!r} != {fresh!r}"


def assert_cache_untouched() -> None:
    with parser._parse_cache_lock:
        entries = list(parser._parse_cache.items())
    assert entries
    for (filename, source), outcome in entries:
        if isinstance(outcome, GoSyntaxError):
            with pytest.raises(GoSyntaxError) as fresh:
                Parser(source, filename).parse_file()
            assert (outcome.message, outcome.line, outcome.column) == (
                fresh.value.message, fresh.value.line, fresh.value.column)
        else:
            assert_same_tree(outcome, Parser(source, filename).parse_file(), filename)


@pytest.fixture
def empty_cache():
    """Start from empty parse and build caches, so every stage — the compiler
    included — parses through the shared cache inside the test."""
    with parser._parse_cache_lock:
        parser._parse_cache.clear()
    PROGRAM_CACHE.clear()
    yield


def test_pipeline_never_mutates_cached_trees(empty_cache):
    config = DrFixConfig(model="gpt-4o")
    cases = [template(321, 1) for template in all_templates()]
    mutants = CorpusGenerator(CorpusConfig(seed=606, noise_level=1)).generate_mutant_corpus(
        32, mutants_per_base=4)
    cases.extend(mutants[:8])
    database = ExampleDatabase.from_cases([template(1009, 1) for template in all_templates()],
                                          config)
    fixed = 0
    for case in cases:
        outcome = DrFix(case.package, config=config, database=database).fix_case(case)
        fixed += bool(outcome.fixed)
    assert fixed > len(cases) // 3
    assert_cache_untouched()


def test_cached_syntax_error_reraises_identically(empty_cache):
    source = "package p\nfunc F() {\n\tx := \n}\n"
    errors = []
    for _ in range(3):
        with pytest.raises(GoSyntaxError) as caught:
            parse_file(source, "bad.go")
        errors.append(caught.value)
    assert len({id(error) for error in errors}) == 3
    assert {(e.message, e.filename, e.line, e.column, str(e)) for e in errors} == {
        ("expected expression, found '}' ('}')", "bad.go", 4, 1,
         "bad.go:4:1: expected expression, found '}' ('}')")}
    assert_cache_untouched()


def test_same_text_is_parsed_once_and_shared(empty_cache):
    source = "package p\n\nfunc F() int {\n\treturn 1\n}\n"
    assert parse_file(source, "a.go") is parse_file(source, "a.go")
    assert parse_file(source, "b.go") is not parse_file(source, "a.go")


def test_cache_is_bounded(empty_cache):
    for index in range(parser._PARSE_CACHE_CAPACITY + 5):
        parse_file(f"package p\nvar x = {index}\n")
    assert len(parser._parse_cache) == parser._PARSE_CACHE_CAPACITY
    # Least recently used entries are the ones evicted.
    assert ("<source>", "package p\nvar x = 0\n") not in parser._parse_cache


def test_concurrent_misses_converge_on_one_tree(empty_cache):
    sources = [f"package p\n\nvar x{i} = {i}\n\nfunc F{i}() int {{\n\treturn x{i}\n}}\n"
               for i in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            trees = list(pool.map(lambda i: parse_file(sources[i % 40]), range(800),
                                  timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for index, tree in enumerate(trees):
        assert tree is parse_file(sources[index % 40])
    assert len(parser._parse_cache) == 40
    assert_cache_untouched()


LABELED = """package main

import "testing"

func TestLabels(t *testing.T) {
	count := 0
Outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 2 {
				continue Outer
			}
			if i == 2 {
				break Outer
			}
			count++
		}
	}
Items:
	for _, v := range []int{1, 2, 3} {
		for range []int{0} {
			if v == 2 {
				break Items
			}
		}
		count += 10
	}
	if count != 14 {
		t.Errorf("count = %d", count)
	}
}
"""


def test_labeled_loops_run_and_leave_the_tree_alone(empty_cache):
    package = GoPackage("labels", [GoFile("labels_test.go", LABELED)])
    result = run_package_tests(package, runs=1)
    assert result.tests_discovered == 1
    assert not result.build_errors and not result.test_failures, result
    assert_cache_untouched()
