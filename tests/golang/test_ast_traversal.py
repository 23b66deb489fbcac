"""Traversal, clone and nesting-limit contracts of the Go-subset AST.

* ``walk`` yields the parent before its children, children in dataclass-field
  order, and keeps its own stack (it works with the recursion limit far below
  the tree's depth);
* ``clone`` returns fresh lists for every list field (``List[str]``
  included) and shares no node with the source;
* the parser refuses nesting past ``MAX_NESTING_DEPTH`` with a positioned,
  cached :class:`GoSyntaxError`, and every tree at the limit walks, clones,
  prints, spans and compiles.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Callable, Dict, List

import pytest

from repro.errors import GoSyntaxError
from repro.golang import analysis
from repro.golang import ast_nodes as ast
from repro.golang import parser
from repro.golang.parser import MAX_NESTING_DEPTH, parse_file
from repro.golang.printer import print_file
from repro.runtime.compiler import PROGRAM_CACHE
from repro.runtime.harness import GoFile, GoPackage

SOURCE = """package p

import "sync"

type Box struct {
	mu    sync.Mutex
	a, b  int
	items []string
}

func (b *Box) Add(xs ...int) (sum int, ok bool) {
	var x, y int = 1, 2
	for i, v := range xs {
		b.mu.Lock()
		sum += v * i
		b.mu.Unlock()
	}
	go func(n int) {
		select {
		case <-make(chan int):
		default:
		}
	}(x + y)
	switch {
	case sum > 0:
		return sum, true
	}
	m := map[string][]int{"k": {1, 2}}
	_ = m
	return 0, false
}
"""


def _all_nodes() -> List[ast.Node]:
    return list(ast.walk(parse_file(SOURCE, "box.go")))


def _expected_children(node: ast.Node) -> List[ast.Node]:
    """Children the slow way: every dataclass field in order."""
    out = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(item for item in value if isinstance(item, ast.Node))
    return out


class TestWalk:
    def test_children_follow_field_order(self):
        for node in _all_nodes():
            assert list(node.children()) == _expected_children(node)

    def test_walk_is_parent_first_preorder(self):
        def recursive(node):
            yield node
            for child in _expected_children(node):
                yield from recursive(child)

        file = parse_file(SOURCE, "box.go")
        assert [id(n) for n in ast.walk(file)] == [id(n) for n in recursive(file)]

    def test_walk_never_recurses(self):
        # A 5,000-deep unary chain built by hand (the parser would refuse it).
        expr: ast.Expr = ast.ident("x")
        for _ in range(5000):
            expr = ast.UnaryExpr(op="-", x=expr)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            count = sum(1 for _ in ast.walk(expr))
            spans = analysis.line_spans(expr)
        finally:
            sys.setrecursionlimit(limit)
        assert count == len(spans) == 5001

    def test_line_spans_equal_node_line_span(self):
        file = parse_file(SOURCE, "box.go")
        spans = analysis.line_spans(file)
        for node in ast.walk(file):
            assert spans[id(node)] == analysis.node_line_span(node)


class TestClone:
    def test_every_list_field_is_a_fresh_list(self):
        for node in _all_nodes():
            copy = ast.clone(node)
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                if isinstance(value, list):
                    assert getattr(copy, f.name) == value
                    assert getattr(copy, f.name) is not value, (type(node).__name__, f.name)

    def test_string_lists_are_not_shared(self):
        file = parse_file(SOURCE, "box.go")
        copy = ast.clone(file)
        for original, copied in zip(ast.walk(file), ast.walk(copy)):
            if isinstance(original, (ast.Field, ast.ValueSpec)):
                assert copied.names == original.names
                copied.names.append("leak")
                assert "leak" not in original.names

    def test_no_node_is_shared(self):
        file = parse_file(SOURCE, "box.go")
        copy = ast.clone(file)
        originals = {id(n) for n in ast.walk(file)}
        copies = list(ast.walk(copy))
        assert len(copies) == len(originals)
        assert not originals & {id(n) for n in copies}
        assert print_file(copy) == print_file(file)

    def test_leaves_are_shared_and_equal(self):
        file = parse_file(SOURCE, "box.go")
        for original, copied in zip(ast.walk(file), ast.walk(ast.clone(file))):
            assert type(copied) is type(original)
            assert copied.pos is original.pos
            assert copied == original


# ---------------------------------------------------------------------------
# Nesting limit
# ---------------------------------------------------------------------------


def _func(body: str) -> str:
    return f"package p\n\nfunc f() {{\n{body}\n}}\n"


#: Each shape maps a nesting count to a source; the count that reaches the
#: limit exactly is found by search, so the table does not restate how many
#: levels each construct costs.
SHAPES: Dict[str, Callable[[int], str]] = {
    "parens": lambda n: _func("x := " + "(" * n + "1" + ")" * n + "\n_ = x"),
    "blocks": lambda n: _func("{" * n + "}" * n),
    "ifs": lambda n: _func("x := 1\n" + "if x > 0 {\n" * n + "x++\n" + "}\n" * n),
    "else_ifs": lambda n: _func("x := 1\nif x == 0 {\n}" + "".join(
        f" else if x == {i} {{\n}}" for i in range(1, n)) + "\n"),
    "closures": lambda n: _func("func() {\n" * n + "}()\n" * n),
    "goroutines": lambda n: _func("go func() {\n" * n + "}()\n" * n),
    "unary": lambda n: _func("x := " + "^ " * n + "1\n_ = x"),
    "composites": lambda n: _func("x := " + "[]interface{}{" * n + "}" * n + "\n_ = x"),
    "types": lambda n: _func("var x " + "[]" * n + "int\n_ = x"),
    "binary": lambda n: _func("x := " + " + ".join(["1"] * n) + "\n_ = x"),
    "calls": lambda n: _func("x := g" + "()" * n + "\n_ = x"),
    "selectors": lambda n: _func("var s struct{ a int }\nx := s" + ".a" * n + "\n_ = x"),
    "switches": lambda n: _func("switch {\ncase true:\n" * n + "}\n" * n),
    "labels": lambda n: _func("".join(f"L{i}:\n" for i in range(n)) + "for {\nbreak\n}"),
}


def _parses(source: str) -> bool:
    try:
        parser.Parser(source, "deep.go").parse_file()
    except GoSyntaxError:
        return False
    return True


def _deepest(shape: str) -> int:
    """The largest count the parser accepts for ``shape``."""
    low, high = 1, 2 * MAX_NESTING_DEPTH + 8
    assert _parses(SHAPES[shape](low)) and not _parses(SHAPES[shape](high))
    while low + 1 < high:
        middle = (low + high) // 2
        if _parses(SHAPES[shape](middle)):
            low = middle
        else:
            high = middle
    return low


def _in_thread(fn: Callable[[], object]) -> object:
    """Run ``fn`` on a fresh thread (as a served request is) and return its
    result, re-raising its exception."""
    box: Dict[str, object] = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestNestingLimit:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_tree_at_the_limit_is_usable(self, shape):
        count = _deepest(shape)
        source = SHAPES[shape](count)

        def exercise():
            file = parser.Parser(source, f"{shape}.go").parse_file()
            nodes = list(ast.walk(file))
            copy = ast.clone(file)
            text = print_file(copy)
            spans = analysis.line_spans(file)
            analysis.find_enclosing_function(file, 4)
            package = GoPackage("p", [GoFile(f"{shape}.go", source)])
            build = PROGRAM_CACHE.get_or_build(package)
            assert not build.errors
            assert build.ensure_program() is not None
            return len(nodes), len(spans), text

        nodes, spans, text = _in_thread(exercise)
        assert nodes == spans
        assert text == print_file(parser.Parser(source, "again.go").parse_file())

    @pytest.mark.parametrize("shape", ["parens", "blocks", "closures", "binary"])
    def test_one_past_the_limit_is_a_positioned_syntax_error(self, shape):
        source = SHAPES[shape](_deepest(shape) + 1)
        with pytest.raises(GoSyntaxError) as caught:
            parser.Parser(source, "deep.go").parse_file()
        error = caught.value
        assert error.message == f"nesting deeper than {MAX_NESTING_DEPTH} levels"
        assert error.filename == "deep.go" and error.line >= 3 and error.column >= 1

    def test_far_past_the_limit_is_a_syntax_error_not_recursion(self):
        for source in (SHAPES["parens"](400), SHAPES["blocks"](2000),
                       SHAPES["unary"](3000), SHAPES["types"](3000)):
            with pytest.raises(GoSyntaxError):
                parser.Parser(source, "deep.go").parse_file()

    def test_the_error_is_cached_like_other_syntax_errors(self):
        source = SHAPES["blocks"](2000)
        errors = []
        for _ in range(2):
            with pytest.raises(GoSyntaxError) as caught:
                parse_file(source, "deep.go")
            errors.append(caught.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])
        with parser._parse_cache_lock:
            assert isinstance(parser._parse_cache[("deep.go", source)], GoSyntaxError)

    def test_a_served_detect_of_a_too_deep_package_is_a_build_error(self):
        from repro.core.config import DrFixConfig
        from repro.service import DetectRequest, DrFixService

        package = GoPackage("deep", [
            GoFile("deep.go", SHAPES["blocks"](2000).replace("package p", "package deep")),
            GoFile("deep_test.go", "package deep\n\nimport \"testing\"\n\n"
                                   "func TestF(t *testing.T) {\n\tf()\n}\n"),
        ])
        with DrFixService(DrFixConfig(model="gpt-4o"), database=None) as service:
            response = service.call(DetectRequest(package=package, runs=2), timeout=60)
        assert response.ok, response.detail
        assert response.payload["built"] is False
        assert any("nesting deeper than" in error for error in response.payload["build_errors"])
