"""Traversal golden: walk order, line spans and enclosing functions match a record.

``data/traversal_golden.json`` holds, for every template source (two seeds)
and the 32-case mutant corpus, digests of:

* the :func:`~repro.golang.ast_nodes.walk` order of the parsed file (node type
  name and position of every node);
* :func:`~repro.golang.analysis.node_line_span` of every node, in walk order;
* :func:`~repro.golang.analysis.find_enclosing_function` for every line
  (declaration name and the innermost closure's position).

The file was recorded with the recursive walker that re-walked every subtree
for each span; the explicit-stack walker and the one-pass
:func:`~repro.golang.analysis.line_spans` must reproduce it exactly.
Re-record (only after an intended change) with::

    PYTHONPATH=src python tests/golang/test_traversal_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.golang import analysis
from repro.golang import ast_nodes as ast
from repro.golang.parser import Parser

from test_frontend_equivalence import _corpus_sources

GOLDEN = Path(__file__).parent / "data" / "traversal_golden.json"


def _digest(payload: object) -> str:
    text = json.dumps(payload, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _parse(source: str) -> ast.File:
    return Parser(source, "golden.go").parse_file()


def walk_digest(file: ast.File) -> str:
    return _digest([[type(n).__name__, n.pos.line, n.pos.column] for n in ast.walk(file)])


def spans_digest(spans: List[List[int]]) -> str:
    return _digest(spans)


def old_style_spans(file: ast.File) -> List[List[int]]:
    return [list(analysis.node_line_span(n)) for n in ast.walk(file)]


def one_pass_spans(file: ast.File) -> List[List[int]]:
    spans = analysis.line_spans(file)
    return [list(spans[id(n)]) for n in ast.walk(file)]


def enclosing_digest(file: ast.File, source: str) -> str:
    rows = []
    for line in range(0, source.count("\n") + 3):
        found = analysis.find_enclosing_function(file, line)
        if found is None:
            rows.append(None)
        else:
            closure = found.closure
            rows.append([found.name, None if closure is None
                         else [closure.pos.line, closure.pos.column]])
    return _digest(rows)


def record() -> Dict[str, object]:
    entries = {}
    for source in sorted(set(_corpus_sources())):
        file = _parse(source)
        entries[_digest(source)] = [walk_digest(file),
                                    spans_digest(old_style_spans(file)),
                                    enclosing_digest(file, source)]
    return {"sources": dict(sorted(entries.items()))}


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["sources"]


@pytest.fixture(scope="module")
def parsed():
    return [(source, _parse(source)) for source in sorted(set(_corpus_sources()))]


class TestTraversalGolden:
    def test_every_corpus_source_is_recorded(self, golden, parsed):
        assert len(parsed) > 100
        for source, _ in parsed:
            assert _digest(source) in golden, "corpus source not in the golden; re-record"

    def test_walk_order_matches_golden(self, golden, parsed):
        for source, file in parsed:
            assert walk_digest(file) == golden[_digest(source)][0], source[:400]

    def test_node_line_spans_match_golden(self, golden, parsed):
        for source, file in parsed:
            assert spans_digest(old_style_spans(file)) == golden[_digest(source)][1], source[:400]

    def test_one_pass_line_spans_match_golden(self, golden, parsed):
        for source, file in parsed:
            assert spans_digest(one_pass_spans(file)) == golden[_digest(source)][1], source[:400]

    def test_enclosing_functions_match_golden(self, golden, parsed):
        for source, file in parsed:
            assert enclosing_digest(file, source) == golden[_digest(source)][2], source[:400]


if __name__ == "__main__":
    if "--record" not in sys.argv[1:]:
        sys.exit("usage: test_traversal_golden.py --record")
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
