"""Front-end equivalence: token streams and syntax errors match a recorded golden.

``data/token_golden.json`` holds, for every template source (two seeds), the
32-case mutant corpus and a list of lexer edge cases, a digest of the token
stream (kind, text, line, column) with and without comments, plus the exact
message, line and column of every syntax-error fixture.  The file was recorded
with the original character-by-character lexer; the regex lexer must
reproduce it exactly.  Re-record (only after an intended change) with::

    PYTHONPATH=src python tests/golang/test_frontend_equivalence.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GoSyntaxError
from repro.golang.lexer import tokenize
from repro.golang.parser import Parser
from repro.golang.tokens import TokenKind

GOLDEN = Path(__file__).parent / "data" / "token_golden.json"

#: Valid sources that probe the lexer's corner cases (numbers, escapes,
#: comments and automatic semicolon insertion, Unicode, CRLF).
EDGE_SOURCES: List[str] = [
    "",
    "\n\n\n",
    "x",
    "x := .5 + 3. + 1.5e-3 + 1e+ + 1E5 + 0x1F_f + 0X + 1_000 + x.5 + ..5 + 1.5.5",
    "a&^=b<<=c>>=d...e<-f&&g||h!=i<=j>=k:=l++\nm--\n",
    '"a\\"b" "\\x41" "tab\\tnew\\n\\0\\\\" `raw\nmulti` \'\\n\' \'\'\' \'\\\'\' \'x\'\n',
    '"a\\\nb"\n\'\n\'\n',
    "a /* one\nline */ b /* same */ c\n/* tail\n*/",
    "x // trailing\ny // another\n// only a comment\n",
    "return\n}\n)\n]\n++\n--\nbreak\ncontinue\nfallthrough\nfoo\n1\n1.5\n\"s\"\n'c'\n",
    "héllo := ünïcode_1 + _x9\n",
    "x\r\ny\r\n\tz;w\n",
    "package p\n\nfunc F() {\n\tfor i := 0; i < 10; i++ {\n\t\tgo func() { _ = i }()\n\t}\n}\n",
]

#: Sources that must fail, as ``(entry point, source)``; ``lex`` runs
#: ``tokenize`` and ``parse`` runs the full parser.
SYNTAX_ERROR_FIXTURES: List[Tuple[str, str]] = [
    ("lex", "a := $b"),
    ("lex", "/* never closed"),
    ("lex", "x := 1\n/* never\nclosed"),
    ("lex", 's := "oops'),
    ("lex", 's := "oops\nnext"'),
    ("lex", "`raw\nnever closed"),
    ("lex", "'"),
    ("lex", "'ab'"),
    ("lex", "''"),
    ("lex", "'\\'x"),
    ("lex", "x := 1\n\ty := @"),
    ("lex", "a\fb"),
    ("lex", "x := 1 # 2"),
    ("parse", "func F() {}\n"),
    ("parse", "package p\nfunc F( {\n"),
    ("parse", "package p\nfunc F() {\n\tx := \n}\n"),
    ("parse", "package p\nvar = 1\n"),
    ("parse", "package p\nfunc F() {\n\tif x {\n}\n"),
    ("parse", "package p\nfunc F() { a := 1 b := 2 }\n"),
    ("parse", "package p\nfunc F() {\n\ts := \"unterminated\n}\n"),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stream_digest(source: str, keep_comments: bool) -> str:
    tokens = tokenize(source, "golden.go", keep_comments=keep_comments)
    rows = [[t.kind.name, t.text, t.line, t.column] for t in tokens]
    return _digest(json.dumps(rows, ensure_ascii=False))


def _corpus_sources() -> Iterator[str]:
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.corpus.templates import all_templates

    cases = [template(seed, noise) for template in all_templates()
             for seed, noise in ((321, 1), (97, 2))]
    generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
    cases.extend(generator.generate_mutant_corpus(32, mutants_per_base=4))
    for case in cases:
        for package in (case.package, case.fixed_package):
            for file in package.files:
                yield file.source


def _error_outcome(entry: str, source: str) -> Dict[str, object]:
    try:
        if entry == "lex":
            tokenize(source, "fixture.go")
        else:
            Parser(source, "fixture.go").parse_file()
    except GoSyntaxError as exc:
        return {"message": exc.message, "line": exc.line, "column": exc.column}
    return {"message": None, "line": None, "column": None}


def record() -> Dict[str, object]:
    streams = {}
    for source in list(_corpus_sources()) + EDGE_SOURCES:
        streams[_digest(source)] = [stream_digest(source, False),
                                    stream_digest(source, True)]
    errors = [dict(entry=entry, source=source, **_error_outcome(entry, source))
              for entry, source in SYNTAX_ERROR_FIXTURES]
    return {"streams": dict(sorted(streams.items())), "errors": errors}


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


class TestTokenStreamGolden:
    def test_corpus_token_streams_match_golden(self, golden):
        sources = set(_corpus_sources())
        assert len(sources) > 100
        for source in sources:
            key = _digest(source)
            assert key in golden["streams"], "corpus source not in the golden; re-record"
            expected = golden["streams"][key]
            assert [stream_digest(source, False), stream_digest(source, True)] == expected, (
                f"token stream diverges from the golden for:\n{source[:400]}"
            )

    @pytest.mark.parametrize("source", EDGE_SOURCES)
    def test_edge_token_streams_match_golden(self, golden, source):
        expected = golden["streams"][_digest(source)]
        assert [stream_digest(source, False), stream_digest(source, True)] == expected

    def test_syntax_error_fixtures_match_golden(self, golden):
        assert [(e["entry"], e["source"]) for e in golden["errors"]] == SYNTAX_ERROR_FIXTURES
        for entry in golden["errors"]:
            assert entry["message"] is not None
            outcome = _error_outcome(entry["entry"], entry["source"])
            assert outcome == {k: entry[k] for k in ("message", "line", "column")}, entry


# ---------------------------------------------------------------------------
# Property: every token sits where the source says it does
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[a-z_][a-zA-Z0-9_]{0,6}", fullmatch=True)
atoms = st.one_of(
    identifiers,
    st.integers(min_value=0, max_value=10_000).map(str),
    st.from_regex(r"[0-9]{1,3}\.[0-9]{1,3}(e[+-]?[0-9])?", fullmatch=True),
    st.from_regex(r"[a-zA-Z0-9 _]{0,8}", fullmatch=True).map(lambda s: f'"{s}"'),
    st.sampled_from(["'x'", "`raw`", "0x1F"]),
)
separators = st.sampled_from([" ", "  ", "\t", "\n", " // note\n", " /* c */ ", "/* a\nb */"])
operators = st.sampled_from(["+", "-", "*", "/", "%", "&&", "||", "<-", "<<", ">>", "&^",
                             "==", "!=", "<=", ">=", ":=", "=", "+=", ",", ";", ".",
                             "(", ")", "[", "]", "{", "}", "++", "--", "...", ":"])


@st.composite
def generated_functions(draw) -> str:
    """A function whose body is an arbitrary (not necessarily parseable)
    sequence of tokens, blanks and comments."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        parts.append(draw(st.one_of(atoms, operators)))
        parts.append(draw(separators))
    return "package p\n\nfunc F() {\n" + "".join(parts) + "\n}\n"


def _offset(source: str, line: int, column: int) -> int:
    starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    return starts[line - 1] + column - 1


_ASI_KINDS = {TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING,
              TokenKind.CHAR, TokenKind.BREAK, TokenKind.CONTINUE, TokenKind.FALLTHROUGH,
              TokenKind.RETURN, TokenKind.INC, TokenKind.DEC, TokenKind.RPAREN,
              TokenKind.RBRACK, TokenKind.RBRACE}


class TestTokenPositions:
    @given(generated_functions())
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_located_and_semicolons_inserted_by_rule(self, source):
        tokens = tokenize(source, keep_comments=True)
        assert tokens[-1].kind is TokenKind.EOF
        assert _offset(source, tokens[-1].line, tokens[-1].column) == len(source)
        last_real = None
        for token in tokens[:-1]:
            at = _offset(source, token.line, token.column)
            if token.kind is TokenKind.SEMICOLON and token.text == "\n":
                # Inserted at a newline, just after a multi-line comment or at
                # the end, and only after a token kind that ends a statement.
                assert last_real in _ASI_KINDS
                assert source[at:at + 1] in ("\n", "") or source[:at].endswith("*/")
            elif token.kind is TokenKind.STRING:
                assert source[at] in "\"`"
            elif token.kind is TokenKind.CHAR:
                assert source[at] == "'"
            else:
                assert source.startswith(token.text, at), (token, source)
            if token.kind is not TokenKind.COMMENT:
                last_real = token.kind
        assert last_real not in _ASI_KINDS


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_frontend_equivalence.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
