"""Tokenizer for the Go subset, including automatic semicolon insertion.

The lexer follows the Go specification closely enough for the corpus programs
used in this reproduction: identifiers, keywords, integer/float/string/rune
literals, all operators used by the subset, line (`//`) and block (`/* */`)
comments, and the automatic-semicolon-insertion (ASI) rule — a newline
terminates a statement when the last token on the line is an identifier, a
literal, one of ``break continue fallthrough return``, one of ``++ --``, or one
of ``) ] }``.

Scanning is one compiled alternation (:data:`_MASTER`): each match is
dispatched on ``lastgroup``, and line/column come from a bisect over the
offsets where lines start.  ASI is decided from the kind of the last
non-comment token whenever a newline (or a block comment spanning lines, or
the end of input) is reached.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List

from repro.errors import GoSyntaxError
from repro.golang.tokens import KEYWORDS, Position, Token, TokenKind

#: Token kinds after which a newline triggers automatic semicolon insertion.
_ASI_KINDS = frozenset({
    TokenKind.IDENT,
    TokenKind.INT,
    TokenKind.FLOAT,
    TokenKind.STRING,
    TokenKind.CHAR,
    TokenKind.BREAK,
    TokenKind.CONTINUE,
    TokenKind.FALLTHROUGH,
    TokenKind.RETURN,
    TokenKind.INC,
    TokenKind.DEC,
    TokenKind.RPAREN,
    TokenKind.RBRACK,
    TokenKind.RBRACE,
})

#: Operator and delimiter spellings — every kind whose value is punctuation.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}
_ESCAPE = re.compile(r"\\([\s\S])")

# Each match skips leading blanks, then tries the alternatives in order.  The
# ``*_OPEN`` groups match the longest prefix of an unterminated literal or
# comment: the error is reported where that prefix ends, which is where a
# character-at-a-time scan gives up.  Operators are listed longest first so
# matching is greedy.
_MASTER = re.compile(r"[ \t\r]*(?:" + "|".join([
    r"(?P<NL>\n)",
    r"(?P<LINE_COMMENT>//[^\n]*)",
    r"(?P<BLOCK_COMMENT>/\*[\s\S]*?\*/)",
    r"(?P<COMMENT_OPEN>/\*[\s\S]*)",
    r"(?P<IDENT>[^\W\d]\w*)",
    r"(?P<HEX>0[xX][0-9a-fA-F_]*)",
    r"(?P<NUMBER>(?:\d[\d_]*(?:\.\d+)?|\.\d+)(?:[eE](?:[+-]\d*|\d+))?)",
    r'(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*")',
    r'(?P<STRING_OPEN>"(?:[^"\\\n]|\\[\s\S])*)',
    r"(?P<RAW>`[^`]*`)",
    r"(?P<RAW_OPEN>`[^`]*)",
    r"(?P<CHAR>'(?:\\[\s\S]|[^\\])')",
    r"(?P<CHAR_OPEN>'(?:\\[\s\S]?|[^\\])?)",
    "(?P<OP>" + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + ")",
    r"(?P<BAD>[\s\S])",
    r"(?P<END>\Z)",
]) + ")")

_UNTERMINATED = {
    "COMMENT_OPEN": "unterminated block comment",
    "STRING_OPEN": "unterminated string literal",
    "RAW_OPEN": "unterminated raw string literal",
    "CHAR_OPEN": "unterminated rune literal",
}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), text)


class Lexer:
    """Convert Go source text into a list of :class:`Token` objects."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self._line_starts = [0]
        self._line_starts.extend(m.end() for m in re.finditer("\n", source))

    def _position(self, offset: int) -> Position:
        line = bisect_right(self._line_starts, offset)
        return Position(line, offset - self._line_starts[line - 1] + 1)

    def tokenize(self, keep_comments: bool = False) -> List[Token]:
        """Scan the full source and return the token list (ending with EOF)."""
        tokens: List[Token] = []
        emit = tokens.append
        position = self._position
        last = None  # kind of the last non-comment token, for ASI
        for match in _MASTER.finditer(self.source):
            group = match.lastgroup
            if group == "END":  # only trailing blanks were left
                break
            index = match.lastindex
            text = match.group(index)
            start = match.start(index)
            if group == "IDENT":
                last = KEYWORDS.get(text, TokenKind.IDENT)
                emit(Token(last, text, position(start)))
            elif group == "OP":
                last = _OPERATORS[text]
                emit(Token(last, text, position(start)))
            elif group == "NL":
                if last in _ASI_KINDS:
                    last = TokenKind.SEMICOLON
                    emit(Token(last, "\n", position(start)))
            elif group == "NUMBER" or group == "HEX":
                last = TokenKind.FLOAT if group == "NUMBER" and (
                    "." in text or "e" in text or "E" in text) else TokenKind.INT
                emit(Token(last, text, position(start)))
            elif group == "STRING" or group == "RAW":
                body = text[1:-1]
                last = TokenKind.STRING
                emit(Token(last, _unescape(body) if group == "STRING" else body,
                           position(start)))
            elif group == "CHAR":
                last = TokenKind.CHAR
                emit(Token(last, _unescape(text[1:-1]), position(start)))
            elif group == "LINE_COMMENT" or group == "BLOCK_COMMENT":
                if keep_comments:
                    emit(Token(TokenKind.COMMENT, text, position(start)))
                # A block comment containing a newline acts like a newline for ASI.
                if group == "BLOCK_COMMENT" and "\n" in text and last in _ASI_KINDS:
                    last = TokenKind.SEMICOLON
                    emit(Token(last, "\n", position(match.end())))
            elif group == "BAD":
                raise self._error(f"unexpected character {text!r}", start)
            else:
                raise self._error(_UNTERMINATED[group], match.end())
        end = position(len(self.source))
        if last in _ASI_KINDS:
            emit(Token(TokenKind.SEMICOLON, "\n", end))
        emit(Token(TokenKind.EOF, "", end))
        return tokens

    def _error(self, message: str, offset: int) -> GoSyntaxError:
        pos = self._position(offset)
        return GoSyntaxError(message, self.filename, pos.line, pos.column)


def tokenize(source: str, filename: str = "<source>", keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` and return the token list."""
    return Lexer(source, filename).tokenize(keep_comments=keep_comments)
