"""A small lexer shared by the Easl and Jlite frontends.

Both languages are Java-flavoured, so one tokenizer serves both: it
produces identifiers, punctuation, string literals, and integers, tracking
line/column positions for error messages.  Keywords are not distinguished
at this level; parsers match identifier spellings.  Scanning is one pass
of a single compiled regular expression.  An identifier starts with a
letter (``str.isalpha``) or ``_`` and continues with letters, digits and
``_`` (``str.isalnum``); an integer is a run of ``str.isdigit``
characters.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional


class LexError(Exception):
    """Raised on malformed input."""


class Token:
    """A lexical token.

    ``kind`` is one of ``"ident"``, ``"punct"``, ``"int"``, ``"string"``,
    ``"eof"``.  ``text`` is the exact source spelling (without quotes for
    strings).  Tokens compare and hash by their four fields.
    """

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def _fields(self):
        return (self.kind, self.text, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Token(kind={self.kind!r}, text={self.text!r}, "
            f"line={self.line!r}, column={self.column!r})"
        )

    def __str__(self) -> str:
        if self.kind == "eof":
            return "<end of input>"
        return repr(self.text)


#: one alternative per lexeme class, tried in order at each position: a
#: comment or string opener that cannot close is an error, punctuation
#: lists two-character operators first (maximal munch), and any other
#: character is junk.  ``\w`` is exactly ``str.isalnum`` plus ``_``, but
#: ``\d`` is narrower than ``str.isdigit`` and no class is exactly
#: ``str.isalpha``: identifiers and integers that the first two word
#: alternatives take are exact, and any other word run (one starting
#: with a non-ASCII letter, ``²`` or ``½``) is split by
#: :func:`_append_word`
_TOKEN_RE = re.compile(
    r"""
    (?P<space>[ \t\r]+)
    |(?P<newline>\n)
    |(?P<line_comment>//[^\n]*)
    |(?P<block_comment>/\*.*?\*/)
    |(?P<open_comment>/\*)
    |"(?P<string>[^"\n]*)"
    |(?P<open_string>")
    |(?P<ident>[A-Za-z_]\w*)
    |(?P<int>\d+)
    |(?P<word>\w+)
    |(?P<punct>==|!=|&&|\|\||<=|>=|[{}()\[\];,.=!?<>+\-*/:@])
    |(?P<junk>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely; raises :class:`LexError` on junk."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the current line's first character
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "space" or kind == "line_comment":
            continue
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind == "ident" or kind == "punct" or kind == "int":
            start = match.start()
            append(Token(kind, match.group(), line, start - line_start + 1))
        elif kind == "word":
            start = match.start()
            _append_word(tokens, match.group(), line, start - line_start + 1)
        elif kind == "string":
            start = match.start()
            append(
                Token(kind, match.group(kind), line, start - line_start + 1)
            )
        elif kind == "block_comment":
            text = match.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
        elif kind == "open_comment":
            raise LexError(f"unterminated comment at line {line}")
        elif kind == "open_string":
            raise LexError(f"unterminated string at line {line}")
        else:
            start = match.start()
            raise LexError(
                f"unexpected character {match.group()!r} at line {line}, "
                f"column {start - line_start + 1}"
            )
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


def _append_word(
    tokens: List[Token], text: str, line: int, column: int
) -> None:
    """Append the tokens of ``text``, a run of ``\\w`` characters at
    ``column`` that the ``ident`` and ``int`` alternatives did not take.

    A letter or ``_`` starts an identifier that runs to the end of the
    word; a ``str.isdigit`` character starts an integer, continuing an
    integer token that ends right before it (``1²``); any other word
    character (``½``) is junk."""
    index = 0
    while index < len(text):
        char = text[index]
        if char.isalpha() or char == "_":
            tokens.append(Token("ident", text[index:], line, column + index))
            return
        if not char.isdigit():
            raise LexError(
                f"unexpected character {char!r} at line {line}, "
                f"column {column + index}"
            )
        end = index + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        previous = tokens[-1] if tokens else None
        if (
            index == 0
            and previous is not None
            and previous.kind == "int"
            and previous.line == line
            and previous.column + len(previous.text) == column
        ):
            tokens[-1] = Token(
                "int", previous.text + text[:end], line, previous.column
            )
        else:
            tokens.append(Token("int", text[index:end], line, column + index))
        index = end


class Lexer:
    """A token cursor with the usual peek/accept/expect interface."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._position = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != "eof":
            self._position += 1
        return token

    # at/accept run once per grammar alternative tried: they index the
    # token list directly instead of going through ``current``

    def at(self, text: str) -> bool:
        token = self._tokens[self._position]
        return token.text == text and token.kind != "string"

    def at_kind(self, kind: str) -> bool:
        return self._tokens[self._position].kind == kind

    def accept(self, text: str) -> Optional[Token]:
        token = self._tokens[self._position]
        if token.text == text and token.kind != "string":
            if token.kind != "eof":
                self._position += 1
            return token
        return None

    def expect(self, text: str) -> Token:
        token = self._tokens[self._position]
        if token.text != text or token.kind == "string":
            raise LexError(
                f"expected {text!r} but found {token} at line {token.line}"
            )
        if token.kind != "eof":
            self._position += 1
        return token

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise LexError(
                f"expected identifier but found {self.current} at line "
                f"{self.current.line}"
            )
        return self.advance()

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens[self._position :])
