"""A small lexer shared by the Easl and Jlite frontends.

Both languages are Java-flavoured, so one scanner serves both: it
produces identifiers, punctuation, string literals, and integers.
Keywords are not distinguished at this level; parsers match identifier
spellings.  An identifier starts with a letter (``str.isalpha``) or
``_`` and continues with letters, digits and ``_`` (``str.isalnum``); an
integer is a run of ``str.isdigit`` characters.

:func:`scan` is the scanner.  It returns each token's spelling (a
string keeps its quotes, so the spelling alone gives the kind) and line,
and no columns: a column is only ever needed for an error message, which
is built where the error is found.
Comments are first blanked to spaces, which keeps every line and column
where it was.  A source that is all plain ASCII lexemes, whitespace and
closed strings is then scanned by one ``findall`` per line; any other
source goes line by line through the exact per-match loop that finds
junk, unterminated strings and comments, and the non-ASCII word rules.
:func:`tokenize` adds kinds and columns to the same tokens for the Easl
parser's :class:`Lexer`.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple


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


#: strings and comments, met left to right: a string's quotes hide
#: comment openers and a comment hides quotes; comments are blanked
_HIDDEN_RE = re.compile(r'"[^"\n]*"|//[^\n]*|/\*.*?\*/', re.DOTALL)

#: the sources that the per-line ``findall`` scans exactly, when it
#: matches the whole (comment-blanked) source: ASCII lexeme characters,
#: whitespace, closed strings and ``&&``/``||``; it stops at junk, at a
#: ``"`` or ``/*`` that never closes, and at a non-ASCII character
#: outside a string
_CLEAN_RE = re.compile(
    r'(?:[A-Za-z0-9_ \t\r\n{}()\[\];,.=!?<>+\-*:@]++|"[^"\n]*+"|&&|\|\||'
    r"/(?!\*))*+"
)

#: one token; punctuation lists two-character operators first (maximal
#: munch).  ``\w`` is exactly ``str.isalnum`` plus ``_`` and ``\d`` is
#: within ``str.isdigit``, so the identifiers and integers taken here are
#: exact; any other word run (one starting with a non-ASCII letter, ``²``
#: or ``½``) is split by :func:`_append_word`
_LEXEME = (
    r'"[^"]*"|[A-Za-z_]\w*|\d+|==|!=|&&|\|\||<=|>=|'
    r"[{}()\[\];,.=!?<>+\-*:@]|/(?!\*)"
)
_LEXEME_RE = re.compile(r"[ \t\r]*(" + _LEXEME + ")")
_LINE_RE = re.compile(
    r"[ \t\r]+|(?P<token>" + _LEXEME + r')|(?P<word>\w+)|(?P<open_string>")'
    r"|(?P<open_comment>/\*)|(?P<junk>.)"
)


def _blank(match: "re.Match[str]") -> str:
    text = match.group()
    if text[0] == '"':
        return text
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _plain(source: str) -> str:
    """``source`` with every comment blanked to spaces, newlines kept."""
    return _HIDDEN_RE.sub(_blank, source) if "/" in source else source


def scan(source: str) -> Tuple[List[str], List[int]]:
    """Token spellings and their lines; raises :class:`LexError`."""
    plain = _plain(source)
    texts: List[str] = []
    lines: List[int] = []
    if _CLEAN_RE.match(plain).end() == len(plain):
        findall = _LEXEME_RE.findall
        for number, line in enumerate(plain.split("\n"), 1):
            found = findall(line)
            texts += found
            lines += [number] * len(found)
    else:
        for number, line in enumerate(plain.split("\n"), 1):
            _scan_line(line, number, texts, lines)
    return texts, lines


def _scan_line(
    line: str, number: int, texts: List[str], lines: List[int]
) -> None:
    """Scan one line match by match, raising on its first error."""
    last_int_end = -1  # where the line's last integer token ends
    for match in _LINE_RE.finditer(line):
        kind = match.lastgroup
        if kind == "token":
            text = match.group()
            texts.append(text)
            lines.append(number)
            if text[0].isdigit():
                last_int_end = match.end()
        elif kind == "word":
            last_int_end = _append_word(
                texts, lines, match.group(), number, match.start(),
                match.start() == last_int_end,
            )
        elif kind == "open_string":
            raise LexError(f"unterminated string at line {number}")
        elif kind == "open_comment":
            raise LexError(f"unterminated comment at line {number}")
        elif kind == "junk":
            raise LexError(
                f"unexpected character {match.group()!r} at line {number}, "
                f"column {match.start() + 1}"
            )


def _append_word(
    texts: List[str],
    lines: List[int],
    text: str,
    number: int,
    start: int,
    after_int: bool,
) -> int:
    """Append the tokens of ``text``, a run of ``\\w`` characters at index
    ``start`` of its line that the token alternative did not take, and
    return where the last integer token appended ends (or -1).

    A letter or ``_`` starts an identifier that runs to the end of the
    word; a ``str.isdigit`` character starts an integer, continuing the
    integer token that ends right before the word (``1²``, when
    ``after_int``); any other word character (``½``) is junk."""
    index = 0
    int_end = -1
    while index < len(text):
        char = text[index]
        if char.isalpha() or char == "_":
            texts.append(text[index:])
            lines.append(number)
            return int_end
        if not char.isdigit():
            raise LexError(
                f"unexpected character {char!r} at line {number}, "
                f"column {start + index + 1}"
            )
        end = index + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        if index == 0 and after_int:
            texts[-1] += text[:end]
        else:
            texts.append(text[index:end])
            lines.append(number)
        int_end = start + end
        index = end
    return int_end


def _kind(text: str) -> str:
    """The kind of a token spelled ``text`` by :func:`scan`."""
    first = text[0]
    if first == '"':
        return "string"
    if first.isalpha() or first == "_":
        return "ident"
    if first.isdigit():
        return "int"
    return "punct"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` completely; raises :class:`LexError` on junk.

    The tokens of :func:`scan`, with kinds and columns: in the
    comment-blanked source only whitespace separates a token from the
    one before it on its line, so each is found from where that one
    ended."""
    texts, lines = scan(source)
    rows = _plain(source).split("\n")
    tokens: List[Token] = []
    row_number = 0
    column = 0
    for text, number in zip(texts, lines):
        if number != row_number:
            row = rows[number - 1]
            row_number = number
            column = 0
        column = row.find(text, column)
        kind = _kind(text)
        spelled = text[1:-1] if kind == "string" else text
        tokens.append(Token(kind, spelled, number, column + 1))
        column += len(text)
    tokens.append(Token("eof", "", len(rows), len(rows[-1]) + 1))
    return tokens


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
