"""The character-at-a-time tokenizer, kept as a differential oracle.

This is the scanner the shared lexer used before it moved to one
compiled regular expression.  ``tests/test_lexer.py`` runs both over
the same inputs and requires identical ``(kind, text, line, column)``
streams and identical :class:`~repro.util.lexer.LexError` messages.

One fix relative to the historical scanner: a ``//`` comment advances
the column, so the end-of-input token after a trailing comment with no
newline reports the column after the comment.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.util.lexer import LexError

_PUNCTUATION = [
    # longest first so maximal munch works
    "==", "!=", "&&", "||", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "!", "?",
    "<", ">", "+", "-", "*", "/", ":", "@",
]


def oracle_tokenize(source: str) -> List[Tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` per token; raises LexError."""
    tokens: List[Tuple[str, str, int, int]] = []
    line, column = 1, 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            end = source.find("\n", index)
            end = length if end < 0 else end
            column += end - index
            index = end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise LexError(f"unterminated comment at line {line}")
            skipped = source[index : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            index = end + 2
            continue
        if char == '"':
            end = source.find('"', index + 1)
            if end < 0 or "\n" in source[index:end]:
                raise LexError(f"unterminated string at line {line}")
            tokens.append(("string", source[index + 1 : end], line, column))
            column += end + 1 - index
            index = end + 1
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (
                source[index].isalnum() or source[index] == "_"
            ):
                index += 1
            tokens.append(("ident", source[start:index], line, column))
            column += index - start
            continue
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            tokens.append(("int", source[start:index], line, column))
            column += index - start
            continue
        for punct in _PUNCTUATION:
            if source.startswith(punct, index):
                tokens.append(("punct", punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise LexError(
                f"unexpected character {char!r} at line {line}, column {column}"
            )
    tokens.append(("eof", "", line, column))
    return tokens
