"""Shared utilities: lexing, source positions, the RPO worklist."""

from repro.util.lexer import Lexer, LexError, Token
from repro.util.worklist import (
    PriorityWorklist,
    make_worklist,
    reverse_postorder,
)

__all__ = [
    "Lexer",
    "LexError",
    "Token",
    "PriorityWorklist",
    "make_worklist",
    "reverse_postorder",
]
