"""Shared utilities: lexing, source positions, the worklist driver."""

from repro.util.lexer import Lexer, LexError, Token
from repro.util.worklist import (
    PriorityWorklist,
    Schedule,
    Seed,
    reverse_postorder,
)

__all__ = [
    "Lexer",
    "LexError",
    "Token",
    "PriorityWorklist",
    "Schedule",
    "Seed",
    "reverse_postorder",
]
