"""Unit tests for the shared lexer."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.synthetic import SCALE_FAMILIES
from repro.easl.library import AOP_SOURCE, CMP_SOURCE, GRP_SOURCE, IMP_SOURCE
from repro.suite import all_programs
from repro.util.lexer import Lexer, LexError, tokenize
from tests.lexer_oracle import oracle_tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestTokenize:
    def test_identifiers_and_punctuation(self):
        assert kinds("foo = bar;") == [
            ("ident", "foo"),
            ("punct", "="),
            ("ident", "bar"),
            ("punct", ";"),
        ]

    def test_maximal_munch_on_comparisons(self):
        assert kinds("a == b != c") == [
            ("ident", "a"),
            ("punct", "=="),
            ("ident", "b"),
            ("punct", "!="),
            ("ident", "c"),
        ]

    def test_logical_operators(self):
        assert [t for _, t in kinds("a && b || !c")] == [
            "a", "&&", "b", "||", "!", "c",
        ]

    def test_string_literal(self):
        tokens = kinds('x = "hello world";')
        assert ("string", "hello world") in tokens

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('x = "oops')

    def test_integers(self):
        assert ("int", "42") in kinds("x = 42;")

    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment_skipped(self):
        assert kinds("a /* multi\nline */ b") == [
            ("ident", "a"),
            ("ident", "b"),
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers_track_newlines(self):
        tokens = tokenize("a\nb\n  c")
        lines = {t.text: t.line for t in tokens if t.kind == "ident"}
        assert lines == {"a": 1, "b": 2, "c": 3}

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_question_mark_is_punctuation(self):
        assert ("punct", "?") in kinds("while (?)")


class TestLexerCursor:
    def test_peek_does_not_consume(self):
        lexer = Lexer("a b c")
        assert lexer.peek(1).text == "b"
        assert lexer.current.text == "a"

    def test_accept_consumes_on_match_only(self):
        lexer = Lexer("a b")
        assert lexer.accept("x") is None
        assert lexer.accept("a") is not None
        assert lexer.current.text == "b"

    def test_expect_raises_with_location(self):
        lexer = Lexer("a")
        with pytest.raises(LexError, match="expected"):
            lexer.expect(";")

    def test_expect_ident_rejects_punct(self):
        lexer = Lexer(";")
        with pytest.raises(LexError):
            lexer.expect_ident()

    def test_advance_stops_at_eof(self):
        lexer = Lexer("a")
        lexer.advance()
        assert lexer.current.kind == "eof"
        lexer.advance()
        assert lexer.current.kind == "eof"


def _stream(scan, source):
    """``(kind, text, line, column)`` tuples, or the LexError message."""
    try:
        return [
            token if isinstance(token, tuple)
            else (token.kind, token.text, token.line, token.column)
            for token in scan(source)
        ]
    except LexError as error:
        return ("LexError", str(error))


def _assert_same_as_oracle(source):
    assert _stream(tokenize, source) == _stream(oracle_tokenize, source)


def _corpus_sources():
    directory = os.path.join(os.path.dirname(__file__), "corpus")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jl"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                yield name, handle.read()


class TestOracle:
    """The regex scanner against the character-at-a-time oracle."""

    @pytest.mark.parametrize(
        "program", all_programs(), ids=lambda program: program.name
    )
    def test_suite_programs(self, program):
        _assert_same_as_oracle(program.source)

    @pytest.mark.parametrize(
        "name,source", list(_corpus_sources()), ids=lambda value: str(value)[:40]
    )
    def test_regression_corpus(self, name, source):
        _assert_same_as_oracle(source)

    @pytest.mark.parametrize(
        "source", [CMP_SOURCE, GRP_SOURCE, IMP_SOURCE, AOP_SOURCE],
        ids=["cmp", "grp", "imp", "aop"],
    )
    def test_shipped_specs(self, source):
        _assert_same_as_oracle(source)

    @pytest.mark.parametrize("family", sorted(SCALE_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_families(self, family, seed):
        _assert_same_as_oracle(SCALE_FAMILIES[family](400, seed=seed))

    @pytest.mark.parametrize(
        "source",
        [
            'x = "oops',
            'x = "broken\nstring"',
            "a /* never closed",
            "a\n  /*/ b",
            "a # b",
            "a\n\tb $",
            "/* one\ntwo */ x @ ~",
            "",
            "   ",
            "a // trailing",
            "a\n// trailing\n",
            "x /* a */ y /* b\nc */ z",
            "a\r\nb",
            "é = ü1_;",
            # str.isdigit/isalpha classes that differ from regex \d/\w
            "²",
            "①",
            "½",
            "٣",
            "1²",
            "1²a",
            "a² ²1 1é",
            "Set ½ = new Set();",
            "x = 1½;",
            "一 Ⅰ",
        ],
    )
    def test_edge_cases_and_error_messages(self, source):
        _assert_same_as_oracle(source)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                list('ab_Z09 \t\r\n"/*{}()=!<>&|+-.;,:@?#$é²①½٣一Ⅰ')
                + ["//", "/*", "*/", "==", "&&", "class", "null"]
            ),
            max_size=40,
        )
    )
    def test_random_inputs(self, pieces):
        _assert_same_as_oracle("".join(pieces))

    def test_eof_column_after_trailing_line_comment(self):
        # the comment ends the input with no newline: end of input is
        # the column just past it, not the column where it started
        eof = tokenize("a // note")[-1]
        assert (eof.kind, eof.line, eof.column) == ("eof", 1, 10)


class TestToken:
    def test_equality_and_hash_by_fields(self):
        first, second = tokenize("a"), tokenize("a")
        assert first == second
        assert hash(first[0]) == hash(second[0])
        assert tokenize("a")[0] != tokenize(" a")[0]
        assert first[0] != ("ident", "a", 1, 1)

    def test_repr_names_fields(self):
        assert repr(tokenize("a")[0]) == (
            "Token(kind='ident', text='a', line=1, column=1)"
        )
