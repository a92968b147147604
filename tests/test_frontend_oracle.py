"""The token-to-CFG frontend against the AST frontend it replaced.

``tests/jlite_oracle.py`` keeps the old frontend: a recursive-descent
parser to a surface tree over the character-at-a-time oracle tokenizer,
a class table built from the whole tree, and a tree walker that lowers
each body.  Every test here runs one source through both and requires
the same outcome: per method the same CFG (its text, its edges and its
node count) and the same typed variables, the same class table, statics
and call sites; or else the same error class with the same message.  The
syntax-only :func:`~repro.lang.frontend.check_syntax` must agree with the
oracle's parser alone.

Inputs: the suite, ``tests/corpus``, the Jlite sources in ``examples/``
and in the other specs' tests (each under all four specs), every
``repro.bench.synthetic`` family, fixed error cases, and hypothesis
sources: generated clients, token edits (syntax errors), name edits
(type errors) and both at once.  ``--hypothesis-profile=nightly`` runs
the random tests with ten times the examples.
"""

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import synthetic
from repro.easl.library import ALL_SPECS
from repro.fuzz import generate_client
from repro.lang.frontend import JliteParseError, check_syntax
from repro.lang.types import parse_program
from repro.suite import all_programs
from tests.jlite_oracle import oracle_parse_program, parse_program_ast

ROOT = Path(__file__).resolve().parent.parent
SPECS = {name: make() for name, make in ALL_SPECS.items()}
CMP = SPECS["CMP"]


def _outcome(parse, source, spec):
    try:
        program = parse(source, spec)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error), str(error))
    methods = [
        (
            qualified,
            minfo.class_name,
            minfo.name,
            minfo.params,
            minfo.return_type,
            minfo.is_static,
            minfo.is_constructor,
            str(minfo.cfg),
            minfo.cfg.edges,
            repr(minfo.cfg._node_counter),  # nodes numbered so far
            list(minfo.variables.items()),
        )
        for qualified, minfo in program.methods.items()
    ]
    classes = [
        (name, list(cinfo.fields.values()), list(cinfo.methods))
        for name, cinfo in program.classes.items()
    ]
    return (
        methods,
        classes,
        list(program.statics.items()),
        list(program.call_sites.items()),
    )


def _syntax(check, source):
    try:
        check(source)
    except JliteParseError as error:
        return str(error)
    return None


def _assert_same(source, spec=CMP):
    assert _outcome(parse_program, source, spec) == _outcome(
        oracle_parse_program, source, spec
    )
    assert _syntax(check_syntax, source) == _syntax(parse_program_ast, source)


def _jlite_strings(path):
    """The string constants in a Python file that look like Jlite."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.search(r"\bclass \w+ *\{", node.value)
    ]


def _embedded_sources():
    paths = sorted((ROOT / "examples").glob("*.py")) + [
        ROOT / "tests" / "test_other_specs.py"
    ]
    return [
        pytest.param(source, id=f"{path.stem}-{index}")
        for path in paths
        for index, source in enumerate(_jlite_strings(path))
    ]


def _corpus_sources():
    return [
        pytest.param(path.read_text(encoding="utf-8"), id=path.stem)
        for path in sorted((ROOT / "tests" / "corpus").glob("*.jl"))
    ]


@pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.name)
def test_suite_programs(program):
    _assert_same(program.source)


@pytest.mark.parametrize("source", _corpus_sources())
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_regression_corpus(source, spec):
    _assert_same(source, SPECS[spec])


@pytest.mark.parametrize("source", _embedded_sources())
@pytest.mark.parametrize("spec", sorted(SPECS))
def test_examples_and_other_specs_clients(source, spec):
    _assert_same(source, SPECS[spec])


def test_embedded_sources_are_found():
    assert len(_embedded_sources()) >= 10


@pytest.mark.parametrize("family", sorted(synthetic.SCALE_FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scale_families(family, seed):
    _assert_same(synthetic.SCALE_FAMILIES[family](400, seed=seed))


@pytest.mark.parametrize(
    "source",
    [
        synthetic.make_client(seed=3),
        synthetic.make_client(num_sets=3, num_iters=6, num_ops=80, seed=11),
        synthetic.make_heap_client(),
        synthetic.make_heap_client(num_sets=4, num_fields=2, num_loops=3),
        synthetic.make_call_chain(4),
        synthetic.make_call_chain(7, mutate_at_bottom=False),
        synthetic.make_shared_library(300, seed=5, client_seed=2),
    ],
    ids=lambda source: str(len(source)),
)
def test_other_synthetic_families(source):
    _assert_same(source)


_MAIN = "class A {{ static Set g; A b; {members} static void main() {{ {body} }} }}"

ERROR_CASES = [
    "",
    "class",
    "class A {",
    "class A { static void main() {",
    "class A { static void main() { if (?) { } }",
    "class A { static void main() { } } x",
    "class A { void m() { } m2",
    "class A { static void main() { Foo f; } } class B { void m() { x } }",
    "class A { Foo f; static void main() { x } }",
    "class A { static void main() { Foo f; } } junk",
    "class A { static void main() { x = null; } static void main() { } }",
    "class A { A() { } A() { } static void main() { } }",
    "class Set { }",
    "class A { } class A { }",
    "class A { static void main() { /* never closed",
    "class A { static void main() { x = 1; # } }",
    "class A { static void main() { int x = 1²; } }",
    "class A { static void main() { é = null; } }",
    "class A { static void main() { ½ = null; } }",
    "class A {\n  static void main() { é = null; }\n  # \n}",
    "class A {\n  static void main() { é = null; }\n  void m() { x = \"a }\n}",
    'class A { static void main() { x = "oops; } }',
    _MAIN.format(members="", body="if (new Set()) { }"),
    _MAIN.format(members="", body="if (!g == null) { }"),
    _MAIN.format(members="", body="if (!g.iterator()) { }"),
    _MAIN.format(members="", body="if (g) { }"),
    _MAIN.format(members="", body="if (null) { }"),
    _MAIN.format(members="", body='return "x";'),
    _MAIN.format(members="", body='g.add("{"); g.add("}");'),
    _MAIN.format(members="", body="new Set();"),
    _MAIN.format(members="", body="new (Set);"),
    _MAIN.format(members="", body="null = g;"),
    _MAIN.format(members="", body="null;"),
    _MAIN.format(members="", body='"s";'),
    _MAIN.format(members="", body="g.iterator() = g;"),
    _MAIN.format(members="", body="g.;"),
    _MAIN.format(members="", body="A.g = new Set(); A.g.add(1);"),
    _MAIN.format(members="", body="A.x = null;"),
    _MAIN.format(members="", body="A = null;"),
    _MAIN.format(members="", body="A.b = null;"),
    _MAIN.format(members="static A a;", body="A.a.b = null; A.a.b.b = A.a;"),
    _MAIN.format(members="static A a;", body="A.a.b.g = null;"),
    _MAIN.format(members="", body="b = null;"),
    _MAIN.format(
        members="void m() { } static void s() { }",
        body="A A = new A(); A.m(); A.s(); A.b.m();",
    ),
    _MAIN.format(
        members="",
        body="g\n.iterator();\nIterator i\n=\ng\n.\niterator\n(\n)\n;\n"
        "if (!\ni.hasNext()) { }\nif (\ni\n==\nnull) { }",
    ),
    _MAIN.format(
        members="static A a;",
        body="if (A.a.b == null) { } while (A.a.b.b != A.a) { }",
    ),
    _MAIN.format(
        members="void m() { if (b.b == this.b) { } else if (b != b.b) { } }",
        body="",
    ),
    _MAIN.format(
        members="void m() { b.b.b = b; b = null; this.b = new A(); m(); }",
        body="",
    ),
    _MAIN.format(members="void m() { }", body="m();"),
    _MAIN.format(members="static void m(Set s) { }", body="m(); m(null);"),
    _MAIN.format(members="A(Set s) { }", body="A a = new A(); A c = new A(g);"),
    _MAIN.format(members="", body="A a = new A(g);"),
    _MAIN.format(members="", body="B b = new B();"),
    _MAIN.format(members="", body="Set s = new Set(); Set s;"),
    _MAIN.format(members="", body="Iterator i = g.iterator(g);"),
    _MAIN.format(members="", body="Iterator i = Set.iterator();"),
    _MAIN.format(members="", body="g.clear();"),
    _MAIN.format(members="", body="y = g.iterator();"),
    _MAIN.format(
        members="",
        body="for (Set s = new Set(); ?; t = null) { u = null; }",
    ),
    _MAIN.format(
        members="",
        body="for (Set s = new Set(); ?; s = null) { for (;;) { x( } }",
    ),
    _MAIN.format(members="", body="for (;;) { } for (; g == null;) { }"),
    _MAIN.format(
        members="",
        body="for (Iterator i = g.iterator(); i.hasNext(); i.next()) { }",
    ),
    _MAIN.format(members="", body="for (Iterator i = g.iterator(); ; ) {"),
    _MAIN.format(
        members="", body="if (?) { } else if (g != null) { } else { x; }"
    ),
    _MAIN.format(members="", body="while (?) { return; } return g;"),
    _MAIN.format(members="", body="Foo f; g.add(;"),
    _MAIN.format(members="", body="Foo f; } }"),
]


@pytest.mark.parametrize("source", ERROR_CASES)
def test_error_and_edge_cases(source):
    _assert_same(source)


# -- random sources --------------------------------------------------------------

_TOKEN = re.compile(r'"[^"\n]*"|\w+|==|!=|&&|\|\||\S')
_NOISE = [
    "{", "}", "(", ")", ";", "=", "==", "!=", "!", "?", ".", ",", "new",
    "null", "if", "else", "while", "for", "return", "static", "class",
    '"q"', "7", "#", "for (;;)", "\n",
]
_NAMES = [
    "Set", "Iterator", "Main", "A", "main", "this", "null", "g", "i", "s",
    "t0", "x", "Nope", "void", "int", "Object",
]
_BASES = [program.source for program in all_programs()] + [
    generate_client(seed) for seed in range(8)
]


def _line_edit(lines, rng, choices, names_only):
    """Replace, insert or delete one token of a random line."""
    index = rng.randrange(len(lines))
    tokens = _TOKEN.findall(lines[index])
    spots = [
        k for k, token in enumerate(tokens)
        if not names_only or re.fullmatch(r"[A-Za-z_]\w*", token)
    ]
    roll = rng.random()
    if names_only or (roll < 0.4 and spots):
        if not spots:
            return
        tokens[rng.choice(spots)] = rng.choice(choices)
    elif roll < 0.7 or not tokens:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(choices))
    else:
        del tokens[rng.randrange(len(tokens))]
    lines[index] = " ".join(tokens)


def _edited(base, rng, syntax_edits, name_edits):
    lines = base.split("\n")
    edits = ["syntax"] * syntax_edits + ["name"] * name_edits
    rng.shuffle(edits)
    for edit in edits:
        if edit == "syntax":
            _line_edit(lines, rng, _NOISE, names_only=False)
        else:
            _line_edit(lines, rng, _NAMES, names_only=True)
    return "\n".join(lines)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_generated_clients(seed):
    _assert_same(generate_client(seed))


@settings(deadline=None)
@given(st.sampled_from(_BASES), st.randoms(use_true_random=False))
def test_random_syntax_edits(base, rng):
    _assert_same(_edited(base, rng, rng.randint(1, 3), 0))


@settings(deadline=None)
@given(st.sampled_from(_BASES), st.randoms(use_true_random=False))
def test_random_name_edits(base, rng):
    _assert_same(_edited(base, rng, 0, rng.randint(1, 3)))


@settings(deadline=None)
@given(st.sampled_from(_BASES), st.randoms(use_true_random=False))
def test_random_syntax_and_type_errors(base, rng):
    """A name edit and a token edit in one source, in either order: every
    syntax error must still win over every type error."""
    _assert_same(_edited(base, rng, 1, rng.randint(1, 2)))


def test_mixed_edits_reach_both_error_kinds():
    rng = random.Random(0)
    kinds = set()
    for _ in range(200):
        source = _edited(rng.choice(_BASES), rng, 1, 2)
        outcome = _outcome(parse_program, source, CMP)
        if len(outcome) == 2:
            kinds.add(outcome[0].__name__)
    assert {"JliteParseError", "TypeError_"} <= kinds
