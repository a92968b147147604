"""Tests for the Jlite parser, name resolution, and typechecking."""

import pytest

from repro.lang import TypeError_, parse_program
from repro.lang.cfg import SLoad, SNull, SStore
from repro.lang.frontend import JliteParseError, check_syntax
from tests.jlite_oracle import parse_program_ast


class TestSurfaceParsing:
    def test_class_with_fields_and_methods(self):
        ast = parse_program_ast(
            """
            class A {
              static Set g;
              Iterator it;
              static void main() { }
              void run(Set s) { }
              A() { }
            }
            """
        )
        decl = ast.class_decl("A")
        assert decl is not None
        assert decl.field_decl("g").is_static
        assert not decl.field_decl("it").is_static
        assert decl.method_decl("run").params == [("s", "Set")]
        assert decl.constructor() is not None

    def test_else_if_chain(self):
        ast = parse_program_ast(
            """
            class A {
              static void main() {
                if (?) { } else if (?) { } else { }
              }
            }
            """
        )
        assert ast.class_decl("A") is not None

    def test_for_loop_desugars(self, cmp_specification):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set s = new Set();
                for (Iterator i = s.iterator(); i.hasNext(); ) {
                  i.next();
                }
              }
            }
            """,
            cmp_specification,
        )
        keys = {cs.op_key for cs in program.call_sites.values()}
        assert "Set.iterator" in keys and "Iterator.next" in keys

    def test_missing_semicolon_raises(self):
        source = "class A { static void main() { Set s } }"
        with pytest.raises(JliteParseError):
            parse_program_ast(source)
        with pytest.raises(JliteParseError):
            check_syntax(source)


class TestResolutionAndTypes:
    def test_unknown_type_raises(self, cmp_specification):
        with pytest.raises(TypeError_):
            parse_program(
                "class A { static void main() { Foo f; } }",
                cmp_specification,
            )

    def test_unknown_variable_raises(self, cmp_specification):
        with pytest.raises(TypeError_):
            parse_program(
                "class A { static void main() { x = null; } }",
                cmp_specification,
            )

    def test_redeclaration_raises(self, cmp_specification):
        with pytest.raises(TypeError_):
            parse_program(
                """
                class A { static void main() { Set s; Set s; } }
                """,
                cmp_specification,
            )

    def test_unknown_component_method_raises(self, cmp_specification):
        with pytest.raises(Exception):
            parse_program(
                """
                class A { static void main() { Set s = new Set();
                  s.clear(); } }
                """,
                cmp_specification,
            )

    def test_instance_field_in_static_method_raises(self, cmp_specification):
        with pytest.raises(TypeError_):
            parse_program(
                """
                class A {
                  Set s;
                  static void main() { s = new Set(); }
                }
                """,
                cmp_specification,
            )

    def test_no_main_raises(self, cmp_specification):
        program = parse_program(
            "class A { static void run() { } }", cmp_specification
        )
        with pytest.raises(TypeError_):
            program.entry

    def test_static_field_resolved_through_class_name(
        self, cmp_specification
    ):
        program = parse_program(
            """
            class Store { static Set data; }
            class Main {
              static void main() {
                Store.data = new Set();
                Iterator i = Store.data.iterator();
              }
            }
            """,
            cmp_specification,
        )
        assert "Store.data" in program.statics

    def test_implicit_this_field(self, cmp_specification):
        program = parse_program(
            """
            class Holder {
              Iterator it;
              Holder() { }
              void park(Iterator j) { it = j; }
            }
            class Main { static void main() { } }
            """,
            cmp_specification,
        )
        cfg = program.method("Holder.park").cfg
        stores = [e.stm for e in cfg.edges if isinstance(e.stm, SStore)]
        assert stores and stores[0].base == "this"


class TestLowering:
    def test_nested_path_introduces_load_temps(self, cmp_specification):
        program = parse_program(
            """
            class Box { Box inner; Iterator it; Box() { } }
            class Main {
              static void main() {
                Box b = new Box();
                Iterator i = b.inner.it;
              }
            }
            """,
            cmp_specification,
        )
        cfg = program.method("Main.main").cfg
        loads = [e.stm for e in cfg.edges if isinstance(e.stm, SLoad)]
        assert len(loads) == 2  # b.inner, then .it

    def test_component_call_binds_operands(self, cmp_specification):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set v = new Set();
                Iterator i = v.iterator();
              }
            }
            """,
            cmp_specification,
        )
        cfg = program.method("Main.main").cfg
        calls = cfg.comp_call_sites()
        iterator_call = next(
            c for c in calls if c.op_key == "Set.iterator"
        )
        assert iterator_call.binding("this") == "v"
        assert iterator_call.binding("ret") == "i"

    def test_opaque_args_not_bound(self, cmp_specification):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set v = new Set();
                v.add("x");
              }
            }
            """,
            cmp_specification,
        )
        cfg = program.method("Main.main").cfg
        add = next(
            c for c in cfg.comp_call_sites() if c.op_key == "Set.add"
        )
        assert add.binding("o") is None

    def test_null_assignment_lowered(self, cmp_specification):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set v = new Set();
                v = null;
              }
            }
            """,
            cmp_specification,
        )
        cfg = program.method("Main.main").cfg
        assert any(isinstance(e.stm, SNull) for e in cfg.edges)

    def test_sites_have_lines(self, cmp_specification):
        program = parse_program(
            """
            class Main {
              static void main() {
                Set v = new Set();
              }
            }
            """,
            cmp_specification,
        )
        (site,) = program.call_sites.values()
        assert site.line == 4 and site.op_key == "new Set"

    def test_is_shallow_detects_component_fields(self, cmp_specification):
        deep = parse_program(
            """
            class H { Iterator it; H() { } }
            class Main { static void main() { } }
            """,
            cmp_specification,
        )
        assert not deep.is_shallow()
        flat = parse_program(
            """
            class Main {
              static Set g;
              static void main() { Set s = new Set(); }
            }
            """,
            cmp_specification,
        )
        assert flat.is_shallow()
