"""The Jlite frontend as it was before it lowered tokens straight to
CFGs, kept as a differential oracle.

A recursive-descent parser builds a surface syntax tree from the
character-at-a-time oracle tokenizer (``tests/lexer_oracle.py``); the
class table is built from the whole tree; then a tree walker lowers each
method body to its CFG.  Because the whole tree is parsed first, every
syntax error wins over every type error.  ``tests/test_frontend_oracle.py``
requires :func:`repro.lang.types.parse_program` to build the same CFGs,
variables, classes and call sites, and to raise the same error class
with the same message, on every input it tries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.easl.spec import ComponentSpec, Operation
from repro.lang.cfg import (
    CFG,
    SAssume,
    SCallClient,
    SCallComp,
    SCopy,
    SLoad,
    SNewClient,
    SNop,
    SNull,
    SReturn,
    SStore,
)
from repro.lang.frontend import JliteParseError
from repro.lang.types import (
    ClassInfo,
    FieldInfo,
    MethodInfo,
    Program,
    TypeError_,
)
from repro.util.lexer import Lexer, LexError, Token
from tests.lexer_oracle import oracle_tokenize


def oracle_parse_program(source: str, spec: ComponentSpec) -> Program:
    """Parse the whole tree, build the class table, lower every body."""
    ast = parse_program_ast(source)
    program = Program(spec)
    bodies = _build_class_table(program, ast)
    for minfo in program.methods.values():
        minfo.cfg = _CfgBuilder(program, minfo, bodies[minfo.qualified]).build()
    return program


# -- surface syntax ---------------------------------------------------------------


# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class PathE:
    """An access path ``root.f1.f2``; ``root`` may be ``this``, a local,
    a field (implicit ``this.``), a static, or a class name (static
    access)."""

    root: str
    fields: Tuple[str, ...] = ()
    line: int = 0

    def __str__(self) -> str:
        return ".".join((self.root,) + self.fields)


@dataclass(frozen=True)
class NewE:
    class_name: str
    args: Tuple["ExprT", ...] = ()
    line: int = 0

    def __str__(self) -> str:
        return f"new {self.class_name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class CallE:
    """A method call ``target.method(args)``.

    ``target`` is None for same-class calls ``method(args)``.
    """

    target: Optional[PathE]
    method: str
    args: Tuple["ExprT", ...] = ()
    line: int = 0

    def __str__(self) -> str:
        prefix = f"{self.target}." if self.target else ""
        return f"{prefix}{self.method}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class NullE:
    line: int = 0

    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class OpaqueE:
    """A string/int literal: carries no component state."""

    text: str
    line: int = 0

    def __str__(self) -> str:
        return repr(self.text)


ExprT = object  # PathE | NewE | CallE | NullE | OpaqueE


# -- conditions -------------------------------------------------------------------


@dataclass(frozen=True)
class NondetC:
    """``?`` — the abstracted condition (primitive data is not modelled)."""

    line: int = 0

    def __str__(self) -> str:
        return "?"


@dataclass(frozen=True)
class CompareC:
    """``lhs == rhs`` / ``lhs != rhs`` over reference paths (or null)."""

    lhs: PathE
    rhs: ExprT  # PathE or NullE
    equal: bool
    line: int = 0

    def __str__(self) -> str:
        return f"{self.lhs} {'==' if self.equal else '!='} {self.rhs}"


@dataclass(frozen=True)
class CallC:
    """A boolean-returning call used as a condition, e.g. ``i.hasNext()``.

    The call's component effects happen; its truth value is nondet.
    """

    call: CallE
    negated: bool = False
    line: int = 0

    def __str__(self) -> str:
        return ("!" if self.negated else "") + str(self.call)


CondT = object  # NondetC | CompareC | CallC


# -- statements ---------------------------------------------------------------------


@dataclass(frozen=True)
class DeclS:
    type: str
    name: str
    init: Optional[ExprT]
    line: int = 0


@dataclass(frozen=True)
class AssignS:
    lhs: PathE
    rhs: ExprT
    line: int = 0


@dataclass(frozen=True)
class ExprS:
    expr: ExprT  # a call (only expression with effects)
    line: int = 0


@dataclass(frozen=True)
class IfS:
    cond: CondT
    then_body: Tuple["StmtT", ...]
    else_body: Tuple["StmtT", ...] = ()
    line: int = 0


@dataclass(frozen=True)
class WhileS:
    cond: CondT
    body: Tuple["StmtT", ...]
    line: int = 0


@dataclass(frozen=True)
class ReturnS:
    expr: Optional[ExprT]
    line: int = 0


@dataclass(frozen=True)
class BlockS:
    """A statement sequence (used by the ``for``-loop desugaring)."""

    body: Tuple["StmtT", ...]
    line: int = 0


StmtT = object  # DeclS | AssignS | ExprS | IfS | WhileS | ReturnS | BlockS


# -- declarations ----------------------------------------------------------------------


@dataclass
class FieldDecl:
    name: str
    type: str
    is_static: bool = False
    line: int = 0


@dataclass
class MethodDecl:
    name: str
    params: List[Tuple[str, str]]  # (name, type)
    return_type: str
    body: Tuple[StmtT, ...]
    is_static: bool = False
    is_constructor: bool = False
    line: int = 0


@dataclass
class ClassDecl:
    name: str
    fields: List[FieldDecl] = field(default_factory=list)
    methods: List[MethodDecl] = field(default_factory=list)
    line: int = 0

    def field_decl(self, name: str) -> Optional[FieldDecl]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def method_decl(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name and not m.is_constructor:
                return m
        return None

    def constructor(self) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.is_constructor:
                return m
        return None


@dataclass
class ProgramAST:
    classes: List[ClassDecl]

    def class_decl(self, name: str) -> Optional[ClassDecl]:
        for c in self.classes:
            if c.name == name:
                return c
        return None


# -- parser ----------------------------------------------------------------------


def parse_program_ast(source: str) -> ProgramAST:
    """Parse Jlite source into a surface AST."""
    try:
        return _Parser(source).parse()
    except LexError as error:
        raise JliteParseError(str(error)) from error


class _Parser:
    def __init__(self, source: str) -> None:
        self.lexer = _OracleLexer(source)

    def parse(self) -> ProgramAST:
        classes: List[ClassDecl] = []
        while not self.lexer.at_kind("eof"):
            classes.append(self._class_decl())
        return ProgramAST(classes)

    def _class_decl(self) -> ClassDecl:
        line = self.lexer.current.line
        self.lexer.expect("class")
        name = self.lexer.expect_ident().text
        self.lexer.expect("{")
        decl = ClassDecl(name, line=line)
        while not self.lexer.at("}"):
            self._member(decl)
        self.lexer.expect("}")
        return decl

    def _member(self, decl: ClassDecl) -> None:
        line = self.lexer.current.line
        is_static = bool(self.lexer.accept("static"))
        first = self.lexer.expect_ident().text
        if not is_static and first == decl.name and self.lexer.at("("):
            params = self._params()
            body = self._block()
            decl.methods.append(
                MethodDecl(
                    "<init>", params, "void", body,
                    is_static=False, is_constructor=True, line=line,
                )
            )
            return
        member_name = self.lexer.expect_ident().text
        if self.lexer.accept(";"):
            decl.fields.append(FieldDecl(member_name, first, is_static, line))
            return
        params = self._params()
        body = self._block()
        decl.methods.append(
            MethodDecl(member_name, params, first, body, is_static, False, line)
        )

    def _params(self) -> List[Tuple[str, str]]:
        self.lexer.expect("(")
        params: List[Tuple[str, str]] = []
        if not self.lexer.at(")"):
            while True:
                param_type = self.lexer.expect_ident().text
                param_name = self.lexer.expect_ident().text
                params.append((param_name, param_type))
                if not self.lexer.accept(","):
                    break
        self.lexer.expect(")")
        return params

    def _block(self) -> Tuple[StmtT, ...]:
        self.lexer.expect("{")
        stmts: List[StmtT] = []
        while not self.lexer.at("}"):
            stmts.append(self._stmt())
        self.lexer.expect("}")
        return tuple(stmts)

    # -- statements -----------------------------------------------------------

    def _stmt(self) -> StmtT:
        line = self.lexer.current.line
        if self.lexer.accept("if"):
            self.lexer.expect("(")
            cond = self._cond()
            self.lexer.expect(")")
            then_body = self._block()
            else_body: Tuple[StmtT, ...] = ()
            if self.lexer.accept("else"):
                if self.lexer.at("if"):
                    else_body = (self._stmt(),)
                else:
                    else_body = self._block()
            return IfS(cond, then_body, else_body, line)
        if self.lexer.accept("while"):
            self.lexer.expect("(")
            cond = self._cond()
            self.lexer.expect(")")
            body = self._block()
            return WhileS(cond, body, line)
        if self.lexer.accept("for"):
            return self._for_stmt(line)
        if self.lexer.accept("return"):
            if self.lexer.accept(";"):
                return ReturnS(None, line)
            expr = self._expr()
            self.lexer.expect(";")
            return ReturnS(expr, line)
        # declaration: IDENT IDENT [= expr] ;
        if (
            self.lexer.current.kind == "ident"
            and self.lexer.peek(1).kind == "ident"
        ):
            decl_type = self.lexer.expect_ident().text
            name = self.lexer.expect_ident().text
            init: Optional[ExprT] = None
            if self.lexer.accept("="):
                init = self._expr()
            self.lexer.expect(";")
            return DeclS(decl_type, name, init, line)
        expr = self._expr()
        if isinstance(expr, PathE) and self.lexer.accept("="):
            rhs = self._expr()
            self.lexer.expect(";")
            return AssignS(expr, rhs, line)
        self.lexer.expect(";")
        return ExprS(expr, line)

    def _for_stmt(self, line: int) -> StmtT:
        """Desugar ``for (init; cond; step) body`` into init + while."""
        self.lexer.expect("(")
        init: Optional[StmtT] = None
        if not self.lexer.at(";"):
            init = self._simple_stmt_no_semi(line)
        self.lexer.expect(";")
        cond: CondT = NondetC(line)
        if not self.lexer.at(";"):
            cond = self._cond()
        self.lexer.expect(";")
        step: Optional[StmtT] = None
        if not self.lexer.at(")"):
            step = self._simple_stmt_no_semi(line)
        self.lexer.expect(")")
        body = self._block()
        loop_body = body + ((step,) if step is not None else ())
        loop = WhileS(cond, loop_body, line)
        if init is not None:
            return BlockS((init, loop), line)
        return loop

    def _simple_stmt_no_semi(self, line: int) -> StmtT:
        if (
            self.lexer.current.kind == "ident"
            and self.lexer.peek(1).kind == "ident"
        ):
            decl_type = self.lexer.expect_ident().text
            name = self.lexer.expect_ident().text
            init: Optional[ExprT] = None
            if self.lexer.accept("="):
                init = self._expr()
            return DeclS(decl_type, name, init, line)
        expr = self._expr()
        if isinstance(expr, PathE) and self.lexer.accept("="):
            return AssignS(expr, self._expr(), line)
        return ExprS(expr, line)

    # -- conditions ------------------------------------------------------------

    def _cond(self) -> CondT:
        line = self.lexer.current.line
        if self.lexer.accept("?"):
            return NondetC(line)
        negated = bool(self.lexer.accept("!"))
        expr = self._expr()
        if isinstance(expr, CallE):
            return CallC(expr, negated, line)
        if not isinstance(expr, PathE):
            raise JliteParseError(
                f"unsupported condition operand at line {line}"
            )
        if negated:
            raise JliteParseError(
                f"'!' applies only to call conditions (line {line})"
            )
        if self.lexer.accept("=="):
            return CompareC(expr, self._cond_rhs(), True, line)
        if self.lexer.accept("!="):
            return CompareC(expr, self._cond_rhs(), False, line)
        raise JliteParseError(
            f"expected comparison or call condition at line {line}"
        )

    def _cond_rhs(self) -> ExprT:
        if self.lexer.accept("null"):
            return NullE(self.lexer.current.line)
        return self._path()

    # -- expressions --------------------------------------------------------------

    def _expr(self) -> ExprT:
        line = self.lexer.current.line
        if self.lexer.accept("new"):
            class_name = self.lexer.expect_ident().text
            args = self._args()
            return NewE(class_name, args, line)
        if self.lexer.accept("null"):
            return NullE(line)
        if self.lexer.current.kind == "string":
            token = self.lexer.advance()
            return OpaqueE(token.text, line)
        if self.lexer.current.kind == "int":
            token = self.lexer.advance()
            return OpaqueE(token.text, line)
        path = self._path()
        if self.lexer.at("("):
            args = self._args()
            if path.fields:
                target = PathE(path.root, path.fields[:-1], path.line)
                return CallE(target, path.fields[-1], args, line)
            return CallE(None, path.root, args, line)
        return path

    def _args(self) -> Tuple[ExprT, ...]:
        self.lexer.expect("(")
        args: List[ExprT] = []
        if not self.lexer.at(")"):
            while True:
                args.append(self._expr())
                if not self.lexer.accept(","):
                    break
        self.lexer.expect(")")
        return tuple(args)

    def _path(self) -> PathE:
        line = self.lexer.current.line
        root = self.lexer.expect_ident().text
        fields: List[str] = []
        # consume field segments greedily; call detection happens in _expr
        # by checking for '(' after the whole path
        while self.lexer.at(".") and self.lexer.peek(1).kind == "ident":
            self.lexer.expect(".")
            fields.append(self.lexer.expect_ident().text)
        return PathE(root, tuple(fields), line)


class _OracleLexer(Lexer):
    """The shared token cursor over the oracle tokenizer's tokens."""

    def __init__(self, source: str) -> None:
        self._tokens = [Token(*token) for token in oracle_tokenize(source)]
        self._position = 0


# -- class table and lowering ---------------------------------------------------


def _build_class_table(
    program: Program, ast: ProgramAST
) -> Dict[str, Tuple[StmtT, ...]]:
    """Fill the class table; returns each method's body by qualified name."""
    bodies: Dict[str, Tuple[StmtT, ...]] = {}
    for decl in ast.classes:
        if decl.name in program.classes or program.spec.is_component_type(
            decl.name
        ):
            raise TypeError_(f"class {decl.name} conflicts")
        info = ClassInfo(decl.name)
        program.classes[decl.name] = info
    for decl in ast.classes:
        info = program.classes[decl.name]
        for fdecl in decl.fields:
            program._check_type(fdecl.type, fdecl.line)
            finfo = FieldInfo(
                fdecl.name, fdecl.type, fdecl.is_static, decl.name
            )
            info.fields[fdecl.name] = finfo
            if fdecl.is_static:
                program.statics[finfo.static_name] = fdecl.type
        for mdecl in decl.methods:
            name = mdecl.name
            qualified = f"{decl.name}.{name}"
            if qualified in program.methods:
                raise TypeError_(f"method {qualified} redeclared")
            if mdecl.return_type != "void":
                program._check_type(mdecl.return_type, mdecl.line)
            for _pname, ptype in mdecl.params:
                program._check_type(ptype, mdecl.line)
            minfo = MethodInfo(
                qualified,
                decl.name,
                name,
                list(mdecl.params),
                mdecl.return_type,
                mdecl.is_static,
                mdecl.is_constructor,
            )
            program.methods[qualified] = minfo
            info.methods[name] = minfo
            bodies[qualified] = mdecl.body
    return bodies


class _CfgBuilder:
    def __init__(
        self, program: Program, method: MethodInfo, body: Tuple[StmtT, ...]
    ) -> None:
        self.program = program
        self.method = method
        self.body = body
        self.cfg = CFG(method.qualified)
        self.vars: Dict[str, str] = {}
        self._temp_counter = itertools.count()
        if not method.is_static:
            self.vars["this"] = method.class_name
        for pname, ptype in method.params:
            self.vars[pname] = ptype

    # -- helpers -----------------------------------------------------------------

    def temp(self, type_name: str) -> str:
        name = f"$t{next(self._temp_counter)}"
        self.vars[name] = type_name
        return name

    def declare(self, name: str, type_name: str, line: int) -> None:
        if name in self.vars:
            raise TypeError_(
                f"variable {name} redeclared in {self.method.qualified} "
                f"(line {line})"
            )
        self.vars[name] = type_name

    def var_type(self, name: str) -> str:
        if name in self.vars:
            return self.vars[name]
        if name in self.program.statics:
            return self.program.statics[name]
        raise TypeError_(f"unknown variable {name} in {self.method.qualified}")

    def build(self) -> CFG:
        exit_node = self._stmts(self.body, self.cfg.entry)
        self.cfg.add_edge(exit_node, self.cfg.exit, SReturn(None))
        self.method.variables = dict(self.vars)
        return self.cfg

    # -- statement lowering -----------------------------------------------------------

    def _stmts(self, body: Tuple[StmtT, ...], node: int) -> int:
        for stmt in body:
            node = self._stmt(stmt, node)
        return node

    def _stmt(self, stmt: StmtT, node: int) -> int:
        if isinstance(stmt, DeclS):
            self.program._check_type(stmt.type, stmt.line)
            self.declare(stmt.name, stmt.type, stmt.line)
            if stmt.init is not None:
                return self._assign_to_var(stmt.name, stmt.init, stmt.line, node)
            succ = self.cfg.new_node()
            self.cfg.add_edge(
                node, succ, SNull(stmt.name, stmt.type, stmt.line)
            )
            return succ
        if isinstance(stmt, AssignS):
            return self._assign(stmt.lhs, stmt.rhs, stmt.line, node)
        if isinstance(stmt, ExprS):
            _var, node = self._expr(stmt.expr, node, want_value=False)
            return node
        if isinstance(stmt, ReturnS):
            if stmt.expr is None:
                self.cfg.add_edge(node, self.cfg.exit, SReturn(None, stmt.line))
            else:
                var, node = self._expr(stmt.expr, node, want_value=True)
                self.cfg.add_edge(node, self.cfg.exit, SReturn(var, stmt.line))
            # dead continuation node
            return self.cfg.new_node()
        if isinstance(stmt, IfS):
            then_entry, else_entry, node = self._branch(stmt.cond, node)
            then_exit = self._stmts(stmt.then_body, then_entry)
            else_exit = self._stmts(stmt.else_body, else_entry)
            join = self.cfg.new_node()
            self.cfg.add_edge(then_exit, join, SNop(stmt.line))
            self.cfg.add_edge(else_exit, join, SNop(stmt.line))
            return join
        if isinstance(stmt, WhileS):
            head = self.cfg.new_node()
            self.cfg.add_edge(node, head, SNop(stmt.line))
            body_entry, exit_entry, _head2 = self._branch(stmt.cond, head)
            body_exit = self._stmts(stmt.body, body_entry)
            self.cfg.add_edge(body_exit, head, SNop(stmt.line))
            return exit_entry
        if isinstance(stmt, BlockS):
            return self._stmts(stmt.body, node)
        raise TypeError_(f"unsupported statement {stmt!r}")

    def _branch(self, cond: CondT, node: int) -> Tuple[int, int, int]:
        """Lower a condition; returns (true-entry, false-entry, pred)."""
        if isinstance(cond, CallC):
            _var, node = self._expr(cond.call, node, want_value=False)
            cond = NondetC(cond.line)
        true_node = self.cfg.new_node()
        false_node = self.cfg.new_node()
        if isinstance(cond, NondetC):
            self.cfg.add_edge(node, true_node, SNop(cond.line))
            self.cfg.add_edge(node, false_node, SNop(cond.line))
            return true_node, false_node, node
        if isinstance(cond, CompareC):
            lhs_var, node = self._path_value(cond.lhs, node)
            if isinstance(cond.rhs, NullE):
                rhs_var = "null"
            else:
                rhs_var, node = self._path_value(cond.rhs, node)
            self.cfg.add_edge(
                node, true_node,
                SAssume(lhs_var, rhs_var, cond.equal, cond.line),
            )
            self.cfg.add_edge(
                node, false_node,
                SAssume(lhs_var, rhs_var, not cond.equal, cond.line),
            )
            return true_node, false_node, node
        raise TypeError_(f"unsupported condition {cond!r}")

    # -- assignment lowering --------------------------------------------------------

    def _assign(
        self, lhs: PathE, rhs: ExprT, line: int, node: int
    ) -> int:
        target = self._resolve_lhs(lhs)
        if target[0] == "var":
            return self._assign_to_var(target[1], rhs, line, node)
        _tag, base_path, field_name, field_type = target
        base_var, node = self._path_value(base_path, node)
        rhs_var, node = self._expr(rhs, node, want_value=True)
        succ = self.cfg.new_node()
        if rhs_var is None:
            rhs_var = self.temp(field_type)
            null_node = self.cfg.new_node()
            self.cfg.add_edge(
                node, null_node, SNull(rhs_var, field_type, line)
            )
            node = null_node
        self.cfg.add_edge(
            node, succ, SStore(base_var, field_name, rhs_var, field_type, line)
        )
        return succ

    def _resolve_lhs(self, lhs: PathE):
        """Classify an lvalue as ('var', name) or
        ('field', base PathE, field, type)."""
        root_kind, root_name, root_type = self._resolve_root(lhs)
        if root_kind == "class":
            # Class.f[...]: rebase onto the static variable
            if not lhs.fields:
                raise TypeError_(f"class name {root_name} used as a value")
            finfo = self.program.classes[root_name].fields.get(lhs.fields[0])
            if finfo is None or not finfo.is_static:
                raise TypeError_(
                    f"unknown static field {root_name}.{lhs.fields[0]}"
                )
            rebased = PathE(finfo.static_name, lhs.fields[1:], lhs.line)
            # static names contain a dot, so resolve manually
            if not rebased.fields:
                return ("var", finfo.static_name)
            base = PathE(finfo.static_name, rebased.fields[:-1], lhs.line)
            base_type = self._static_path_type(
                finfo.type, rebased.fields[:-1], lhs.line
            )
            field_name = rebased.fields[-1]
            field_type = self._field_type(base_type, field_name, lhs.line)
            return ("field", base, field_name, field_type)
        if not lhs.fields:
            if root_kind == "field":
                # implicit this.f
                return ("field", PathE("this", (), lhs.line), root_name,
                        root_type)
            return ("var", root_name)
        # walk to the second-to-last component
        if root_kind == "field":
            base = PathE("this", (root_name,) + lhs.fields[:-1], lhs.line)
            base_type = self._path_type(base)
        else:
            base = PathE(root_name, lhs.fields[:-1], lhs.line)
            base_type = self._path_type(base)
        field_name = lhs.fields[-1]
        field_type = self._field_type(base_type, field_name, lhs.line)
        return ("field", base, field_name, field_type)

    def _assign_to_var(
        self, dst: str, rhs: ExprT, line: int, node: int
    ) -> int:
        dst_type = self.var_type(dst)
        if isinstance(rhs, NullE):
            succ = self.cfg.new_node()
            self.cfg.add_edge(node, succ, SNull(dst, dst_type, line))
            return succ
        if isinstance(rhs, OpaqueE):
            succ = self.cfg.new_node()
            self.cfg.add_edge(node, succ, SNop(line))
            return succ
        var, node = self._expr(rhs, node, want_value=True, result_var=dst)
        if var is not None and var != dst:
            succ = self.cfg.new_node()
            self.cfg.add_edge(node, succ, SCopy(dst, var, dst_type, line))
            return succ
        return node

    # -- expression lowering -----------------------------------------------------------

    def _expr(
        self,
        expr: ExprT,
        node: int,
        want_value: bool,
        result_var: Optional[str] = None,
    ) -> Tuple[Optional[str], int]:
        """Lower an expression; returns (value variable or None, node)."""
        if isinstance(expr, NullE) or isinstance(expr, OpaqueE):
            return None, node
        if isinstance(expr, PathE):
            var, node = self._path_value(expr, node)
            return var, node
        if isinstance(expr, NewE):
            return self._new(expr, node, result_var)
        if isinstance(expr, CallE):
            return self._call(expr, node, want_value, result_var)
        raise TypeError_(f"unsupported expression {expr!r}")

    def _new(
        self, expr: NewE, node: int, result_var: Optional[str]
    ) -> Tuple[Optional[str], int]:
        class_name = expr.class_name
        arg_vars: List[Optional[str]] = []
        for arg in expr.args:
            var, node = self._expr(arg, node, want_value=True)
            arg_vars.append(var)
        if self.program.is_component_type(class_name):
            op = self.program.spec.operation(f"new {class_name}")
            dst = result_var or self.temp(class_name)
            node = self._emit_comp_op(op, dst, None, arg_vars, expr.line, node)
            return dst, node
        if class_name not in self.program.classes:
            raise TypeError_(
                f"allocation of unknown class {class_name} (line {expr.line})"
            )
        dst = result_var or self.temp(class_name)
        alloc_node = self.cfg.new_node()
        self.cfg.add_edge(
            node, alloc_node, SNewClient(dst, class_name, expr.line)
        )
        node = alloc_node
        ctor = self.program.classes[class_name].methods.get("<init>")
        if ctor is not None:
            node = self._emit_client_call(
                ctor, dst, arg_vars, None, expr.line, node
            )
        elif expr.args:
            raise TypeError_(
                f"class {class_name} has no constructor (line {expr.line})"
            )
        return dst, node

    def _call(
        self,
        expr: CallE,
        node: int,
        want_value: bool,
        result_var: Optional[str],
    ) -> Tuple[Optional[str], int]:
        receiver_var: Optional[str] = None
        receiver_type: Optional[str] = None
        if expr.target is not None:
            # the target may be a class name (static call) or a path
            if (
                not expr.target.fields
                and expr.target.root in self.program.classes
                and expr.target.root not in self.vars
            ):
                receiver_type = expr.target.root
                receiver_var = None
                static_call = True
            else:
                receiver_var, node = self._path_value(expr.target, node)
                receiver_type = self.var_type(receiver_var)
                static_call = False
        else:
            receiver_type = self.method.class_name
            static_call = True

        arg_vars: List[Optional[str]] = []
        for arg in expr.args:
            var, node = self._expr(arg, node, want_value=True)
            arg_vars.append(var)

        if receiver_type is not None and self.program.is_component_type(
            receiver_type
        ):
            op_key = f"{receiver_type}.{expr.method}"
            op = self.program.spec.operation(op_key)
            result = None
            result_operand = op.operand("result")
            if result_operand is not None:
                result = result_var or self.temp(result_operand.type)
            node = self._emit_comp_op(
                op, result, receiver_var, arg_vars, expr.line, node
            )
            return result, node

        cinfo = self.program.classes.get(receiver_type or "")
        if cinfo is None or expr.method not in cinfo.methods:
            raise TypeError_(
                f"unknown method {receiver_type}.{expr.method} "
                f"(line {expr.line})"
            )
        callee = cinfo.methods[expr.method]
        if callee.is_static and not static_call:
            receiver_var = None  # static method invoked through a value
        if not callee.is_static and static_call and expr.target is None:
            # same-class instance call: implicit this
            if self.method.is_static:
                raise TypeError_(
                    f"instance method {callee.qualified} called from static "
                    f"context (line {expr.line})"
                )
            receiver_var = "this"
        result = None
        if callee.return_type != "void" and (
            want_value or result_var is not None
        ):
            result = result_var or self.temp(callee.return_type)
        node = self._emit_client_call(
            callee, receiver_var, arg_vars, result, expr.line, node
        )
        return result, node

    def _emit_comp_op(
        self,
        op: Operation,
        result: Optional[str],
        receiver: Optional[str],
        arg_vars: List[Optional[str]],
        line: int,
        node: int,
    ) -> int:
        bindings: List[Tuple[str, str]] = []
        params = [o for o in op.operands if o.role == "arg"]
        if len(arg_vars) != len(params):
            raise TypeError_(
                f"{op.key} expects {len(params)} arguments, got "
                f"{len(arg_vars)} (line {line})"
            )
        for operand in op.operands:
            if operand.role == "receiver":
                if receiver is None:
                    raise TypeError_(f"{op.key} needs a receiver (line {line})")
                bindings.append((operand.name, receiver))
            elif operand.role == "result":
                if result is not None:
                    bindings.append((operand.name, result))
            elif operand.role == "arg":
                index = params.index(operand)
                var = arg_vars[index]
                if self.program.is_component_type(operand.type):
                    if var is None:
                        raise TypeError_(
                            f"{op.key}: component argument "
                            f"{operand.name} is null/opaque (line {line})"
                        )
                    bindings.append((operand.name, var))
        site_id = self.program.new_site(line, op.key, self.method.qualified)
        succ = self.cfg.new_node()
        self.cfg.add_edge(
            node, succ, SCallComp(op.key, tuple(bindings), site_id, line)
        )
        return succ

    def _emit_client_call(
        self,
        callee: MethodInfo,
        receiver: Optional[str],
        arg_vars: List[Optional[str]],
        result: Optional[str],
        line: int,
        node: int,
    ) -> int:
        if len(arg_vars) != len(callee.params):
            raise TypeError_(
                f"{callee.qualified} expects {len(callee.params)} arguments, "
                f"got {len(arg_vars)} (line {line})"
            )
        # null/opaque arguments materialize as fresh null temporaries so
        # callee parameters are always bound
        materialized: List[str] = []
        for var, (pname, ptype) in zip(arg_vars, callee.params):
            if var is None:
                temp = self.temp(ptype)
                null_node = self.cfg.new_node()
                self.cfg.add_edge(node, null_node, SNull(temp, ptype, line))
                node = null_node
                materialized.append(temp)
            else:
                materialized.append(var)
        succ = self.cfg.new_node()
        self.cfg.add_edge(
            node,
            succ,
            SCallClient(
                callee.qualified, receiver, tuple(materialized), result, line
            ),
        )
        return succ

    # -- path lowering ------------------------------------------------------------------

    def _resolve_root(self, path: PathE) -> Tuple[str, str, str]:
        """Resolve a path's root: ('var', name, type) for locals/params/
        temps/statics, ('field', name, type) for implicit this-fields,
        ('class', name, '') for class names starting static paths."""
        root = path.root
        if root in self.vars:
            return ("var", root, self.vars[root])
        if root in self.program.statics:
            return ("var", root, self.program.statics[root])
        cinfo = self.program.classes.get(self.method.class_name)
        if cinfo and root in cinfo.fields:
            finfo = cinfo.fields[root]
            if finfo.is_static:
                return ("var", finfo.static_name, finfo.type)
            if self.method.is_static:
                raise TypeError_(
                    f"instance field {root} used in static method "
                    f"{self.method.qualified}"
                )
            return ("field", root, finfo.type)
        if root in self.program.classes:
            return ("class", root, "")
        raise TypeError_(
            f"unknown name {root} in {self.method.qualified} "
            f"(line {path.line})"
        )

    def _path_type(self, path: PathE) -> str:
        kind, name, type_ = self._resolve_root(path)
        fields = path.fields
        if kind == "field":
            current = type_
        elif kind == "class":
            if not fields:
                raise TypeError_(f"class name {name} used as a value")
            finfo = self.program.classes[name].fields.get(fields[0])
            if finfo is None or not finfo.is_static:
                raise TypeError_(f"unknown static field {name}.{fields[0]}")
            current = finfo.type
            fields = fields[1:]
        else:
            current = type_
        for field_name in fields:
            current = self._field_type(current, field_name, path.line)
        return current

    def _static_path_type(
        self, start_type: str, fields, line: int
    ) -> str:
        current = start_type
        for field_name in fields:
            current = self._field_type(current, field_name, line)
        return current

    def _field_type(self, owner: str, field_name: str, line: int) -> str:
        cinfo = self.program.classes.get(owner)
        if cinfo is None or field_name not in cinfo.fields:
            raise TypeError_(
                f"unknown field {owner}.{field_name} (line {line})"
            )
        finfo = cinfo.fields[field_name]
        if finfo.is_static:
            raise TypeError_(
                f"static field {finfo.static_name} accessed through an "
                f"instance (line {line})"
            )
        return finfo.type

    def _path_value(self, path: PathE, node: int) -> Tuple[str, int]:
        """Lower a path read to a variable, emitting loads for fields."""
        kind, name, type_ = self._resolve_root(path)
        fields = list(path.fields)
        if kind == "field":
            current_var = "this"
            current_type = self.method.class_name
            fields = [name] + fields
        elif kind == "class":
            if not fields:
                raise TypeError_(f"class name {name} used as a value")
            finfo = self.program.classes[name].fields.get(fields[0])
            if finfo is None or not finfo.is_static:
                raise TypeError_(f"unknown static field {name}.{fields[0]}")
            current_var = finfo.static_name
            current_type = finfo.type
            fields = fields[1:]
        else:
            current_var = name
            current_type = type_
        for field_name in fields:
            field_type = self._field_type(current_type, field_name, path.line)
            dst = self.temp(field_type)
            succ = self.cfg.new_node()
            self.cfg.add_edge(
                node,
                succ,
                SLoad(dst, current_var, field_name, field_type, path.line),
            )
            node = succ
            current_var = dst
            current_type = field_type
        return current_var, node
