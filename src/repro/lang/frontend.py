"""The Jlite frontend: tokens straight to a resolved, lowered program.

Grammar sketch::

    program := class*
    class   := 'class' NAME '{' member* '}'
    member  := ['static'] TYPE NAME ';'
             | ['static'] TYPE NAME '(' params ')' block
             | NAME '(' params ')' block                     constructor
    stmt    := TYPE NAME ['=' expr] ';'
             | path '=' expr ';'
             | expr ';'
             | 'if' '(' cond ')' block ['else' (block | if-stmt)]
             | 'while' '(' cond ')' block
             | 'for' '(' [simple] ';' [cond] ';' [simple] ')' block
             | 'return' [expr] ';'
    expr    := 'new' NAME '(' args ')'
             | path ['(' args ')']       call when the trailing '(' follows
             | 'null' | STRING | INT
    cond    := '?' | ['!'] expr | path ('=='|'!=') (path|'null')

The only lexical ambiguity — declaration vs. assignment — is resolved by
one token of lookahead (``TYPE NAME`` vs. ``path =``).

There is no syntax tree.  A declaration pass reads the class, field and
method headers and skips each body by brace matching; the class table is
built from those headers; then each body, in method order, is parsed and
lowered to its 3-address :class:`~repro.lang.cfg.CFG` by one recursive
descent.  Node ids, ``$tN`` temporaries and site ids are numbered in the
order lowering has always met them: a ``for`` step is parsed before the
body but lowered after it, from its saved position.

Every syntax error wins over every type error.  The first
:class:`TypeError_` (or :class:`~repro.easl.spec.SpecError`, for an
operation the spec lacks) that the class table or lowering raises is
held; from then on bodies are only *skimmed* — parsed with
lowering off — and the held error is raised once every body parses.  A
header error found after a skipped body is raised only once the bodies
before it have been skimmed, since an error inside one of them comes
first.  :func:`check_syntax` skims a whole source without a spec.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.easl.spec import ComponentSpec, Operation, SpecError
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
from repro.lang.types import (
    ClassInfo,
    FieldInfo,
    MethodInfo,
    Program,
    TypeError_,
)
from repro.util.lexer import LexError, scan


class JliteParseError(Exception):
    """Raised on malformed Jlite input."""


#: the end-of-input spelling: no token is spelled empty
_EOF = ""

#: brace -> nesting change, for the declaration pass's brace matching
_DEPTH_STEP = {"{": 1, "}": -1}


def _is_ident(text: str) -> bool:
    """Whether a token of :func:`~repro.util.lexer.scan` is an identifier:
    it starts with a letter or ``_``.  ``isidentifier()`` says yes for
    every ASCII one."""
    return text.isidentifier() or text[:1].isalpha() or text[:1] == "_"


def parse_program(source: str, spec: ComponentSpec) -> Program:
    """Parse + resolve + lower a Jlite client program."""
    return _Frontend(source, spec).program


def check_syntax(source: str) -> None:
    """Raise :class:`JliteParseError` unless ``source`` parses; no name is
    resolved, so this needs no specification."""
    _Frontend(source, None)


class _Frontend:
    def __init__(self, source: str, spec: Optional[ComponentSpec]) -> None:
        try:
            texts, lines = scan(source)
        except LexError as error:
            raise JliteParseError(str(error)) from error
        eof_line = source.count("\n") + 1
        # two end markers: a one-token lookahead at the end sees the end
        self.texts = texts + [_EOF, _EOF]
        self.lines = lines + [eof_line, eof_line]
        self.pos = 0
        self.live = spec is not None
        self.held: Optional[Exception] = None
        self.program = Program(spec) if spec is not None else None
        self.plans: Dict[str, _OpPlan] = {}
        self.cfg = CFG("")
        classes, bodies = self._declarations()
        methods: List[MethodInfo] = []
        if self.live:
            try:
                methods = self._class_table(classes)
            except TypeError_ as error:
                self._hold(error)
        for index, start in enumerate(bodies):
            if self.live:
                try:
                    self._lower_body(methods[index], start)
                    continue
                except (TypeError_, SpecError) as error:
                    self._hold(error)
            self._skim_body(start)
        if self.held is not None:
            raise self.held

    def _hold(self, error: Exception) -> None:
        self.held = error
        self.live = False

    # -- tokens ------------------------------------------------------------

    def _error(self, expected: str, pos: int) -> JliteParseError:
        text = self.texts[pos]
        if text == _EOF:
            found = "<end of input>"
        else:
            found = repr(text[1:-1] if text[0] == '"' else text)
        return JliteParseError(
            f"expected {expected} but found {found} at line {self.lines[pos]}"
        )

    def _expect(self, text: str) -> None:
        pos = self.pos
        if self.texts[pos] != text:
            raise self._error(repr(text), pos)
        self.pos = pos + 1

    def _ident(self) -> str:
        pos = self.pos
        text = self.texts[pos]
        if not _is_ident(text):
            raise self._error("identifier", pos)
        self.pos = pos + 1
        return text

    def _skim(self, parse, *args) -> None:
        """Run ``parse`` with lowering off, into a scratch graph."""
        live, cfg = self.live, self.cfg
        self.live, self.cfg = False, CFG("")
        parse(*args)
        self.live, self.cfg = live, cfg

    def _skim_body(self, start: int) -> None:
        self.pos = start
        self._skim(self._block, 0)

    # -- declarations ------------------------------------------------------

    def _declarations(self):
        """Class headers and the start of each body, in source order."""
        texts = self.texts
        self.depths = list(
            itertools.accumulate(
                map(_DEPTH_STEP.get, texts, itertools.repeat(0))
            )
        )
        classes: List[tuple] = []
        bodies: List[int] = []
        try:
            while texts[self.pos] != _EOF:
                classes.append(self._class_decl(bodies))
        except JliteParseError as error:
            header_error = error
        else:
            return classes, bodies
        for start in bodies:
            self._skim_body(start)
        raise header_error

    def _class_decl(self, bodies: List[int]) -> tuple:
        self._expect("class")
        name = self._ident()
        self._expect("{")
        fields: List[tuple] = []
        methods: List[tuple] = []
        while self.texts[self.pos] != "}":
            line = self.lines[self.pos]
            is_static = self.texts[self.pos] == "static"
            if is_static:
                self.pos += 1
            first = self._ident()
            if not is_static and first == name and self.texts[self.pos] == "(":
                methods.append(
                    ("<init>", self._params(), "void", False, True, line)
                )
                self._skip_body(bodies)
                continue
            member = self._ident()
            if self.texts[self.pos] == ";":
                self.pos += 1
                fields.append((member, first, is_static, line))
                continue
            methods.append(
                (member, self._params(), first, is_static, False, line)
            )
            self._skip_body(bodies)
        self.pos += 1
        return name, fields, methods

    def _params(self) -> List[Tuple[str, str]]:
        self._expect("(")
        params: List[Tuple[str, str]] = []
        if self.texts[self.pos] != ")":
            while True:
                param_type = self._ident()
                params.append((self._ident(), param_type))
                if self.texts[self.pos] != ",":
                    break
                self.pos += 1
        self._expect(")")
        return params

    def _skip_body(self, bodies: List[int]) -> None:
        """Record a body's start and move past its matching brace."""
        start = self.pos
        self._expect("{")
        bodies.append(start)
        try:
            self.pos = self.depths.index(self.depths[start] - 1, start) + 1
        except ValueError:
            # never closed: skimming this body raises its own error first
            raise self._error("'}'", len(self.texts) - 1) from None

    def _class_table(self, classes: List[tuple]) -> List[MethodInfo]:
        """Fill the program's class table; returns methods in body order."""
        program = self.program
        for name, _fields, _methods in classes:
            if name in program.classes or program.is_component_type(name):
                raise TypeError_(f"class {name} conflicts")
            program.classes[name] = ClassInfo(name)
        for name, fields, methods in classes:
            info = program.classes[name]
            for field_name, field_type, is_static, line in fields:
                program._check_type(field_type, line)
                finfo = FieldInfo(field_name, field_type, is_static, name)
                info.fields[field_name] = finfo
                if is_static:
                    program.statics[finfo.static_name] = field_type
            for (method_name, params, return_type, is_static, is_constructor,
                 line) in methods:
                qualified = f"{name}.{method_name}"
                if qualified in program.methods:
                    raise TypeError_(f"method {qualified} redeclared")
                if return_type != "void":
                    program._check_type(return_type, line)
                for _param, param_type in params:
                    program._check_type(param_type, line)
                minfo = MethodInfo(
                    qualified, name, method_name, params, return_type,
                    is_static, is_constructor,
                )
                program.methods[qualified] = minfo
                info.methods[method_name] = minfo
        return list(program.methods.values())

    # -- bodies --------------------------------------------------------------

    def _lower_body(self, method: MethodInfo, start: int) -> None:
        self.method = method
        self.cfg = cfg = CFG(method.qualified)
        self.vars = {}
        self.temps = itertools.count()
        if not method.is_static:
            self.vars["this"] = method.class_name
        for name, type_name in method.params:
            self.vars[name] = type_name
        self.pos = start
        exit_node = self._block(cfg.entry)
        cfg.add_edge(exit_node, cfg.exit, SReturn(None))
        method.variables = dict(self.vars)
        method.cfg = cfg

    def _block(self, node: int) -> int:
        self._expect("{")
        texts = self.texts
        while texts[self.pos] != "}":
            node = self._stmt(node)
        self.pos += 1
        return node

    def _stmt(self, node: int) -> int:
        texts = self.texts
        pos = self.pos
        text = texts[pos]
        line = self.lines[pos]
        cfg = self.cfg
        if text == "if":
            self.pos = pos + 1
            self._expect("(")
            then_node, else_node = self._cond(node)
            self._expect(")")
            then_exit = self._block(then_node)
            else_exit = else_node
            if texts[self.pos] == "else":
                self.pos += 1
                if texts[self.pos] == "if":
                    else_exit = self._stmt(else_node)
                else:
                    else_exit = self._block(else_node)
            join = cfg.new_node()
            cfg.add_edge(then_exit, join, SNop(line))
            cfg.add_edge(else_exit, join, SNop(line))
            return join
        if text == "while":
            self.pos = pos + 1
            self._expect("(")
            head = cfg.new_node()
            cfg.add_edge(node, head, SNop(line))
            body_node, exit_node = self._cond(head)
            self._expect(")")
            cfg.add_edge(self._block(body_node), head, SNop(line))
            return exit_node
        if text == "for":
            return self._for(node, line)
        if text == "return":
            self.pos = pos + 1
            if texts[self.pos] == ";":
                self.pos += 1
                cfg.add_edge(node, cfg.exit, SReturn(None, line))
            else:
                var, node = self._expr(node, True, None)
                self._expect(";")
                cfg.add_edge(node, cfg.exit, SReturn(var, line))
            # dead continuation node
            return cfg.new_node()
        node = self._simple(node, line)
        self._expect(";")
        return node

    def _for(self, node: int, line: int) -> int:
        """``for (init; cond; step) body`` as init + while, the step
        lowered at the end of the body."""
        texts = self.texts
        cfg = self.cfg
        self.pos += 1
        self._expect("(")
        if texts[self.pos] != ";":
            node = self._simple(node, line)
        self._expect(";")
        head = cfg.new_node()
        cfg.add_edge(node, head, SNop(line))
        if texts[self.pos] != ";":
            body_node, exit_node = self._cond(head)
        else:
            body_node, exit_node = self._nondet(head, line)
        self._expect(";")
        step = self.pos
        if texts[step] != ")":
            self._skim(self._simple, 0, line)
        self._expect(")")
        body_exit = self._block(body_node)
        if texts[step] != ")":
            end, self.pos = self.pos, step
            body_exit = self._simple(body_exit, line)
            self.pos = end
        cfg.add_edge(body_exit, head, SNop(line))
        return exit_node

    def _simple(self, node: int, line: int) -> int:
        """A declaration, assignment or expression, without its ``;``."""
        texts = self.texts
        pos = self.pos
        text = texts[pos]
        following = texts[pos + 1]
        if _is_ident(text) and _is_ident(following):
            self.pos = pos + 2
            if self.live:
                self.program._check_type(text, line)
                self._declare(following, text, line)
            if texts[self.pos] == "=":
                self.pos += 1
                return self._assign_to_var(following, node, line)
            succ = self.cfg.new_node()
            self.cfg.add_edge(node, succ, SNull(following, text, line))
            return succ
        if text == "new" or text == "null" or text[:1] == '"' or (
            text[:1].isdigit()
        ):
            return self._expr(node, False, None)[1]
        root, fields, path_line = self._path()
        if texts[self.pos] == "(":
            return self._call(root, fields, path_line, node, False, None)[1]
        if texts[self.pos] == "=":
            self.pos += 1
            return self._assign(root, fields, path_line, node, line)
        return self._path_value(root, fields, path_line, node)[1]

    # -- conditions ------------------------------------------------------------

    def _nondet(self, node: int, line: int) -> Tuple[int, int]:
        cfg = self.cfg
        true_node = cfg.new_node()
        false_node = cfg.new_node()
        cfg.add_edge(node, true_node, SNop(line))
        cfg.add_edge(node, false_node, SNop(line))
        return true_node, false_node

    def _cond(self, node: int) -> Tuple[int, int]:
        """Parse and lower a condition: (true entry, false entry)."""
        texts = self.texts
        pos = self.pos
        line = self.lines[pos]
        if texts[pos] == "?":
            self.pos = pos + 1
            return self._nondet(node, line)
        negated = texts[pos] == "!"
        if negated:
            self.pos = pos + 1
        text = texts[self.pos]
        if text == "new" or text == "null" or text[:1] == '"' or (
            text[:1].isdigit()
        ):
            self._expr(node, False, None)
            raise JliteParseError(
                f"unsupported condition operand at line {line}"
            )
        root, fields, path_line = self._path()
        if texts[self.pos] == "(":
            _var, node = self._call(root, fields, path_line, node, False, None)
            return self._nondet(node, line)
        if negated:
            raise JliteParseError(
                f"'!' applies only to call conditions (line {line})"
            )
        operator = texts[self.pos]
        if operator != "==" and operator != "!=":
            raise JliteParseError(
                f"expected comparison or call condition at line {line}"
            )
        self.pos += 1
        equal = operator == "=="
        rhs = None
        if texts[self.pos] == "null":
            self.pos += 1
        else:
            rhs = self._path()
        cfg = self.cfg
        true_node = cfg.new_node()
        false_node = cfg.new_node()
        lhs_var, node = self._path_value(root, fields, path_line, node)
        rhs_var = "null"
        if rhs is not None:
            rhs_var, node = self._path_value(*rhs, node)
        cfg.add_edge(node, true_node, SAssume(lhs_var, rhs_var, equal, line))
        cfg.add_edge(
            node, false_node, SAssume(lhs_var, rhs_var, not equal, line)
        )
        return true_node, false_node

    # -- expressions -------------------------------------------------------------

    def _path(self) -> Tuple[str, Tuple[str, ...], int]:
        """``root.f1.f2``: field segments are taken greedily; a call is
        told apart by the ``(`` after the whole path."""
        root = self._ident()
        texts = self.texts
        pos = self.pos
        line = self.lines[pos - 1]
        if texts[pos] != "." or not _is_ident(texts[pos + 1]):
            return root, (), line
        fields = []
        while texts[pos] == "." and _is_ident(texts[pos + 1]):
            fields.append(texts[pos + 1])
            pos += 2
        self.pos = pos
        return root, tuple(fields), line

    def _expr(
        self, node: int, want_value: bool, result_var: Optional[str]
    ) -> Tuple[Optional[str], int]:
        """Parse and lower an expression: (value variable or None, node)."""
        pos = self.pos
        text = self.texts[pos]
        if text == "new":
            self.pos = pos + 1
            return self._new(self._ident(), self.lines[pos], node, result_var)
        if text == "null" or text[:1] == '"' or text[:1].isdigit():
            self.pos = pos + 1
            return None, node
        root, fields, line = self._path()
        if self.texts[self.pos] == "(":
            return self._call(root, fields, line, node, want_value, result_var)
        return self._path_value(root, fields, line, node)

    def _args(self, node: int) -> Tuple[List[Optional[str]], int]:
        self._expect("(")
        texts = self.texts
        arg_vars: List[Optional[str]] = []
        if texts[self.pos] != ")":
            while True:
                var, node = self._expr(node, True, None)
                arg_vars.append(var)
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self._expect(")")
        return arg_vars, node

    # -- lowering ------------------------------------------------------------------
    #
    # The helpers below resolve names and may raise; those that parse the
    # rest of their construct only parse it when lowering is off.

    def _temp(self, type_name: str) -> str:
        name = f"$t{next(self.temps)}"
        self.vars[name] = type_name
        return name

    def _declare(self, name: str, type_name: str, line: int) -> None:
        if name in self.vars:
            raise TypeError_(
                f"variable {name} redeclared in {self.method.qualified} "
                f"(line {line})"
            )
        self.vars[name] = type_name

    def _var_type(self, name: str) -> str:
        if name in self.vars:
            return self.vars[name]
        if name in self.program.statics:
            return self.program.statics[name]
        raise TypeError_(f"unknown variable {name} in {self.method.qualified}")

    def _assign(
        self, root: str, fields: Tuple[str, ...], path_line: int, node: int,
        line: int,
    ) -> int:
        if not self.live:
            return self._expr(node, True, None)[1]
        target = self._resolve_lhs(root, fields, path_line)
        if target[0] == "var":
            return self._assign_to_var(target[1], node, line)
        _tag, base_root, base_fields, field_name, field_type = target
        base_var, node = self._path_value(base_root, base_fields, path_line, node)
        rhs_var, node = self._expr(node, True, None)
        cfg = self.cfg
        succ = cfg.new_node()
        if rhs_var is None:
            rhs_var = self._temp(field_type)
            null_node = cfg.new_node()
            cfg.add_edge(node, null_node, SNull(rhs_var, field_type, line))
            node = null_node
        cfg.add_edge(
            node, succ, SStore(base_var, field_name, rhs_var, field_type, line)
        )
        return succ

    def _resolve_lhs(self, root: str, fields: Tuple[str, ...], line: int):
        """Classify an lvalue as ('var', name) or
        ('field', base root, base fields, field, type)."""
        root_kind, root_name, root_type = self._resolve_root(root, line)
        if root_kind == "class":
            # Class.f[...]: rebase onto the static variable
            finfo = self._static_root(root_name, fields)
            rest = fields[1:]
            if not rest:
                return ("var", finfo.static_name)
            base_type = finfo.type
            for field_name in rest[:-1]:
                base_type = self._field_type(base_type, field_name, line)
            field_type = self._field_type(base_type, rest[-1], line)
            return ("field", finfo.static_name, rest[:-1], rest[-1], field_type)
        if not fields:
            if root_kind == "field":
                # implicit this.f
                return ("field", "this", (), root_name, root_type)
            return ("var", root_name)
        # walk to the second-to-last component
        if root_kind == "field":
            base = ("this", (root_name,) + fields[:-1])
        else:
            base = (root_name, fields[:-1])
        base_type = self._path_type(*base, line)
        field_type = self._field_type(base_type, fields[-1], line)
        return ("field", *base, fields[-1], field_type)

    def _assign_to_var(self, dst: str, node: int, line: int) -> int:
        """Parse the right-hand side of ``dst = ...`` and lower it."""
        dst_type = self._var_type(dst) if self.live else None
        text = self.texts[self.pos]
        cfg = self.cfg
        if text == "null":
            self.pos += 1
            succ = cfg.new_node()
            cfg.add_edge(node, succ, SNull(dst, dst_type, line))
            return succ
        if text[:1] == '"' or text[:1].isdigit():
            self.pos += 1
            succ = cfg.new_node()
            cfg.add_edge(node, succ, SNop(line))
            return succ
        var, node = self._expr(node, True, dst)
        if var is not None and var != dst:
            succ = cfg.new_node()
            cfg.add_edge(node, succ, SCopy(dst, var, dst_type, line))
            return succ
        return node

    def _new(
        self, class_name: str, line: int, node: int, result_var: Optional[str]
    ) -> Tuple[Optional[str], int]:
        arg_vars, node = self._args(node)
        if not self.live:
            return None, node
        program = self.program
        if program.is_component_type(class_name):
            plan = self._plan(f"new {class_name}")
            dst = result_var or self._temp(class_name)
            node = self._emit_comp_op(plan, dst, None, arg_vars, line, node)
            return dst, node
        if class_name not in program.classes:
            raise TypeError_(
                f"allocation of unknown class {class_name} (line {line})"
            )
        dst = result_var or self._temp(class_name)
        alloc_node = self.cfg.new_node()
        self.cfg.add_edge(node, alloc_node, SNewClient(dst, class_name, line))
        node = alloc_node
        ctor = program.classes[class_name].methods.get("<init>")
        if ctor is not None:
            node = self._emit_client_call(ctor, dst, arg_vars, None, line, node)
        elif arg_vars:
            raise TypeError_(
                f"class {class_name} has no constructor (line {line})"
            )
        return dst, node

    def _call(
        self,
        root: str,
        fields: Tuple[str, ...],
        line: int,
        node: int,
        want_value: bool,
        result_var: Optional[str],
    ) -> Tuple[Optional[str], int]:
        if not self.live:
            return None, self._args(node)[1]
        program = self.program
        receiver_var: Optional[str] = None
        if fields:
            # the target may be a class name (static call) or a path
            method_name = fields[-1]
            target_fields = fields[:-1]
            if (
                not target_fields
                and root in program.classes
                and root not in self.vars
            ):
                receiver_type = root
                static_call = True
            else:
                receiver_var, node = self._path_value(
                    root, target_fields, line, node
                )
                receiver_type = self._var_type(receiver_var)
                static_call = False
        else:
            method_name = root
            receiver_type = self.method.class_name
            static_call = True

        arg_vars, node = self._args(node)

        if program.is_component_type(receiver_type):
            plan = self._plan(f"{receiver_type}.{method_name}")
            result = None
            if plan.result_type is not None:
                result = result_var or self._temp(plan.result_type)
            node = self._emit_comp_op(
                plan, result, receiver_var, arg_vars, line, node
            )
            return result, node

        cinfo = program.classes.get(receiver_type)
        if cinfo is None or method_name not in cinfo.methods:
            raise TypeError_(
                f"unknown method {receiver_type}.{method_name} (line {line})"
            )
        callee = cinfo.methods[method_name]
        if callee.is_static and not static_call:
            receiver_var = None  # static method invoked through a value
        if not callee.is_static and static_call and not fields:
            # same-class instance call: implicit this
            if self.method.is_static:
                raise TypeError_(
                    f"instance method {callee.qualified} called from static "
                    f"context (line {line})"
                )
            receiver_var = "this"
        result = None
        if callee.return_type != "void" and (
            want_value or result_var is not None
        ):
            result = result_var or self._temp(callee.return_type)
        node = self._emit_client_call(
            callee, receiver_var, arg_vars, result, line, node
        )
        return result, node

    def _plan(self, key: str) -> "_OpPlan":
        """The operation ``key`` names, looked up (and planned) once."""
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = _OpPlan(
                self.program.spec.operation(key), self.program
            )
        return plan

    def _emit_comp_op(
        self,
        plan: "_OpPlan",
        result: Optional[str],
        receiver: Optional[str],
        arg_vars: List[Optional[str]],
        line: int,
        node: int,
    ) -> int:
        key = plan.key
        if len(arg_vars) != plan.arity:
            raise TypeError_(
                f"{key} expects {plan.arity} arguments, got "
                f"{len(arg_vars)} (line {line})"
            )
        bindings: List[Tuple[str, str]] = []
        for role, name, index in plan.operands:
            if role == "receiver":
                if receiver is None:
                    raise TypeError_(f"{key} needs a receiver (line {line})")
                bindings.append((name, receiver))
            elif role == "result":
                if result is not None:
                    bindings.append((name, result))
            else:
                var = arg_vars[index]
                if var is None:
                    raise TypeError_(
                        f"{key}: component argument {name} is null/opaque "
                        f"(line {line})"
                    )
                bindings.append((name, var))
        site_id = self.program.new_site(line, key, self.method.qualified)
        succ = self.cfg.new_node()
        self.cfg.add_edge(
            node, succ, SCallComp(key, tuple(bindings), site_id, line)
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
        cfg = self.cfg
        materialized: List[str] = []
        for var, (_name, param_type) in zip(arg_vars, callee.params):
            if var is None:
                temp = self._temp(param_type)
                null_node = cfg.new_node()
                cfg.add_edge(node, null_node, SNull(temp, param_type, line))
                node = null_node
                materialized.append(temp)
            else:
                materialized.append(var)
        succ = cfg.new_node()
        cfg.add_edge(
            node,
            succ,
            SCallClient(
                callee.qualified, receiver, tuple(materialized), result, line
            ),
        )
        return succ

    # -- paths ---------------------------------------------------------------------

    def _resolve_root(self, root: str, line: int) -> Tuple[str, str, str]:
        """Resolve a path's root: ('var', name, type) for locals/params/
        temps/statics, ('field', name, type) for implicit this-fields,
        ('class', name, '') for class names starting static paths."""
        if root in self.vars:
            return ("var", root, self.vars[root])
        program = self.program
        if root in program.statics:  # a rebased static lvalue's base
            return ("var", root, program.statics[root])
        cinfo = program.classes.get(self.method.class_name)
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
        if root in program.classes:
            return ("class", root, "")
        raise TypeError_(
            f"unknown name {root} in {self.method.qualified} (line {line})"
        )

    def _static_root(self, name: str, fields: Tuple[str, ...]):
        """The static field that ``Class.f...`` starts with."""
        if not fields:
            raise TypeError_(f"class name {name} used as a value")
        finfo = self.program.classes[name].fields.get(fields[0])
        if finfo is None or not finfo.is_static:
            raise TypeError_(f"unknown static field {name}.{fields[0]}")
        return finfo

    def _path_type(self, root: str, fields: Tuple[str, ...], line: int) -> str:
        kind, name, current = self._resolve_root(root, line)
        if kind == "class":
            current = self._static_root(name, fields).type
            fields = fields[1:]
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

    def _path_value(
        self, root: str, fields: Tuple[str, ...], line: int, node: int
    ) -> Tuple[Optional[str], int]:
        """Lower a path read to a variable, emitting loads for fields."""
        if not self.live:
            return None, node
        kind, name, current_type = self._resolve_root(root, line)
        current_var = name
        if kind == "field":
            current_var = "this"
            current_type = self.method.class_name
            fields = (name,) + fields
        elif kind == "class":
            finfo = self._static_root(name, fields)
            current_var = finfo.static_name
            current_type = finfo.type
            fields = fields[1:]
        cfg = self.cfg
        for field_name in fields:
            field_type = self._field_type(current_type, field_name, line)
            dst = self._temp(field_type)
            succ = cfg.new_node()
            cfg.add_edge(
                node, succ, SLoad(dst, current_var, field_name, field_type, line)
            )
            node = succ
            current_var = dst
            current_type = field_type
        return current_var, node


class _OpPlan:
    """What lowering reads of a component operation: its key, arity,
    result type, and the operands it binds in order — ``(role, name,
    argument index)`` for the receiver, the result and each
    component-typed argument."""

    __slots__ = ("key", "arity", "result_type", "operands")

    def __init__(self, op: Operation, program: Program) -> None:
        params = [o for o in op.operands if o.role == "arg"]
        result = op.operand("result")
        self.key = op.key
        self.arity = len(params)
        self.result_type = result.type if result is not None else None
        self.operands = tuple(
            (o.role, o.name, params.index(o) if o.role == "arg" else -1)
            for o in op.operands
            if o.role in ("receiver", "result")
            or (o.role == "arg" and program.is_component_type(o.type))
        )
