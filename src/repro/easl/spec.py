"""The component-specification model.

A :class:`ComponentSpec` wraps the parsed Easl classes and answers the
questions the rest of the pipeline asks:

* What *operations* can a client perform against the component?  An
  operation is a constructor call, a method call, or a copy assignment of
  a component reference — exactly the statement forms the paper's method
  abstractions cover (Fig. 5 includes ``v = new Set()``, ``v.add()``,
  ``i = v.iterator()``, ``i.remove()``, ``i.next()``, ``v = w``, ``i = j``).
* Which fields are mutable (Section 6)?  A field is *immutable* when it is
  assigned only during construction of its owning class; CMP's
  ``Set.ver`` and ``Iterator.defVer`` are mutable because ``add`` and
  ``remove`` reassign them.
* Is the specification *mutation-restricted* (Section 6)?  The supplied
  paper text truncates mid-definition, so this repo reconstructs the class
  as: all preconditions are alias conditions (``requires α == β``), the
  type graph is acyclic, and every assignment to a *mutable* field outside
  a constructor assigns a freshly allocated object.  Under this definition
  GRP/IMP/AOP are mutation-restricted while CMP is not (``defVer =
  set.ver`` in ``remove`` copies an existing value into a mutable field),
  matching the paper's classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.easl.ast import (
    Assign,
    ClassDecl,
    CmpCond,
    If,
    MethodDecl,
    NewExpr,
    PathExpr,
    Stmt,
)

#: Types that are opaque to the analysis: values of these types carry no
#: component state, so operands of these types never appear in derived
#: instrumentation predicates.
OPAQUE_TYPES = frozenset({"Object", "boolean", "void", "int", "String"})


@dataclass(frozen=True)
class Operand:
    """A named, typed slot of an operation.

    ``role`` is one of ``"receiver"``, ``"arg"``, ``"result"``, ``"dst"``,
    ``"src"``.  ``name`` is the canonical placeholder used in derived
    update formulae (e.g. the receiver of ``Set.add`` is the placeholder
    ``v`` in Fig. 5's ``stale_k := stale_k ∨ iterof_{k,v}``).
    """

    role: str
    name: str
    type: str


@dataclass(frozen=True)
class Operation:
    """One client-performable component operation."""

    kind: str  # "new" | "call" | "copy"
    class_name: str
    method: Optional[str]
    operands: Tuple[Operand, ...]

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"Iterator.remove"`` or ``"new Set"``."""
        if self.kind == "new":
            return f"new {self.class_name}"
        if self.kind == "copy":
            return f"copy {self.class_name}"
        return f"{self.class_name}.{self.method}"

    def operand(self, role: str) -> Optional[Operand]:
        for op in self.operands:
            if op.role == role:
                return op
        return None

    def component_operands(self, spec: "ComponentSpec") -> Tuple[Operand, ...]:
        return tuple(
            op for op in self.operands if spec.is_component_type(op.type)
        )

    def __str__(self) -> str:
        if self.kind == "new":
            args = ", ".join(
                o.name for o in self.operands if o.role == "arg"
            )
            return f"r = new {self.class_name}({args})"
        if self.kind == "copy":
            return f"dst = src  ({self.class_name})"
        receiver = self.operand("receiver")
        args = ", ".join(o.name for o in self.operands if o.role == "arg")
        call = f"{receiver.name if receiver else '?'}.{self.method}({args})"
        result = self.operand("result")
        return f"{result.name} = {call}" if result else call


class SpecError(Exception):
    """Raised for ill-formed specifications."""


class ComponentSpec:
    """A parsed and semantically-checked Easl specification."""

    def __init__(self, name: str, classes: Iterable[ClassDecl]) -> None:
        self.name = name
        self.classes: Dict[str, ClassDecl] = {}
        for decl in classes:
            if decl.name in self.classes:
                raise SpecError(f"class {decl.name} declared twice")
            self.classes[decl.name] = decl
        self._check()
        # the class table is fixed from here on (the Easl parser fills
        # each ClassDecl before constructing the spec), so the operation
        # table is built once; lowering, specialization and the
        # transforms look operations up per client statement
        self._operations: Dict[str, Operation] = {
            op.key: op for op in self._build_operations()
        }

    # -- basic queries -------------------------------------------------------

    def is_component_type(self, type_name: str) -> bool:
        return type_name in self.classes

    def field_type(self, class_name: str, field_name: str) -> str:
        decl = self.classes.get(class_name)
        if decl is None or field_name not in decl.fields:
            raise SpecError(f"unknown field {class_name}.{field_name}")
        return decl.fields[field_name]

    def method(self, class_name: str, method_name: str) -> MethodDecl:
        decl = self.classes.get(class_name)
        if decl is None or method_name not in decl.methods:
            raise SpecError(f"unknown method {class_name}.{method_name}")
        return decl.methods[method_name]

    def constructor(self, class_name: str) -> Optional[MethodDecl]:
        decl = self.classes.get(class_name)
        if decl is None:
            raise SpecError(f"unknown class {class_name}")
        return decl.constructor

    def _check(self) -> None:
        for decl in self.classes.values():
            for field_name, field_type in decl.fields.items():
                if (
                    field_type not in self.classes
                    and field_type not in OPAQUE_TYPES
                ):
                    raise SpecError(
                        f"field {decl.name}.{field_name} has unknown type "
                        f"{field_type}"
                    )

    # -- operations -----------------------------------------------------------

    def operations(self) -> List[Operation]:
        """Every operation a client may perform against the component."""
        return list(self._operations.values())

    def operation(self, key: str) -> Operation:
        found = self._operations.get(key)
        if found is None:
            raise SpecError(f"unknown operation {key!r}")
        return found

    def _build_operations(self) -> List[Operation]:
        ops: List[Operation] = []
        for decl in self.classes.values():
            ops.append(self._new_operation(decl))
            for method in decl.methods.values():
                ops.append(self._call_operation(decl, method))
            ops.append(
                Operation(
                    "copy",
                    decl.name,
                    None,
                    (
                        Operand("dst", "dst", decl.name),
                        Operand("src", "src", decl.name),
                    ),
                )
            )
        return ops

    def _new_operation(self, decl: ClassDecl) -> Operation:
        operands = [Operand("result", "r", decl.name)]
        ctor = decl.constructor
        if ctor is not None:
            for param_name, param_type in ctor.params:
                operands.append(Operand("arg", param_name, param_type))
        return Operation("new", decl.name, None, tuple(operands))

    def _call_operation(self, decl: ClassDecl, method: MethodDecl) -> Operation:
        operands = [Operand("receiver", "this", decl.name)]
        for param_name, param_type in method.params:
            operands.append(Operand("arg", param_name, param_type))
        if method.return_type in self.classes:
            operands.append(Operand("result", "ret", method.return_type))
        return Operation("call", decl.name, method.name, tuple(operands))

    # -- mutability / Section 6 ------------------------------------------------

    def field_assignments(self) -> List[Tuple[str, str, Assign, str, bool]]:
        """Every field assignment in the spec.

        Yields ``(owner_class, field_name, stmt, in_class, in_ctor)`` where
        ``owner_class`` is the class whose field is written (resolved
        through the LHS path's types) and ``in_class``/``in_ctor`` say
        where the assignment textually occurs.
        """
        found: List[Tuple[str, str, Assign, str, bool]] = []
        for decl in self.classes.values():
            bodies = []
            if decl.constructor is not None:
                bodies.append((decl.constructor, True))
            bodies.extend((m, False) for m in decl.methods.values())
            for method, is_ctor in bodies:
                env = self._method_env(decl, method)
                for stmt in _all_statements(method.body):
                    if not isinstance(stmt, Assign):
                        continue
                    owner = self._lhs_owner(decl, stmt.lhs, env)
                    if owner is None:
                        continue
                    owner_class, field_name = owner
                    found.append(
                        (owner_class, field_name, stmt, decl.name, is_ctor)
                    )
        return found

    def _method_env(
        self, decl: ClassDecl, method: MethodDecl
    ) -> Dict[str, str]:
        env = {"this": decl.name}
        env.update({name: type_ for name, type_ in method.params})
        return env

    def _lhs_owner(
        self, decl: ClassDecl, lhs: PathExpr, env: Dict[str, str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve the (class, field) a LHS path writes, or None for locals."""
        if not lhs.fields:
            if lhs.root in env or lhs.root == "this":
                # bare name: a parameter/local unless it names a field of
                # the enclosing class (implicit `this.`)
                if lhs.root in decl.fields and lhs.root not in env:
                    return (decl.name, lhs.root)
                return None
            if lhs.root in decl.fields:
                return (decl.name, lhs.root)
            return None  # local variable
        base_type = self._path_type(decl, PathExpr(lhs.root, lhs.fields[:-1]), env)
        if base_type is None:
            return None
        return (base_type, lhs.fields[-1])

    def _path_type(
        self, decl: ClassDecl, path: PathExpr, env: Dict[str, str]
    ) -> Optional[str]:
        if path.root == "this":
            current: Optional[str] = decl.name
        elif path.root in env:
            current = env[path.root]
        elif path.root in decl.fields:
            current = decl.fields[path.root]
        else:
            return None
        for field_name in path.fields:
            if current is None or current not in self.classes:
                return None
            current = self.classes[current].fields.get(field_name)
        return current

    def mutable_fields(self) -> Set[Tuple[str, str]]:
        """``(class, field)`` pairs assigned outside their class's ctor.

        Cached: the class table is fixed at construction, but the query
        sits on the certifiers' per-edge hot path (mutability decides
        which families a call invalidates), so recomputing the full
        spec walk each time dominated large interprocedural runs.
        """
        cached = getattr(self, "_mutable_fields_memo", None)
        if cached is None:
            cached = set()
            for owner, field_name, _stmt, in_class, in_ctor in (
                self.field_assignments()
            ):
                if not (in_ctor and in_class == owner):
                    cached.add((owner, field_name))
            self._mutable_fields_memo = cached
        return cached

    def is_alias_based(self) -> bool:
        """All preconditions are single alias conditions ``α == β``."""
        for decl in self.classes.values():
            methods = list(decl.methods.values())
            if decl.constructor is not None:
                methods.append(decl.constructor)
            for method in methods:
                for clause in method.requires_clauses():
                    if not isinstance(clause.cond, CmpCond):
                        return False
                    if not clause.cond.equal:
                        return False
        return True

    def type_graph(self) -> Dict[str, List[Tuple[str, str]]]:
        """Edges ``C --f--> D`` for every component-typed field (Section 6)."""
        graph: Dict[str, List[Tuple[str, str]]] = {
            name: [] for name in self.classes
        }
        for decl in self.classes.values():
            for field_name, field_type in decl.fields.items():
                if field_type in self.classes:
                    graph[decl.name].append((field_name, field_type))
        return graph

    def type_graph_acyclic(self) -> bool:
        graph = self.type_graph()
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(node: str) -> bool:
            if state.get(node) == 1:
                return True
            if state.get(node) == 0:
                return False
            state[node] = 0
            for _field, successor in graph[node]:
                if not visit(successor):
                    return False
            state[node] = 1
            return True

        return all(visit(node) for node in graph)

    def type_graph_path_count(self) -> Optional[int]:
        """``||TG||`` — the number of distinct paths in the type graph
        (Section 6).  None when the graph is cyclic (unbounded)."""
        if not self.type_graph_acyclic():
            return None
        graph = self.type_graph()
        memo: Dict[str, int] = {}

        def paths_from(node: str) -> int:
            if node not in memo:
                # the empty path plus every extension through a field edge
                memo[node] = 1 + sum(
                    paths_from(successor) for _f, successor in graph[node]
                )
            return memo[node]

        return sum(paths_from(node) for node in graph)

    def mutable_field_assignments_are_fresh(self) -> bool:
        """Every assignment to a mutable field outside a constructor
        allocates a fresh object."""
        mutable = self.mutable_fields()
        for owner, field_name, stmt, in_class, in_ctor in (
            self.field_assignments()
        ):
            if (owner, field_name) not in mutable:
                continue
            if in_ctor and in_class == owner:
                continue
            if not isinstance(stmt.rhs, NewExpr):
                return False
        return True

    def is_mutation_restricted(self) -> bool:
        """Reconstructed Section 6 class membership test (see module doc)."""
        return (
            self.is_alias_based()
            and self.type_graph_acyclic()
            and self.mutable_field_assignments_are_fresh()
        )


def _all_statements(body: Tuple[Stmt, ...]) -> List[Stmt]:
    out: List[Stmt] = []
    for stmt in body:
        out.append(stmt)
        if isinstance(stmt, If):
            out.extend(_all_statements(stmt.then_body))
            out.extend(_all_statements(stmt.else_body))
    return out
