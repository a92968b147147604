"""3-address control-flow graphs for Jlite methods.

Statements live on edges (TVP-style, Section 5.1): each edge carries one
normalized statement.  The normalization introduces temporaries so that

* every field access is a single-level :class:`SLoad` / :class:`SStore`,
* every call receiver and argument is a plain variable,
* static fields are ordinary (global) variables named ``Class.field`` —
  which is exactly the SCMP setting where component references live only
  in locals and statics.

Component interactions surface as :class:`SCallComp` edges carrying the
operation key and the operand → variable binding; downstream certifiers
replace these with derived method abstractions (Fig. 6), the generic
baselines inline the Easl bodies instead (Section 3), and the concrete
interpreter executes the specification directly (ground truth).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


# -- statements -----------------------------------------------------------------
#
# Statement records and edges compare and hash by their fields; they are
# slotted rather than frozen (a frozen dataclass pays for each field in
# __init__), and nothing assigns to them once built.


@dataclass(slots=True, unsafe_hash=True)
class SNop:
    line: int = 0

    def __str__(self) -> str:
        return "nop"


@dataclass(slots=True, unsafe_hash=True)
class SCopy:
    """``dst = src`` — both plain variables of the same reference type."""

    dst: str
    src: str
    type: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass(slots=True, unsafe_hash=True)
class SNull:
    dst: str
    type: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.dst} = null"


@dataclass(slots=True, unsafe_hash=True)
class SLoad:
    """``dst = base.field`` (instance field read)."""

    dst: str
    base: str
    field: str
    type: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.dst} = {self.base}.{self.field}"


@dataclass(slots=True, unsafe_hash=True)
class SStore:
    """``base.field = src`` (instance field write)."""

    base: str
    field: str
    src: str
    type: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.base}.{self.field} = {self.src}"


@dataclass(slots=True, unsafe_hash=True)
class SNewClient:
    """Allocation of a *client* class object (fields start null); the
    constructor call is a separate :class:`SCallClient` edge."""

    dst: str
    class_name: str
    line: int = 0

    def __str__(self) -> str:
        return f"{self.dst} = new {self.class_name}"


@dataclass(slots=True, unsafe_hash=True)
class SCallComp:
    """A component operation: constructor call or method call.

    ``bindings`` maps the operation's operand placeholder names (e.g.
    ``this``, ``ret``, parameter names, ``r``) to client variables;
    opaque-typed operands are omitted.  ``site_id`` uniquely identifies
    this call site for alarm reporting and ground-truth comparison.
    """

    op_key: str
    bindings: Tuple[Tuple[str, str], ...]  # (operand name, variable)
    site_id: int
    line: int = 0

    def binding(self, operand: str) -> Optional[str]:
        for name, var in self.bindings:
            if name == operand:
                return var
        return None

    @property
    def binding_map(self) -> Dict[str, str]:
        return dict(self.bindings)

    def __str__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.bindings)
        return f"[site {self.site_id}] {self.op_key}({args})"


@dataclass(slots=True, unsafe_hash=True)
class SCallClient:
    """A call to another client method (monomorphic)."""

    callee: str  # qualified "Class.method" or "Class.<init>"
    receiver: Optional[str]
    args: Tuple[str, ...]
    result: Optional[str]
    line: int = 0

    def __str__(self) -> str:
        prefix = f"{self.result} = " if self.result else ""
        recv = f"{self.receiver}." if self.receiver else ""
        return f"{prefix}{recv}{self.callee}({', '.join(self.args)})"


@dataclass(slots=True, unsafe_hash=True)
class SAssume:
    """A branch outcome over reference equality (``rhs`` may be "null")."""

    lhs: str
    rhs: str
    equal: bool
    line: int = 0

    def __str__(self) -> str:
        return f"assume {self.lhs} {'==' if self.equal else '!='} {self.rhs}"


@dataclass(slots=True, unsafe_hash=True)
class SReturn:
    var: Optional[str]
    line: int = 0

    def __str__(self) -> str:
        return f"return {self.var}" if self.var else "return"


Stm = object  # union of the above


# -- the graph --------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    src: int
    dst: int
    stm: Stm

    def __str__(self) -> str:
        return f"{self.src} --[{self.stm}]--> {self.dst}"


class CFG:
    """A per-method control-flow graph with statements on edges."""

    def __init__(self, method: str) -> None:
        self.method = method
        self._node_counter = itertools.count()
        self.entry = self.new_node()
        self.exit = self.new_node()
        self.edges: List[Edge] = []
        #: node -> out-edges, indexed on the first out_edges() call
        self._out: Optional[Dict[int, List[Edge]]] = None

    def new_node(self) -> int:
        return next(self._node_counter)

    def add_edge(self, src: int, dst: int, stm: Stm) -> Edge:
        edge = Edge(src, dst, stm)
        self.edges.append(edge)
        if self._out is not None:
            self._out.setdefault(src, []).append(edge)
        return edge

    def out_edges(self, node: int) -> List[Edge]:
        if self._out is None:
            self._out = {}
            for edge in self.edges:
                self._out.setdefault(edge.src, []).append(edge)
        return self._out.get(node, [])

    def nodes(self) -> List[int]:
        found = {self.entry, self.exit}
        for edge in self.edges:
            found.add(edge.src)
            found.add(edge.dst)
        return sorted(found)

    def comp_call_sites(self) -> List[SCallComp]:
        return [e.stm for e in self.edges if isinstance(e.stm, SCallComp)]

    def __str__(self) -> str:
        lines = [f"cfg {self.method} (entry={self.entry}, exit={self.exit})"]
        lines.extend(f"  {edge}" for edge in self.edges)
        return "\n".join(lines)
