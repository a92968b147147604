"""The boolean-program intermediate representation (Fig. 6).

A transformed client is a CFG whose edges carry:

* a list of **checks** — ``requires ¬p`` obligations evaluated on the
  state *before* the edge's updates (component preconditions are checked
  at method entry);
* a **parallel assignment block** — simultaneous updates of the special
  form ``p0 := p1 ∨ … ∨ pk [∨ 1]`` or the constants 0/1, all right-hand
  sides reading pre-edge values (Fig. 5's method abstractions update
  several predicates of one family at once, so parallelism matters).

Variables are instrumentation-predicate *instances*: a family applied to a
tuple of client variable names (``stale[i2]``, ``iterof[i1, v]``, …).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Instance:
    """One instrumentation-predicate instance over client variables."""

    family: str
    args: Tuple[str, ...]

    def __str__(self) -> str:
        if not self.args:
            return self.family
        return f"{self.family}[{', '.join(self.args)}]"


@dataclass(frozen=True)
class ParallelAssign:
    """``target := sources[0] ∨ … ∨ sources[k] [∨ const_true]``.

    ``sources`` are variable indices; an empty source list with
    ``const_true=False`` is the constant 0.
    """

    target: int
    sources: Tuple[int, ...]
    const_true: bool = False


@dataclass(frozen=True)
class Check:
    """``requires ¬var`` at a component call site."""

    site_id: int
    line: int
    op_key: str
    var: int


@dataclass(frozen=True)
class BoolEdge:
    src: int
    dst: int
    checks: Tuple[Check, ...] = ()
    assigns: Tuple[ParallelAssign, ...] = ()
    #: relational-only refinement: keep states where var == value
    filters: Tuple[Tuple[int, bool], ...] = ()
    #: source line of the originating client statement (0 = synthetic)
    line: int = 0


class BoolProgram:
    """A boolean program over instrumentation-predicate instances."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.entry: int = 0
        self.exit: int = 0
        self._instances: List[Instance] = []
        self._index: Dict[Instance, int] = {}
        self.edges: List[BoolEdge] = []
        self._out: Dict[int, List[BoolEdge]] = {}
        #: variable indices that are 1 on entry (e.g. reflexive `same`)
        self.initially_true: List[int] = []

    # -- variables -------------------------------------------------------------

    def variable(self, instance: Instance) -> int:
        if instance not in self._index:
            self._index[instance] = len(self._instances)
            self._instances.append(instance)
        return self._index[instance]

    def declare(
        self, instances: Sequence[Instance], index: Dict[Instance, int]
    ) -> None:
        """Register ``instances`` as variables ``0 .. n-1`` of a program
        that has none yet; ``index`` is their instance -> position map."""
        assert not self._instances, "declare() needs a fresh program"
        self._instances = list(instances)
        self._index = dict(index)

    def lookup(self, instance: Instance) -> Optional[int]:
        return self._index.get(instance)

    def instance(self, index: int) -> Instance:
        return self._instances[index]

    @property
    def num_vars(self) -> int:
        return len(self._instances)

    def instances(self) -> Sequence[Instance]:
        return tuple(self._instances)

    # -- edges ------------------------------------------------------------------

    def add_edge(self, edge: BoolEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.src, []).append(edge)

    def out_edges(self, node: int) -> List[BoolEdge]:
        return self._out.get(node, [])

    def nodes(self) -> List[int]:
        found = {self.entry, self.exit}
        for edge in self.edges:
            found.add(edge.src)
            found.add(edge.dst)
        return sorted(found)

    def initial_mask(self) -> int:
        mask = 0
        for index in self.initially_true:
            mask |= 1 << index
        return mask

    def describe(self) -> str:
        lines = [
            f"boolean program {self.name}: {self.num_vars} variables, "
            f"{len(self.edges)} edges"
        ]
        for index, instance in enumerate(self._instances):
            marker = " (init 1)" if index in self.initially_true else ""
            lines.append(f"  b{index} = {instance}{marker}")
        for edge in self.edges:
            parts = []
            for check in edge.checks:
                parts.append(
                    f"requires !{self.instance(check.var)} @site{check.site_id}"
                )
            for assign in edge.assigns:
                rhs = [str(self.instance(s)) for s in assign.sources]
                if assign.const_true:
                    rhs.append("1")
                parts.append(
                    f"{self.instance(assign.target)} := "
                    f"{' | '.join(rhs) if rhs else '0'}"
                )
            label = "; ".join(parts) if parts else "nop"
            lines.append(f"  {edge.src} --[{label}]--> {edge.dst}")
        return "\n".join(lines)
