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

The module also holds the one may-1 / may-0 edge :func:`transfer` and the
one linear :func:`replay` that confirms per-node masks are inductive: the
FDS solver, the interprocedural tabulation, the summary database and the
certificate checker all run these two.  So do the alarm read-outs and
the relational valuation transfer: the checker imports no solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple
from typing import Optional, Sequence, Set, Tuple, Union

from repro.certifier.report import Alarm


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

    def has_node(self, node: int) -> bool:
        return (
            node in self._out
            or node == self.entry
            or node == self.exit
            or any(edge.dst == node for edge in self.edges)
        )

    def nodes(self) -> List[int]:
        found = {self.entry, self.exit}
        for edge in self.edges:
            found.add(edge.src)
            found.add(edge.dst)
        return sorted(found)

    def edges_leaving(self, nodes: Iterable[int]) -> int:
        """How many edges leave ``nodes``: the transfers a successful
        :func:`replay` over masks annotating ``nodes`` runs."""
        return sum(len(self._out.get(node, ())) for node in nodes)

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


# -- the may-1 / may-0 transfer and its replay -----------------------------------


def transfer(
    edge: BoolEdge, one: int, zero: int, prune: bool
) -> Optional[Tuple[int, int]]:
    """The (may-1, may-0) masks after ``edge``, or ``None`` when, under
    ``prune``, a checked predicate is definitely 1: the component throws
    on every execution reaching the edge.  A passing check leaves its
    predicate 0; may-0 is over-approximated per source."""
    if prune:
        for check in edge.checks:
            if not zero >> check.var & 1:
                return None
            one &= ~(1 << check.var)
            zero |= 1 << check.var
    new_one, new_zero = one, zero
    for assign in edge.assigns:
        bit = 1 << assign.target
        if assign.const_true or any(
            one >> source & 1 for source in assign.sources
        ):
            new_one |= bit
        else:
            new_one &= ~bit
        if not assign.const_true and all(
            zero >> source & 1 for source in assign.sources
        ):
            new_zero |= bit
        else:
            new_zero &= ~bit
    return new_one, new_zero


class Violation(NamedTuple):
    """The first thing :func:`replay` found wrong with a set of masks,
    in the certificate checker's reject vocabulary."""

    kind: str
    detail: str
    edge: Optional[Tuple[int, int]] = None


_NO_MASKS = (0, 0)


def replay(
    program: BoolProgram,
    masks: Mapping[int, Tuple[int, int]],
    entry_one: int,
    entry_zero: int,
    prune: bool,
    calls: Optional[Mapping[Tuple[int, int], object]] = None,
    call_return: Optional[Callable[..., Optional[int]]] = None,
    alarm: Optional[Callable[[BoolEdge, int], None]] = None,
) -> Union[Violation, int]:
    """One linear pass confirming ``masks`` (node -> (may-1, may-0)) is a
    post-fixpoint of ``program`` from the seed ``entry_one`` / ``entry_zero``.

    Each edge leaving an annotated node is replayed once, in program
    order; unannotated nodes are unreachable once the entry is covered
    and the annotation is transfer-closed.  For an edge in ``calls``,
    ``call_return(edge, call, may_one)`` gives the may-1 mask after it
    (``None``: no return) and every bit may be 0 after it; other edges
    with checks tell ``alarm(edge, may_one)`` their source mask.

    Returns the exit's may-1 mask or the first :class:`Violation`:
    ``malformed`` for a node the program lacks or a mask outside
    ``0 .. 2**num_vars - 1``, ``entry`` for a seed bit the entry misses,
    then per edge ``coverage`` (no return mask) or ``not-inductive``.
    """
    all_vars = (1 << program.num_vars) - 1
    for node, (one, zero) in masks.items():
        if not program.has_node(node):
            return Violation(
                "malformed", f"annotation names unknown node {node}"
            )
        if not (0 <= one <= all_vars and 0 <= zero <= all_vars):
            return Violation(
                "malformed", f"mask bits beyond num_vars at node {node}"
            )
    entry = masks.get(program.entry, _NO_MASKS)
    if entry_one & ~entry[0]:
        return Violation(
            "entry", "entry annotation does not cover the initial valuation"
        )
    if entry_zero & ~entry[1]:
        return Violation("entry", "entry annotation drops initial may-0 bits")
    for edge in program.edges:
        source = masks.get(edge.src)
        if source is None:
            continue
        one = source[0]
        call = calls.get((edge.src, edge.dst)) if calls else None
        if call is not None:
            out = call_return(edge, call, one)
            if out is None:
                return Violation(
                    "coverage",
                    f"no callee summary for the call {edge.src}->{edge.dst}",
                    (edge.src, edge.dst),
                )
            zout = all_vars
        else:
            if alarm is not None and edge.checks:
                alarm(edge, one)
            transferred = transfer(edge, one, source[1], prune)
            if transferred is None:
                continue
            out, zout = transferred
        target = masks.get(edge.dst, _NO_MASKS)
        if out & ~target[0] or zout & ~target[1]:
            return Violation(
                "not-inductive",
                f"transfer along edge {edge.src}->{edge.dst} is not "
                "subsumed by the successor annotation",
                (edge.src, edge.dst),
            )
    return masks.get(program.exit, _NO_MASKS)[0]


# -- alarms and the relational transfer ------------------------------------------


def record_alarms(
    program: BoolProgram, context: str, alarms: Dict[Tuple[int, str], Alarm],
    prune: bool, edge: BoolEdge, mask: int,
) -> None:
    """Record an alarm in ``context`` for each check of ``edge`` whose
    predicate may be 1 in the source ``mask``.  Under pruning a passing
    check leaves its predicate 0, so a later check of it on the same
    edge is read from the cleared mask, as :func:`transfer` does."""
    for check in edge.checks:
        if mask >> check.var & 1:
            instance = str(program.instance(check.var))
            alarms[(check.site_id, instance)] = Alarm(
                site_id=check.site_id,
                line=check.line,
                op_key=check.op_key,
                instance=instance,
                context=context,
            )
        if prune:
            mask &= ~(1 << check.var)


def collect_alarms(
    program: BoolProgram, masks: Mapping[int, Tuple[int, int]],
    provenance: Optional[Dict] = None,
) -> List[Alarm]:
    """The alarms of per-node (may-1, may-0) masks: one per checked
    (site, variable) that may be 1 at a reached check, definite where
    it may not be 0; ``provenance`` adds each alarm's witness trace."""
    from repro.certifier.witness import format_trace, trace

    alarms: List[Alarm] = []
    seen: Set[Tuple[int, int]] = set()
    for edge in program.edges:
        if edge.src not in masks:
            continue  # unreachable
        one, zero = masks[edge.src]
        for check in edge.checks:
            if not one >> check.var & 1:
                continue
            key = (check.site_id, check.var)
            if key in seen:
                continue
            seen.add(key)
            chain = None
            if provenance is not None:
                steps = trace(program, provenance, edge.src, check.var)
                chain = format_trace(steps) or None
            alarms.append(
                Alarm(
                    site_id=check.site_id,
                    line=check.line,
                    op_key=check.op_key,
                    instance=str(program.instance(check.var)),
                    definite=not zero >> check.var & 1,
                    trace=chain,
                )
            )
    alarms.sort(key=lambda a: (a.site_id, a.instance))
    return alarms


def valuation_transfer(
    edge: BoolEdge, current: Iterable[int],
    alarm_hits: Dict[Tuple[int, int], List[bool]], prune: bool,
    apply_filters: bool = True,
) -> Set[int]:
    """The valuations after ``edge`` from the valuations ``current``.
    Each check marks in ``alarm_hits[(site, var)]`` whether some
    valuation fails it and whether some passes it; under ``prune`` a
    failing valuation stops at the edge."""
    outgoing: Set[int] = set()
    for valuation in current:
        value = valuation
        failed = False
        for check in edge.checks:
            record = alarm_hits.setdefault(
                (check.site_id, check.var), [False, False]
            )
            if value >> check.var & 1:
                record[0] = True  # some execution fails here
                failed = True
            else:
                record[1] = True  # some execution passes here
        if failed and prune:
            continue  # execution aborted by the thrown exception
        if apply_filters:
            violated = False
            for var, expected in edge.filters:
                if bool(value >> var & 1) != expected:
                    violated = True
                    break
            if violated:
                continue
        updated = value
        for assign in edge.assigns:
            bit = 1 << assign.target
            result = assign.const_true or any(
                value >> source & 1 for source in assign.sources
            )
            updated = updated | bit if result else updated & ~bit
        outgoing.add(updated)
    return outgoing


def valuation_alarms(
    program: BoolProgram, alarm_hits: Dict[Tuple[int, int], List[bool]]
) -> List[Alarm]:
    """The alarms of :func:`valuation_transfer`'s hits: one per
    (site, variable) some valuation fails, definite if none passes."""
    sites: Dict[Tuple[int, int], Check] = {}
    for edge in program.edges:
        for check in edge.checks:
            sites[(check.site_id, check.var)] = check
    alarms: List[Alarm] = []
    for (site_id, var), (fails, passes) in sorted(alarm_hits.items()):
        if not fails:
            continue
        check = sites[(site_id, var)]
        alarms.append(
            Alarm(
                site_id=site_id,
                line=check.line,
                op_key=check.op_key,
                instance=str(program.instance(var)),
                definite=not passes,
            )
        )
    return alarms
