"""The one worklist driver every fixpoint engine runs.

The FDS and relational solvers, the interproc tabulation's per-context
pass, both TVLA modes and the generic heap analyses are one monotone
dataflow scheme over different abstract domains, so they share one
scheduling policy, which lives here:

* **priority**: a *reverse postorder* (RPO) over the engine's graph.  A
  FIFO deque re-processes loop heads long before their bodies have
  stabilized; popping predecessors before successors on the acyclic
  core lets each pass over a loop propagate complete information, and
  the engines converge in fewer iterations;
* **start set**: the entry when cold; when warm from a :class:`Seed`,
  the seed's clean frontier plus the entry when the edit dirtied it;
* **steps**: each pop ticks the resource governor once, then counts one
  iteration against the engine's own budget, whose breach raises the
  engine's own exception.

An engine supplies only ``visit(node)``, which transfers the node's
state along its out-edges, merges by the engine's own policy, and
returns the successors whose state grew; those are (re)queued.  Pushing
an already-queued node is a no-op.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple


def reverse_postorder(
    entry: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]
) -> Dict[Hashable, int]:
    """Map each node reachable from ``entry`` to its RPO index.

    Iterative DFS (client CFGs can be deep), deterministic: successors
    are visited in the order ``successors`` yields them.
    """
    postorder: List[Hashable] = []
    visited: Set[Hashable] = {entry}
    stack: List[tuple] = [(entry, iter(tuple(successors(entry))))]
    while stack:
        node, children = stack[-1]
        advanced = False
        for child in children:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(tuple(successors(child)))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            postorder.append(node)
    return {node: index for index, node in enumerate(reversed(postorder))}


class PriorityWorklist:
    """Pop the queued node with the smallest priority (RPO index).

    Nodes missing from the priority map (unreachable via the successor
    function used to build it) sort last, in insertion order.
    """

    def __init__(self, priority: Dict[Hashable, int]) -> None:
        self._priority = priority
        self._fallback = len(priority)
        self._heap: List[tuple] = []
        self._queued: Set[Hashable] = set()
        self._seq = 0

    def push(self, node: Hashable) -> None:
        if node in self._queued:
            return
        self._queued.add(node)
        self._seq += 1
        heapq.heappush(
            self._heap,
            (self._priority.get(node, self._fallback), self._seq, node),
        )

    def pop(self) -> Hashable:
        _, _, node = heapq.heappop(self._heap)
        self._queued.discard(node)
        return node

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class Seed:
    """A warm start from a parent fixpoint (incremental recertification).

    ``states`` is the parent's annotation on the clean region of the
    edited graph, in the engine's own state type and under this graph's
    node ids; ``frontier`` lists the clean nodes with a dirty successor,
    the only places new work can originate.  The clean region is
    predecessor-closed, so there the parent fixpoint *is* the new one;
    merges only climb, so a run from the seed closes on the cold
    fixpoint.
    """

    states: Dict[Hashable, object]
    frontier: Tuple[Hashable, ...] = ()


class Schedule:
    """The reverse-postorder schedule of one graph, and its driver.

    ``graph`` is any of the engines' graphs: it has an ``entry`` and
    ``out_edges(node)``, whose edges name their target ``dst``.  Built
    once per graph (the interproc tabulation keeps one per fact space and
    runs it for every context over that space).  ``iterations`` holds
    the pops of the latest :meth:`run`, also when it raised, so an
    engine's salvage can report them.
    """

    def __init__(self, graph) -> None:
        self.entry = graph.entry
        self._priority = reverse_postorder(
            graph.entry, lambda node: [e.dst for e in graph.out_edges(node)]
        )
        self.iterations = 0

    def start(
        self,
        seed: Optional[Seed],
        initial: object,
        copy: Optional[Callable[[object], object]] = None,
    ) -> Tuple[Dict[Hashable, object], List[Hashable]]:
        """The states a run begins from, and the nodes it pops first.

        Cold: the entry holding ``initial``.  Seeded: the seed's states
        (each through ``copy``, for engines that merge in place) and the
        frontier nodes that hold a non-empty state, plus the entry with
        ``initial`` when the edit dirtied it.
        """
        entry = self.entry
        if seed is None:
            return {entry: initial}, [entry]
        if copy is None:
            states = dict(seed.states)
        else:
            states = {node: copy(state) for node, state in seed.states.items()}
        start = [node for node in seed.frontier if states.get(node)]
        if entry not in states:
            states[entry] = initial
            start.append(entry)
        return states, start

    def run(
        self,
        start: Iterable[Hashable],
        visit: Callable[[Hashable], Iterable[Hashable]],
        *,
        governor=None,
        limit: Optional[int] = None,
        exceeded: Optional[Callable[[], BaseException]] = None,
    ) -> int:
        """Pop to closure from ``start``; returns the iteration count.

        Each pop ticks ``governor`` (when given), then counts one
        iteration; past ``limit`` iterations the run raises
        ``exceeded()``.
        """
        worklist = PriorityWorklist(self._priority)
        push = worklist.push
        pop = worklist.pop
        for node in start:
            push(node)
        iterations = 0
        try:
            while worklist:
                if governor is not None:
                    governor.tick()
                iterations += 1
                if limit is not None and iterations > limit:
                    raise exceeded()
                for successor in visit(pop()):
                    push(successor)
        finally:
            self.iterations = iterations
        return iterations
