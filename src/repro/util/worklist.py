"""The reverse-postorder worklist shared by every fixpoint engine.

A FIFO deque re-processes loop heads long before their bodies have
stabilized.  A *reverse postorder* (RPO) priority worklist pops nodes
in topological-ish order — predecessors before successors on the
acyclic core — so each pass over a loop propagates complete information
and the engines converge in fewer iterations (the per-engine
``iterations`` stats make this directly observable).

The worklist exposes one tiny API — ``push``, ``pop``, truthiness — and
deduplicates internally: pushing an already-queued node is a no-op,
which replaces hand-rolled ``queued`` sets at every call site.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, Iterable, List, Set

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


def make_worklist(
    entry: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> PriorityWorklist:
    """An RPO worklist over the graph reachable from ``entry``."""
    return PriorityWorklist(reverse_postorder(entry, successors))
