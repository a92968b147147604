"""3-valued logical structures over bit planes (the state kernel).

A 3-valued structure is ``(U, ι)`` where each predicate maps tuples over
``U`` to a :class:`~repro.logic.kleene.Kleene` value (Section 5.5).
Individuals carry a *summary* bit: a summary individual may represent
several concrete objects, so equality on it evaluates to ``1/2``.
Canonical abstraction merges individuals with identical unary
abstraction-predicate vectors, joining predicate values in the
information order and marking merged individuals as summaries.

:class:`PackedStructure` stores each predicate's valuation as **two
bitmask integers** — a *definite-true plane* and a *maybe (1/2) plane*:

* unary ``p``: bit ``n`` of ``u_t[p]`` set iff ``p(n) = 1``; bit ``n``
  of ``u_h[p]`` set iff ``p(n) = 1/2``; neither bit means ``0``.
  The planes are always disjoint.
* binary ``q``: bit ``(n1 << shift) | n2`` in ``b_t[q]`` / ``b_h[q]``
  with a per-structure power-of-two node stride ``width = 1 << shift``
  that doubles (re-spreading the planes) when the universe outgrows it.

Python ints are immutable, so a snapshot is **copy-on-write**: ``copy()``
shares every container and the first mutation on either side takes
ownership of private dicts — focus and update, which copy constantly,
become O(1) per snapshot.  Canonical abstraction folds whole predicate
planes with mask algebra instead of per-entry loops, and
``canonical_key`` is a tuple of remapped plane integers.

Formulas are compiled here too, and compiled code is the only way a
formula is evaluated: :func:`compile_packed_formula` produces the
:class:`~repro.logic.compile.CompiledFormula` slot protocol with atoms
that test plane bits and quantifiers over recognizable bodies (unary
literals and conjunctions of them, binary rows) collapsed into
whole-universe mask tests; :func:`compile_update_plane` evaluates a
whole update as plane algebra.  Both compilers are total over the
formulas a TVP can express and raise
:class:`~repro.logic.compile.CompileError` for the rest (a predicate of
arity above two, equality over non-variable terms).  Both look up one
bounded LRU keyed by formula structure, so equal formulas share an
evaluator and no formula outlives the bound; the TVLA engine resolves
each action's evaluators once, at construction, and holds them, so a
bad formula fails before any fixpoint runs.  The certificate codec
(:mod:`repro.cert.model`) serializes straight from the planes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.logic.compile import (
    CompiledFormula,
    CompileError,
    _free_vars_ordered,
)
from repro.logic.formula import (
    And,
    EqAtom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    PredAtom,
    Truth,
)
from repro.logic.kleene import FALSE3, HALF, Kleene, TRUE3
from repro.logic.terms import Base
from repro.runtime.cache import LRUCache

_DEFAULT_SHIFT = 4  # binary stride 16: suite/fuzz universes stay under it


class PackedKey:
    """Canonical-key wrapper with a precomputed hash.

    Key tuples carry multi-word plane integers, and tuples re-hash their
    elements on every lookup; with warm transfer memos the engine does
    hundreds of thousands of memo/state-set probes per run, so the
    re-hash dominates replay. Computing the hash once at construction
    makes each probe O(1).
    """

    __slots__ = ("k", "_hash")

    def __init__(self, k: tuple) -> None:
        self.k = k
        self._hash = hash(k)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is PackedKey:
            return self._hash == other._hash and self.k == other.k
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedKey({self.k!r})"

    def __reduce__(self):
        return (PackedKey, (self.k,))


class PackedStructure:
    """A mutable 3-valued structure over bit-plane integers (see module
    docs); absent tuples are 0."""

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.summary: Dict[int, bool] = {}
        self.nullary: Dict[str, Kleene] = {}
        #: unary planes: pred -> int (bit n = node n)
        self.u_t: Dict[str, int] = {}
        self.u_h: Dict[str, int] = {}
        #: binary planes: pred -> int (bit (n1 << _shift) | n2)
        self.b_t: Dict[str, int] = {}
        self.b_h: Dict[str, int] = {}
        self._shift = _DEFAULT_SHIFT
        self._width = 1 << _DEFAULT_SHIFT
        self.universe_mask = 0
        self._next = 0
        #: memoized canonical_key per abstraction-pred tuple; cleared by
        #: every mutation through :meth:`set` / :meth:`new_node`
        self._ckey_cache: Dict[Tuple[str, ...], tuple] = {}
        #: abstraction-pred tuple this structure is known to be
        #: vector-ordered for (nodes 0..k-1 sorted by abstraction
        #: vector), or None; set by canonicalize, cleared on mutation
        self._vec_ordered: Optional[Tuple[str, ...]] = None
        #: containers shared with a copy() sibling until first mutation
        self._cow = False

    def dirty(self) -> None:
        """Invalidate memoized canonical keys after a mutation."""
        if self._ckey_cache:
            self._ckey_cache = {}
        self._vec_ordered = None

    # -- copy-on-write ---------------------------------------------------------

    def copy(self) -> "PackedStructure":
        clone = PackedStructure.__new__(PackedStructure)
        clone.nodes = self.nodes
        clone.summary = self.summary
        clone.nullary = self.nullary
        clone.u_t = self.u_t
        clone.u_h = self.u_h
        clone.b_t = self.b_t
        clone.b_h = self.b_h
        clone._shift = self._shift
        clone._width = self._width
        clone.universe_mask = self.universe_mask
        clone._next = self._next
        clone._ckey_cache = {}
        clone._vec_ordered = self._vec_ordered
        clone._cow = True
        self._cow = True
        return clone

    def _own(self) -> None:
        """Take private ownership of every shared container."""
        self.nodes = list(self.nodes)
        self.summary = dict(self.summary)
        self.nullary = dict(self.nullary)
        self.u_t = dict(self.u_t)
        self.u_h = dict(self.u_h)
        self.b_t = dict(self.b_t)
        self.b_h = dict(self.b_h)
        self._cow = False

    # -- universe --------------------------------------------------------------

    def new_node(self, summary: bool = False) -> int:
        if self._cow:
            self._own()
        node = self._next
        self._next += 1
        if node >= self._width:
            self._grow(node)
        self.nodes.append(node)
        self.summary[node] = summary
        self.universe_mask |= 1 << node
        self.dirty()
        return node

    def _grow(self, node: int) -> None:
        """Double the binary stride until ``node`` fits, re-spreading planes."""
        old_shift = self._shift
        new_shift = old_shift
        while node >= (1 << new_shift):
            new_shift += 1
        old_width = 1 << old_shift
        row_mask = old_width - 1
        for planes in (self.b_t, self.b_h):
            for pred, plane in planes.items():
                spread = 0
                row = 0
                while plane:
                    chunk = plane & row_mask
                    if chunk:
                        spread |= chunk << (row << new_shift)
                    plane >>= old_shift
                    row += 1
                planes[pred] = spread
        self._shift = new_shift
        self._width = 1 << new_shift

    # -- values ----------------------------------------------------------------

    def get(self, pred: str, args: Tuple[int, ...]) -> Kleene:
        n = len(args)
        if n == 0:
            return self.nullary.get(pred, FALSE3)
        if n == 1:
            bit = 1 << args[0]
            if self.u_t.get(pred, 0) & bit:
                return TRUE3
            if self.u_h.get(pred, 0) & bit:
                return HALF
            return FALSE3
        if n != 2:
            raise ValueError(f"{pred}: arity {n} (the planes hold at most 2)")
        bit = 1 << ((args[0] << self._shift) | args[1])
        if self.b_t.get(pred, 0) & bit:
            return TRUE3
        if self.b_h.get(pred, 0) & bit:
            return HALF
        return FALSE3

    def set(self, pred: str, args: Tuple[int, ...], value: Kleene) -> None:
        n = len(args)
        if n > 2:
            raise ValueError(f"{pred}: arity {n} (the planes hold at most 2)")
        if self._cow:
            self._own()
        self.dirty()
        if n == 0:
            # absent means 0 (get() defaults): keeping the dict sparse
            # makes the canonical key's nullary walk proportional to the
            # non-false entries instead of every instance predicate
            if value is FALSE3:
                self.nullary.pop(pred, None)
            else:
                self.nullary[pred] = value
            return
        if n == 1:
            bit = 1 << args[0]
            planes_t, planes_h = self.u_t, self.u_h
        else:
            bit = 1 << ((args[0] << self._shift) | args[1])
            planes_t, planes_h = self.b_t, self.b_h
        t = planes_t.get(pred, 0)
        h = planes_h.get(pred, 0)
        if value is TRUE3:
            planes_t[pred] = t | bit
            if h & bit:
                planes_h[pred] = h & ~bit
        elif value is HALF:
            planes_h[pred] = h | bit
            if t & bit:
                planes_t[pred] = t & ~bit
        else:
            if t & bit:
                planes_t[pred] = t & ~bit
            if h & bit:
                planes_h[pred] = h & ~bit

    def set_plane(self, pred: str, arity: int, t: int, h: int) -> None:
        """Replace a predicate's entire valuation with precomputed planes.

        The bulk-transfer primitive behind plane-wide update evaluation
        (:func:`compile_update_plane`): one write covers what the
        per-tuple path expresses as ``len(nodes) ** arity`` ``set``
        calls.  ``t`` and ``h`` must be disjoint and only carry bits at
        valid node (pair) positions.
        """
        if self._cow:
            self._own()
        self.dirty()
        if arity == 1:
            planes_t, planes_h = self.u_t, self.u_h
        else:
            planes_t, planes_h = self.b_t, self.b_h
        if t:
            planes_t[pred] = t
        else:
            planes_t.pop(pred, None)
        if h:
            planes_h[pred] = h
        else:
            planes_h.pop(pred, None)

    # -- evaluation ------------------------------------------------------------

    def eval(self, formula: Formula, env: Optional[Dict[str, int]] = None) -> Kleene:
        """Evaluate through the compiled path.  Each call looks the
        evaluator up by formula structure; hot paths hold theirs."""
        return compile_packed_formula(formula)(self, env)

    # -- canonical abstraction ---------------------------------------------------

    def _node_blocks(self, abstraction_preds: List[str]) -> List[int]:
        """Ordered partition of the universe into equal-vector blocks.

        Refines ``[universe]`` pred-by-pred with mask splits, emitting
        the FALSE / TRUE / HALF sub-blocks in code order (0 < 1 < 2), so
        the final block order equals sorting nodes by their abstraction
        vector — without ever materializing a per-node tuple.  Stops as
        soon as every block is a singleton: the order of fully-refined
        blocks can't change under further splits.
        """
        universe = self.universe_mask
        if not universe:
            return []
        blocks = [universe]
        if not (universe & (universe - 1)):
            return blocks  # a single node: nothing to refine
        target = len(self.nodes)
        u_t = self.u_t
        u_h = self.u_h
        for pred in abstraction_preds:
            t = u_t.get(pred, 0)
            h = u_h.get(pred, 0)
            if not (t | h):
                continue  # every node reads 0: no split, no reorder
            out: List[int] = []
            for block in blocks:
                if block & (block - 1):
                    b0 = block & ~(t | h)
                    b1 = block & t
                    b2 = block & h
                    if b0:
                        out.append(b0)
                    if b1:
                        out.append(b1)
                    if b2:
                        out.append(b2)
                else:
                    out.append(block)
            blocks = out
            if len(blocks) == target:
                break
        return blocks

    def _vector_table(
        self, abstraction_preds: List[str]
    ) -> Dict[int, Tuple[int, ...]]:
        """Every node's abstraction vector, computed block-wise.

        Same refinement as :meth:`_node_blocks` but carrying each
        block's code prefix (and no early exit), so cross-structure
        comparisons — the join's vector matching — get full tuples at
        O(preds x blocks) instead of O(preds x nodes).
        """
        universe = self.universe_mask
        if not universe:
            return {}
        u_t = self.u_t
        u_h = self.u_h
        items: List[Tuple[int, List[int]]] = [(universe, [])]
        for pred in abstraction_preds:
            t = u_t.get(pred, 0)
            h = u_h.get(pred, 0)
            out: List[Tuple[int, List[int]]] = []
            for mask, codes in items:
                b0 = mask & ~(t | h)
                b1 = mask & t
                b2 = mask & h
                if b0:
                    out.append((b0, codes + [0]))
                if b1:
                    out.append((b1, codes + [1]))
                if b2:
                    out.append((b2, codes + [2]))
            items = out
        table: Dict[int, Tuple[int, ...]] = {}
        for mask, codes in items:
            vector = tuple(codes)
            while mask:
                low = mask & -mask
                table[low.bit_length() - 1] = vector
                mask ^= low
        return table

    def _summary_mask(self) -> int:
        mask = 0
        for node, is_summary in self.summary.items():
            if is_summary:
                mask |= 1 << node
        return mask

    def _renumbered(self, order: List[int]) -> "PackedStructure":
        """Rebuild with node ``i`` = old ``order[i]`` (minimal stride).

        Remapping runs through byte-chunk translation tables shared by
        every plane: ~60 preds reuse one 256-entry table per old byte
        of universe, so the per-plane cost is a handful of list indexes
        instead of a per-set-bit Python loop.
        """
        result = PackedStructure()
        summary = self.summary
        for old in order:
            result.new_node(summary[old])
        result.nullary = dict(self.nullary)
        index: Dict[int, int] = {old: i for i, old in enumerate(order)}
        tables: List[List[int]] = []
        base = 0
        max_old = order and max(order) or 0
        while base <= max_old:
            tbl = [0] * 256
            for v in range(1, 256):
                low = v & -v
                tbl[v] = tbl[v ^ low] | (
                    1 << index[base + low.bit_length() - 1]
                    if base + low.bit_length() - 1 in index
                    else 0
                )
            tables.append(tbl)
            base += 8

        def remap(plane: int) -> int:
            out = 0
            c = 0
            while plane:
                byte = plane & 255
                if byte:
                    out |= tables[c][byte]
                plane >>= 8
                c += 1
            return out

        for src, dst in ((self.u_t, result.u_t), (self.u_h, result.u_h)):
            for pred, plane in src.items():
                if plane:
                    dst[pred] = remap(plane)
        if self.b_t or self.b_h:
            old_shift = self._shift
            new_shift = result._shift
            row_bits = (1 << self._width) - 1
            rows = self.nodes
            for src, dst in ((self.b_t, result.b_t), (self.b_h, result.b_h)):
                for pred, plane in src.items():
                    if not plane:
                        continue
                    out = 0
                    for r in rows:
                        row = (plane >> (r << old_shift)) & row_bits
                        if row:
                            out |= remap(row) << (index[r] << new_shift)
                    if out:
                        dst[pred] = out
        return result

    def canonicalize(
        self, abstraction_preds: List[str]
    ) -> "PackedStructure":
        """Merge individuals with identical abstraction vectors.

        Grouping is partition refinement over the unary planes
        (:meth:`_node_blocks`); folding works plane-at-a-time: a merged
        block's value is 1 iff the block mask is contained in the true
        plane, 0 iff it misses both planes, 1/2 otherwise — an absent
        (implicit-0) member makes the containment test fail.

        The result is always *vector-ordered* — node ids 0..k-1 follow
        the abstraction-vector sort — so :meth:`_canonical_key` takes
        its identity fast path on every engine-produced structure.
        Merged results come out ordered by construction (blocks are
        emitted in refinement order); an unmerged structure whose
        historical numbering drifted from vector order is renumbered
        once here instead of being re-permuted on every key build.
        """
        member_mask = self._node_blocks(abstraction_preds)
        if len(member_mask) == len(self.nodes):
            # every vector distinct: already canonical up to numbering
            if self._vec_ordered is not None and self._vec_ordered == tuple(
                abstraction_preds
            ):
                return self
            identity = True
            for i, mask in enumerate(member_mask):
                if mask != (1 << i):
                    identity = False
                    break
            if identity:
                self._vec_ordered = tuple(abstraction_preds)
                return self
            renamed = self._renumbered(
                [mask.bit_length() - 1 for mask in member_mask]
            )
            renamed._vec_ordered = tuple(abstraction_preds)
            return renamed
        result = PackedStructure()
        summary_mask = self._summary_mask()
        for mask in member_mask:
            merged_summary = bool(mask & (mask - 1)) or bool(
                mask & summary_mask
            )
            result.new_node(merged_summary)
        result.nullary = dict(self.nullary)
        k = len(member_mask)
        for pred in self.u_t.keys() | self.u_h.keys():
            t = self.u_t.get(pred, 0)
            h = self.u_h.get(pred, 0)
            if not (t | h):
                continue
            new_t = 0
            new_h = 0
            both = t | h
            for new in range(k):
                mask = member_mask[new]
                if t & mask == mask:
                    new_t |= 1 << new
                elif both & mask:
                    new_h |= 1 << new
            if new_t:
                result.u_t[pred] = new_t
            if new_h:
                result.u_h[pred] = new_h
        if self.b_t or self.b_h:
            # pair block masks in *this* structure's stride
            shift = self._shift
            row_offsets: List[List[int]] = []
            for new in range(k):
                offsets = []
                mask = member_mask[new]
                while mask:
                    low = mask & -mask
                    offsets.append((low.bit_length() - 1) << shift)
                    mask ^= low
                row_offsets.append(offsets)
            new_shift = result._shift
            for pred in self.b_t.keys() | self.b_h.keys():
                t = self.b_t.get(pred, 0)
                h = self.b_h.get(pred, 0)
                if not (t | h):
                    continue
                both = t | h
                new_t = 0
                new_h = 0
                for g1 in range(k):
                    offsets = row_offsets[g1]
                    for g2 in range(k):
                        cols = member_mask[g2]
                        pm = 0
                        for offset in offsets:
                            pm |= cols << offset
                        if not (both & pm):
                            continue
                        pos = 1 << ((g1 << new_shift) | g2)
                        if t & pm == pm:
                            new_t |= pos
                        else:
                            new_h |= pos
                if new_t:
                    result.b_t[pred] = new_t
                if new_h:
                    result.b_h[pred] = new_h
        # blocks come out of the refinement in vector order and every
        # block folds to one node, so the result is vector-ordered
        result._vec_ordered = tuple(abstraction_preds)
        return result

    # -- canonical naming / comparison -------------------------------------------

    def canonical_key(self, abstraction_preds: List[str]) -> PackedKey:
        """A hashable key identifying the structure up to renaming of
        individuals with distinct abstraction vectors.  Structures must be
        canonicalized first (one individual per vector).

        Memoized per abstraction-pred tuple; mutations through
        :meth:`set` / :meth:`new_node` invalidate the cache."""
        cache_key = tuple(abstraction_preds)
        cached = self._ckey_cache.get(cache_key)
        if cached is not None:
            return cached
        key = self._canonical_key(abstraction_preds)
        self._ckey_cache[cache_key] = key
        return key

    def canonical_order(self, abstraction_preds: List[str]) -> List[int]:
        """The nodes in canonical order: block order of
        :meth:`_node_blocks` (= abstraction-vector order), and within a
        block non-summary before summary nodes, ties by position in
        ``nodes`` (ascending ids) — a stable sort on (vector, summary
        bit).  The canonical key and the certificate codec both number
        nodes in this order."""
        order: List[int] = []
        summary = self.summary
        for mask in self._node_blocks(abstraction_preds):
            if mask & (mask - 1):
                members: List[int] = []
                while mask:
                    low = mask & -mask
                    members.append(low.bit_length() - 1)
                    mask ^= low
                order.extend(n for n in members if not summary[n])
                order.extend(n for n in members if summary[n])
            else:
                order.append(mask.bit_length() - 1)
        return order

    def _canonical_key(self, abstraction_preds: List[str]) -> PackedKey:
        """Integer-plane canonical key (cheap to build and to hash)."""
        # canonicalize() renumbers into vector order and marks the
        # structure: then, as when the canonical order is the identity,
        # the plane dicts ARE the key — no remap, just a C-level sort of
        # each plane dict's items
        order = None
        if self._vec_ordered != tuple(abstraction_preds):
            order = self.canonical_order(abstraction_preds)
            if all(i == node for i, node in enumerate(order)):
                order = None
        nullary_part = tuple(
            sorted(
                (pred, value._value_)
                for pred, value in self.nullary.items()
                if value is not FALSE3
            )
        )
        if order is None:
            return PackedKey(
                (
                    nullary_part,
                    tuple(sorted([i for i in self.u_t.items() if i[1]])),
                    tuple(sorted([i for i in self.u_h.items() if i[1]])),
                    tuple(sorted([i for i in self.b_t.items() if i[1]])),
                    tuple(sorted([i for i in self.b_h.items() if i[1]])),
                    self._summary_mask(),
                    len(self.nodes),
                )
            )

        # renamed case: re-encode planes in the *native* stride (node
        # strides are a deterministic function of the universe size, so
        # equal-content structures agree on the encoding either way)
        index = {node: i for i, node in enumerate(order)}
        shift = self._shift
        width_mask = self._width - 1

        def remap_unary(plane: int) -> int:
            out = 0
            while plane:
                low = plane & -plane
                out |= 1 << index[low.bit_length() - 1]
                plane ^= low
            return out

        def remap_binary(plane: int) -> int:
            out = 0
            while plane:
                low = plane & -plane
                pos = low.bit_length() - 1
                out |= 1 << (
                    (index[pos >> shift] << shift) | index[pos & width_mask]
                )
                plane ^= low
            return out

        summary_bits = 0
        for node, is_summary in self.summary.items():
            if is_summary:
                summary_bits |= 1 << index[node]
        return PackedKey(
            (
                nullary_part,
                tuple(
                    sorted(
                        [(p, remap_unary(v)) for p, v in self.u_t.items() if v]
                    )
                ),
                tuple(
                    sorted(
                        [(p, remap_unary(v)) for p, v in self.u_h.items() if v]
                    )
                ),
                tuple(
                    sorted(
                        [(p, remap_binary(v)) for p, v in self.b_t.items() if v]
                    )
                ),
                tuple(
                    sorted(
                        [(p, remap_binary(v)) for p, v in self.b_h.items() if v]
                    )
                ),
                summary_bits,
                len(order),
            )
        )

    # -- node bifurcation (focus) --------------------------------------------------

    def duplicate_node(self, node: int) -> int:
        """Bifurcate a summary node: the clone inherits every predicate
        value (including pairs with the original and itself)."""
        clone = self.new_node(summary=True)  # owns + grows width if needed
        node_bit = 1 << node
        clone_bit = 1 << clone
        for planes in (self.u_t, self.u_h):
            for pred, plane in planes.items():
                if plane & node_bit:
                    planes[pred] = plane | clone_bit
        shift = self._shift
        width = self._width
        full_row = (1 << width) - 1
        node_row = node << shift
        clone_row = clone << shift
        for planes in (self.b_t, self.b_h):
            for pred, plane in planes.items():
                if not plane:
                    continue
                # clone's row := node's row (covers (clone, n2) incl. n2=node)
                row = (plane >> node_row) & full_row
                if row:
                    plane |= row << clone_row
                # clone's column := node's column (covers (n1, clone) incl.
                # n1=node and, via the row bit just written, (clone, clone))
                for n1 in self.nodes:
                    if plane & (1 << ((n1 << shift) | node)):
                        plane |= 1 << ((n1 << shift) | clone)
                planes[pred] = plane
        return clone

    # -- join (independent-attribute mode) -----------------------------------------

    @staticmethod
    def join(
        a: "PackedStructure",
        b: "PackedStructure",
        abstraction_preds: List[str],
    ) -> "PackedStructure":
        """Information-order join of two canonicalized structures: nodes
        with equal abstraction vectors merge; unmatched nodes are kept.

        The result over-approximates both inputs for the may-queries the
        certifier asks (existentials and nullary reads); this is the
        single-structure "independent attribute" mode of Section 5.5."""
        result = PackedStructure()
        mapping_a: Dict[int, int] = {}
        mapping_b: Dict[int, int] = {}
        vectors_a = a._vector_table(abstraction_preds)
        vectors_b = b._vector_table(abstraction_preds)
        by_vector_b: Dict[Tuple[int, ...], int] = {}
        for n, vector in vectors_b.items():
            by_vector_b.setdefault(vector, n)
        matched_b = set()
        for n, vector in sorted(
            vectors_a.items(), key=lambda kv: kv[1]
        ):
            partner = by_vector_b.get(vector)
            if partner is not None and partner not in matched_b:
                matched_b.add(partner)
                new = result.new_node(a.summary[n] or b.summary[partner])
                mapping_a[n] = new
                mapping_b[partner] = new
            else:
                new = result.new_node(a.summary[n])
                mapping_a[n] = new
        for n in b.nodes:
            if n not in mapping_b:
                mapping_b[n] = result.new_node(b.summary[n])
        inverse_a = {new: old for old, new in mapping_a.items()}
        inverse_b = {new: old for old, new in mapping_b.items()}
        for pred in a.nullary.keys() | b.nullary.keys():
            value = a.nullary.get(pred, FALSE3).join(
                b.nullary.get(pred, FALSE3)
            )
            if value is not FALSE3:
                result.nullary[pred] = value
        for pred in a.u_t.keys() | a.u_h.keys() | b.u_t.keys() | b.u_h.keys():
            for node in result.nodes:
                values = []
                if node in inverse_a:
                    values.append(a.get(pred, (inverse_a[node],)))
                if node in inverse_b:
                    values.append(b.get(pred, (inverse_b[node],)))
                value = values[0]
                for other in values[1:]:
                    value = value.join(other)
                if value is not FALSE3:
                    result.set(pred, (node,), value)
        for pred in a.b_t.keys() | a.b_h.keys() | b.b_t.keys() | b.b_h.keys():
            for n1 in result.nodes:
                for n2 in result.nodes:
                    values = []
                    if n1 in inverse_a and n2 in inverse_a:
                        values.append(
                            a.get(pred, (inverse_a[n1], inverse_a[n2]))
                        )
                    if n1 in inverse_b and n2 in inverse_b:
                        values.append(
                            b.get(pred, (inverse_b[n1], inverse_b[n2]))
                        )
                    if values:
                        value = values[0]
                        for other in values[1:]:
                            value = value.join(other)
                        if value is not FALSE3:
                            result.set(pred, (n1, n2), value)
        return result


# -- packed compiled formulas ------------------------------------------------------

#: a packed atom recognized by the quantifier mask fast path:
#: ``(structure, env) -> (true_mask, may_mask)`` over the binder's bit
#: positions (may_mask includes true_mask)


def _mask_literal(body: Formula, binder: str, slot_of: Dict[str, int]):
    """Compile a quantifier body literal to a whole-universe mask reader.

    Returns ``None`` when the body isn't expressible as plane algebra
    (the generic per-node loop handles it).  Supported shapes, possibly
    under one negation: a unary atom on the binder, or a binary atom
    with the binder in the *second* position and an outer variable first
    (a row extract)."""
    negated = False
    if isinstance(body, Not):
        negated = True
        body = body.body
    if not isinstance(body, PredAtom):
        return None
    if len(body.args) == 1 and body.args[0] == binder:
        name = body.name

        def read_unary(S, env, name=name):
            t = S.u_t.get(name, 0)
            return t, t | S.u_h.get(name, 0)

        reader = read_unary
    elif (
        len(body.args) == 2
        and body.args[1] == binder
        and body.args[0] != binder
        and body.args[0] in slot_of
    ):
        name = body.name
        row_slot = slot_of[body.args[0]]

        def read_row(S, env, name=name, row_slot=row_slot):
            off = env[row_slot] << S._shift
            wm = (1 << S._width) - 1
            t = (S.b_t.get(name, 0) >> off) & wm
            return t, t | ((S.b_h.get(name, 0) >> off) & wm)

        reader = read_row
    else:
        return None
    if not negated:
        return reader

    def read_negated(S, env, reader=reader):
        t, m = reader(S, env)
        u = S.universe_mask
        return u & ~m, u & ~t

    return read_negated


def _compile_quantifier_masks(
    formula: Formula, slot_of: Dict[str, int]
):
    """Mask-algebra fast path for ``Exists``/``Forall`` bodies that are
    (conjunctions of) plane-expressible literals; ``None`` otherwise."""
    binder = formula.var
    body = formula.body
    literals = body.args if isinstance(body, And) else (body,)
    readers = []
    for literal in literals:
        reader = _mask_literal(literal, binder, slot_of)
        if reader is None:
            return None
        readers.append(reader)
    readers = tuple(readers)
    if isinstance(formula, Exists):

        def eval_exists_masks(S, env, readers=readers):
            true_mask = may_mask = S.universe_mask
            for reader in readers:
                t, m = reader(S, env)
                true_mask &= t
                may_mask &= m
                if not may_mask:
                    return FALSE3
            if true_mask:
                return TRUE3
            return HALF if may_mask else FALSE3

        return eval_exists_masks

    def eval_forall_masks(S, env, readers=readers):
        u = S.universe_mask
        true_mask = may_mask = u
        for reader in readers:
            t, m = reader(S, env)
            true_mask &= t
            may_mask &= m
        if true_mask == u:
            return TRUE3
        if may_mask != u:
            return FALSE3
        return HALF

    return eval_forall_masks


def _compile_bound(binder: str, slot_of, high_water, compile_body):
    """Give a quantifier's ``binder`` a fresh slot while ``compile_body``
    compiles its body; returns ``(slot, body)``."""
    saved = slot_of.get(binder)
    slot = max(len(slot_of), high_water[0])
    slot_of[binder] = slot
    high_water[0] = max(high_water[0], slot + 1)
    body = compile_body()
    if saved is None:
        del slot_of[binder]
    else:
        slot_of[binder] = saved
    return slot, body


def _compile_packed_node(
    formula: Formula, slot_of: Dict[str, int], high_water: List[int]
):
    if isinstance(formula, Truth):
        constant = TRUE3 if formula.value else FALSE3

        def eval_truth(S, env, constant=constant):
            return constant

        return eval_truth

    if isinstance(formula, PredAtom):
        name = formula.name
        try:
            slots = tuple(slot_of[a] for a in formula.args)
        except KeyError as missing:
            raise CompileError(
                f"unbound variable {missing} in {formula}"
            ) from None
        if not slots:

            def eval_nullary(S, env, name=name):
                return S.nullary.get(name, FALSE3)

            return eval_nullary
        if len(slots) == 1:
            slot = slots[0]

            def eval_unary(S, env, name=name, slot=slot):
                bit = 1 << env[slot]
                if S.u_t.get(name, 0) & bit:
                    return TRUE3
                if S.u_h.get(name, 0) & bit:
                    return HALF
                return FALSE3

            return eval_unary
        if len(slots) == 2:
            i, j = slots

            def eval_binary(S, env, name=name, i=i, j=j):
                bit = 1 << ((env[i] << S._shift) | env[j])
                if S.b_t.get(name, 0) & bit:
                    return TRUE3
                if S.b_h.get(name, 0) & bit:
                    return HALF
                return FALSE3

            return eval_binary
        raise CompileError(f"unsupported predicate arity in {formula}")

    if isinstance(formula, EqAtom):
        if not isinstance(formula.lhs, Base) or not isinstance(
            formula.rhs, Base
        ):
            raise CompileError(
                f"3-valued equality supports logical variables only; "
                f"got {formula}"
            )
        try:
            i = slot_of[formula.lhs.name]
            j = slot_of[formula.rhs.name]
        except KeyError as missing:
            raise CompileError(
                f"unbound variable {missing} in {formula}"
            ) from None

        def eval_eq(S, env, i=i, j=j):
            lhs = env[i]
            if lhs != env[j]:
                return FALSE3
            return HALF if S.summary.get(lhs, False) else TRUE3

        return eval_eq

    if isinstance(formula, Not):
        body = _compile_packed_node(formula.body, slot_of, high_water)

        def eval_not(S, env, body=body):
            return body(S, env).logical_not()

        return eval_not

    if isinstance(formula, And):
        parts = tuple(
            _compile_packed_node(a, slot_of, high_water)
            for a in formula.args
        )

        def eval_and(S, env, parts=parts):
            result = TRUE3
            for part in parts:
                value = part(S, env)
                if value is FALSE3:
                    return FALSE3
                if value is HALF:
                    result = HALF
            return result

        return eval_and

    if isinstance(formula, Or):
        parts = tuple(
            _compile_packed_node(a, slot_of, high_water)
            for a in formula.args
        )

        def eval_or(S, env, parts=parts):
            result = FALSE3
            for part in parts:
                value = part(S, env)
                if value is TRUE3:
                    return TRUE3
                if value is HALF:
                    result = HALF
            return result

        return eval_or

    if isinstance(formula, (Exists, Forall)):
        fast = _compile_quantifier_masks(formula, slot_of)
        if fast is not None:
            # the binder never materializes: no slot, no per-node loop
            return fast
        slot, body = _compile_bound(
            formula.var,
            slot_of,
            high_water,
            lambda: _compile_packed_node(formula.body, slot_of, high_water),
        )
        if isinstance(formula, Exists):

            def eval_exists(S, env, body=body, slot=slot):
                result = FALSE3
                for node in S.nodes:
                    env[slot] = node
                    value = body(S, env)
                    if value is TRUE3:
                        return TRUE3
                    if value is HALF:
                        result = HALF
                return result

            return eval_exists

        def eval_forall(S, env, body=body, slot=slot):
            result = TRUE3
            for node in S.nodes:
                env[slot] = node
                value = body(S, env)
                if value is FALSE3:
                    return FALSE3
                if value is HALF:
                    result = HALF
            return result

        return eval_forall

    raise CompileError(f"unknown formula node {formula!r}")


#: bound on :data:`_EVALUATORS`: a few thousand formulas cover every
#: action of the TVPs a session or checker keeps alive at once
EVALUATOR_CACHE_SIZE = 4096

#: compiled evaluators keyed by ``(formula, update_vars)``: ``()`` for a
#: scalar :class:`CompiledFormula`, one or two variables for a
#: :class:`PlaneCompiled` update.  The lookup hashes the whole formula
#: tree, so callers resolve an evaluator once and hold it.
_EVALUATORS = LRUCache(EVALUATOR_CACHE_SIZE, name="formula-evaluators")


def compile_packed_formula(formula: Formula) -> CompiledFormula:
    """Compile (and cache) a formula against the bit-plane layout;
    raises :class:`CompileError` for a formula outside the TVP logic."""
    return _EVALUATORS.get_or_create(
        (formula, ()), lambda: _compile(formula, ())
    )


# -- plane-wide update evaluation ----------------------------------------------
#
# An update ``p(v...) := rhs`` computes the whole valuation at once, as
# plane algebra: every subformula evaluates to a ``(true_mask, may_mask)``
# pair over the update variables' domain — node bits for one free
# variable, pair bits (row ``v1``, column ``v2`` in the structure's
# stride) for two — and connectives become word-parallel AND/OR/NOT.
# A quantifier under a two-variable update (three live logical
# variables) binds a slot and ORs (exists) or ANDs (forall) its body's
# planes over the universe.


class PlaneCompiled:
    """A formula compiled to whole-plane evaluation over update vars.

    ``fn(structure, slots, ctx) -> (t_plane, may_plane)``; slots carry
    the outer environment exactly like :class:`CompiledFormula`
    (positions of the update variables are never read); ``outer`` lists
    the ``(slot, name)`` of every free variable that is not an update
    variable.
    """

    __slots__ = ("formula", "num_slots", "fn", "outer")

    def __init__(self, formula, num_slots, fn, outer):
        self.formula = formula
        self.num_slots = num_slots
        self.fn = fn
        self.outer = outer


#: memoized evaluation contexts keyed by (shift, universe_mask) — the
#: engine revisits the same few universes thousands of times per run
_PLANE_CTX_CACHE: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}


def _plane_ctx(S) -> Tuple[int, int, int, int]:
    """Per-structure evaluation context: ``(shift, nodes_mask,
    row_replicator, pairs_mask)``.

    ``row_replicator`` has one bit at each valid row offset — because
    row offsets are multiples of the stride and node masks are narrower
    than it, ``mask * row_replicator`` replicates a column mask into
    every row without carries (O(1) broadcast).
    """
    shift = S._shift
    nodes = S.universe_mask
    ctx = _PLANE_CTX_CACHE.get((shift, nodes))
    if ctx is not None:
        return ctx
    if len(_PLANE_CTX_CACHE) > 4096:
        _PLANE_CTX_CACHE.clear()
    rowrep = 0
    m = nodes
    while m:
        low = m & -m
        rowrep |= 1 << ((low.bit_length() - 1) << shift)
        m ^= low
    ctx = (shift, nodes, rowrep, nodes * rowrep)
    _PLANE_CTX_CACHE[(shift, nodes)] = ctx
    return ctx


def _spread_rows(mask: int, shift: int, cols: int) -> int:
    """Broadcast a node mask over rows: bit ``n`` becomes row ``n``
    filled with ``cols`` (the ``P(v1)`` direction)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= cols << ((low.bit_length() - 1) << shift)
        mask ^= low
    return out


def _transpose(plane: int, shift: int, width_mask: int) -> int:
    """Swap rows and columns of a pair plane (the ``q(v2, v1)`` atom)."""
    out = 0
    while plane:
        low = plane & -plane
        pos = low.bit_length() - 1
        out |= 1 << (((pos & width_mask) << shift) | (pos >> shift))
        plane ^= low
    return out


def _unary_planes_over(
    reader, direction: str
):
    """Lift a node-mask reader ``(S, slots, ctx) -> (t, u)`` over nodes
    into the pair domain along ``direction`` ('row' = the mask indexes
    v1, 'col' = it indexes v2)."""
    if direction == "row":

        def lifted_row(S, slots, ctx, reader=reader):
            t, u = reader(S, slots, ctx)
            shift, nodes = ctx[0], ctx[1]
            return (
                _spread_rows(t, shift, nodes),
                _spread_rows(u, shift, nodes),
            )

        return lifted_row

    def lifted_col(S, slots, ctx, reader=reader):
        t, u = reader(S, slots, ctx)
        rowrep = ctx[2]
        return t * rowrep, u * rowrep

    return lifted_col


def _node_mask_atom(name: str, kind: str, slot: Optional[int] = None):
    """Node-mask readers for predicate atoms viewed along one variable:

    * ``unary``   — ``p(v)``: the unary planes themselves
    * ``row``     — ``q(c, v)``: extract row ``c`` (O(1) shift+mask)
    * ``col``     — ``q(v, c)``: gather column ``c`` (O(nodes))
    * ``diag``    — ``q(v, v)``: gather the diagonal (O(nodes))
    """
    if kind == "unary":

        def read_unary(S, slots, ctx, name=name):
            t = S.u_t.get(name, 0)
            return t, t | S.u_h.get(name, 0)

        return read_unary
    if kind == "row":

        def read_row(S, slots, ctx, name=name, slot=slot):
            shift, nodes = ctx[0], ctx[1]
            off = slots[slot] << shift
            t = (S.b_t.get(name, 0) >> off) & nodes
            return t, t | ((S.b_h.get(name, 0) >> off) & nodes)

        return read_row
    if kind == "col":

        def read_col(S, slots, ctx, name=name, slot=slot):
            shift, nodes = ctx[0], ctx[1]
            col = 1 << slots[slot]
            bt = S.b_t.get(name, 0)
            bh = S.b_h.get(name, 0)
            t = u = 0
            m = nodes
            while m:
                low = m & -m
                off = (low.bit_length() - 1) << shift
                if (bt >> off) & col:
                    t |= low
                    u |= low
                elif (bh >> off) & col:
                    u |= low
                m ^= low
            return t, u

        return read_col

    def read_diag(S, slots, ctx, name=name):
        shift, nodes = ctx[0], ctx[1]
        bt = S.b_t.get(name, 0)
        bh = S.b_h.get(name, 0)
        t = u = 0
        m = nodes
        while m:
            low = m & -m
            n = low.bit_length() - 1
            pos = 1 << ((n << shift) | n)
            if bt & pos:
                t |= low
                u |= low
            elif bh & pos:
                u |= low
            m ^= low
        return t, u

    return read_diag


def _eq_node_mask(slot: Optional[int]):
    """``v == c`` as a node mask: the single bit at ``c``, definite
    unless ``c`` is a summary node; ``v == v`` (slot None) is every
    node, definite except summaries."""
    if slot is None:

        def read_eq_self(S, slots, ctx):
            nodes = ctx[1]
            return nodes & ~S._summary_mask(), nodes

        return read_eq_self

    def read_eq_const(S, slots, ctx, slot=slot):
        bit = 1 << slots[slot]
        if S.summary.get(slots[slot], False):
            return 0, bit
        return bit, bit

    return read_eq_const


def _compile_plane_pred(
    formula: PredAtom, dom: Tuple[str, ...], slot_of: Dict[str, int]
):
    name = formula.name
    args = formula.args
    domset = set(dom)

    def env_slot(var: str) -> int:
        try:
            return slot_of[var]
        except KeyError:
            raise CompileError(
                f"unbound variable {var!r} in {formula}"
            ) from None

    if len(dom) == 1:
        v = dom[0]
        if len(args) == 1:  # args == (v,): scalar case was caught upstream
            return _node_mask_atom(name, "unary")
        if len(args) == 2:
            a, b = args
            if a == v and b == v:
                return _node_mask_atom(name, "diag")
            if b == v:  # q(c, v): row extract
                return _node_mask_atom(name, "row", env_slot(a))
            # q(v, c): column gather
            return _node_mask_atom(name, "col", env_slot(b))
        raise CompileError(f"unsupported predicate arity in {formula}")

    v1, v2 = dom
    if len(args) == 1:
        a = args[0]
        direction = "row" if a == v1 else "col"
        return _unary_planes_over(
            _node_mask_atom(name, "unary"), direction
        )
    if len(args) == 2:
        a, b = args
        if a == v1 and b == v2:

            def read_pairs(S, slots, ctx, name=name):
                t = S.b_t.get(name, 0)
                return t, t | S.b_h.get(name, 0)

            return read_pairs
        if a == v2 and b == v1:

            def read_pairs_T(S, slots, ctx, name=name):
                shift = ctx[0]
                wm = S._width - 1
                t = _transpose(S.b_t.get(name, 0), shift, wm)
                h = _transpose(S.b_h.get(name, 0), shift, wm)
                return t, t | h

            return read_pairs_T
        # one domain variable + one constant / repeated domain variable:
        # read a node mask along that variable, then lift it
        if a in domset and b in domset:  # (v1, v1) or (v2, v2)
            reader = _node_mask_atom(name, "diag")
            direction = "row" if a == v1 else "col"
        elif a in domset:  # q(v, c)
            reader = _node_mask_atom(name, "col", env_slot(b))
            direction = "row" if a == v1 else "col"
        else:  # q(c, v)
            reader = _node_mask_atom(name, "row", env_slot(a))
            direction = "row" if b == v1 else "col"
        return _unary_planes_over(reader, direction)
    raise CompileError(f"unsupported predicate arity in {formula}")


def _compile_plane_eq(
    formula: EqAtom, dom: Tuple[str, ...], slot_of: Dict[str, int]
):
    if not isinstance(formula.lhs, Base) or not isinstance(
        formula.rhs, Base
    ):
        raise CompileError(
            f"3-valued equality supports logical variables only; "
            f"got {formula}"
        )
    lhs = formula.lhs.name
    rhs = formula.rhs.name
    domset = set(dom)
    if len(dom) == 1:
        v = dom[0]
        if lhs == v and rhs == v:
            return _eq_node_mask(None)
        other = rhs if lhs == v else lhs
        try:
            return _eq_node_mask(slot_of[other])
        except KeyError:
            raise CompileError(
                f"unbound variable {other!r} in {formula}"
            ) from None
    v1, v2 = dom
    if {lhs, rhs} == {v1, v2}:

        def read_eq_diag(S, slots, ctx):
            shift, nodes = ctx[0], ctx[1]
            sm = S._summary_mask()
            t = u = 0
            m = nodes
            while m:
                low = m & -m
                pos = 1 << (((low.bit_length() - 1) << shift)
                            | (low.bit_length() - 1))
                u |= pos
                if not (sm & low):
                    t |= pos
                m ^= low
            return t, u

        return read_eq_diag
    if lhs in domset and rhs in domset:  # v == v (same variable twice)
        direction = "row" if lhs == v1 else "col"
        return _unary_planes_over(_eq_node_mask(None), direction)
    var = lhs if lhs in domset else rhs
    other = rhs if lhs in domset else lhs
    try:
        slot = slot_of[other]
    except KeyError:
        raise CompileError(
            f"unbound variable {other!r} in {formula}"
        ) from None
    direction = "row" if var == v1 else "col"
    return _unary_planes_over(_eq_node_mask(slot), direction)


def _compile_plane_node(
    formula: Formula,
    dom: Tuple[str, ...],
    slot_of: Dict[str, int],
    high_water: List[int],
):
    domain_sel = 1 if len(dom) == 1 else 3  # ctx index of the domain mask
    if not (set(_free_vars_ordered(formula)) & set(dom)):
        # no update variable occurs: evaluate once with the scalar
        # compiler (mask fast paths included) and broadcast the value
        scalar = _compile_packed_node(formula, slot_of, high_water)

        def eval_broadcast(
            S, slots, ctx, scalar=scalar, sel=domain_sel
        ):
            value = scalar(S, slots)
            if value is TRUE3:
                d = ctx[sel]
                return d, d
            if value is HALF:
                return 0, ctx[sel]
            return 0, 0

        return eval_broadcast

    if isinstance(formula, PredAtom):
        return _compile_plane_pred(formula, dom, slot_of)

    if isinstance(formula, EqAtom):
        return _compile_plane_eq(formula, dom, slot_of)

    if isinstance(formula, Not):
        body = _compile_plane_node(formula.body, dom, slot_of, high_water)

        def eval_not(S, slots, ctx, body=body, sel=domain_sel):
            t, u = body(S, slots, ctx)
            d = ctx[sel]
            return d & ~u, d & ~t

        return eval_not

    if isinstance(formula, And):
        parts = tuple(
            _compile_plane_node(a, dom, slot_of, high_water)
            for a in formula.args
        )

        def eval_and(S, slots, ctx, parts=parts, sel=domain_sel):
            t = u = ctx[sel]
            for part in parts:
                pt, pu = part(S, slots, ctx)
                t &= pt
                u &= pu
                if not u:
                    return 0, 0
            return t, u

        return eval_and

    if isinstance(formula, Or):
        parts = tuple(
            _compile_plane_node(a, dom, slot_of, high_water)
            for a in formula.args
        )

        def eval_or(S, slots, ctx, parts=parts):
            t = u = 0
            for part in parts:
                pt, pu = part(S, slots, ctx)
                t |= pt
                u |= pu
            return t, u

        return eval_or

    if isinstance(formula, (Exists, Forall)):
        binder = formula.var
        if len(dom) == 2:
            return _compile_plane_quantifier_slot(
                formula, dom, slot_of, high_water
            )
        v = dom[0]
        # binder == v would shadow the update variable, making the
        # quantifier scalar — caught by the broadcast case above
        saved = slot_of.pop(binder, None)
        body = _compile_plane_node(
            formula.body, (v, binder), slot_of, high_water
        )
        if saved is not None:
            slot_of[binder] = saved
        if isinstance(formula, Exists):

            def eval_exists(S, slots, ctx, body=body):
                T, U = body(S, slots, ctx)
                shift, nodes = ctx[0], ctx[1]
                t = u = 0
                m = nodes
                while m:
                    low = m & -m
                    off = (low.bit_length() - 1) << shift
                    if (U >> off) & nodes:
                        u |= low
                        if (T >> off) & nodes:
                            t |= low
                    m ^= low
                return t, u

            return eval_exists

        def eval_forall(S, slots, ctx, body=body):
            T, U = body(S, slots, ctx)
            shift, nodes = ctx[0], ctx[1]
            t = u = 0
            m = nodes
            while m:
                low = m & -m
                off = (low.bit_length() - 1) << shift
                if (U >> off) & nodes == nodes:
                    u |= low
                    if (T >> off) & nodes == nodes:
                        t |= low
                m ^= low
            return t, u

        return eval_forall

    raise CompileError(f"unknown formula node {formula!r}")


def _compile_plane_quantifier_slot(
    formula: Formula,
    dom: Tuple[str, str],
    slot_of: Dict[str, int],
    high_water: List[int],
):
    """A quantifier under a two-variable update: two planes can't carry
    its binder too, so it binds a slot and folds the body's planes over
    the universe (OR for exists, AND for forall)."""
    binder = formula.var
    if binder in dom:
        # the binder shadows an update variable, so the quantifier reads
        # only the other one: compile it over that variable alone and
        # broadcast the node mask along it
        other = dom[1] if binder == dom[0] else dom[0]
        reader = _compile_plane_node(formula, (other,), slot_of, high_water)
        return _unary_planes_over(
            reader, "row" if other == dom[0] else "col"
        )
    slot, body = _compile_bound(
        binder,
        slot_of,
        high_water,
        lambda: _compile_plane_node(formula.body, dom, slot_of, high_water),
    )
    if isinstance(formula, Exists):

        def eval_exists_slot(S, slots, ctx, body=body, slot=slot):
            t = u = 0
            for node in S.nodes:
                slots[slot] = node
                bt, bu = body(S, slots, ctx)
                t |= bt
                u |= bu
            return t, u

        return eval_exists_slot

    def eval_forall_slot(S, slots, ctx, body=body, slot=slot):
        t = u = ctx[3]  # every valid pair
        for node in S.nodes:
            slots[slot] = node
            bt, bu = body(S, slots, ctx)
            t &= bt
            u &= bu
        return t, u

    return eval_forall_slot


def compile_update_plane(
    formula: Formula, update_vars: Tuple[str, ...]
) -> PlaneCompiled:
    """Compile (and cache) an update's rhs to whole-plane evaluation
    over ``update_vars`` (one or two distinct variables); raises
    :class:`CompileError` for a formula outside the TVP logic."""
    vars_key = tuple(update_vars)
    if len(vars_key) not in (1, 2) or len(set(vars_key)) != len(vars_key):
        raise CompileError(f"unsupported update variables {vars_key}")
    return _EVALUATORS.get_or_create(
        (formula, vars_key), lambda: _compile(formula, vars_key)
    )


def _compile(formula: Formula, vars_key: Tuple[str, ...]):
    """The :data:`_EVALUATORS` entry for ``(formula, vars_key)``."""
    free = _free_vars_ordered(formula)
    slot_of = {name: index for index, name in enumerate(free)}
    high_water = [len(free)]
    if not vars_key:
        fn = _compile_packed_node(formula, slot_of, high_water)
        return CompiledFormula(formula, free, high_water[0], fn)
    fn = _compile_plane_node(formula, vars_key, slot_of, high_water)
    outer = tuple(
        (slot, name) for slot, name in enumerate(free) if name not in vars_key
    )
    return PlaneCompiled(formula, high_water[0], fn, outer)


def evaluate_update_plane(
    structure, compiled: PlaneCompiled, env: Dict[str, int]
) -> Tuple[int, int]:
    """Run a plane-compiled update rhs with its outer variables bound by
    ``env``: returns disjoint ``(t, h)`` planes over the update
    variables' domain."""
    slots = [0] * compiled.num_slots
    for slot, name in compiled.outer:
        slots[slot] = env[name]
    t, u = compiled.fn(structure, slots, _plane_ctx(structure))
    return t, u & ~t

