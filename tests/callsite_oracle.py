"""The interpretive call-site maps, kept as a differential oracle.

These are the entry and return mappings the interprocedural certifier
(:mod:`repro.certifier.interproc`) evaluated bit by bit on every call
before it compiled each call-site shape into a
:class:`~repro.certifier.callplan.CallPlan`: for each output instance
they look the family up and walk the Section 8 case analysis over the
caller's mask and the callee's exit mask.  ``tests/test_callsite_plans.py``
applies plans and these maps to the same masks at every reached call
site and requires equal results.

One change relative to the historical code: the formal-to-actual
binding that ``map_return`` reads is computed from the call statement
itself, where it used to be left behind by the previous entry mapping.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.certifier.boolprog import Instance
from repro.certifier.spaces import RET_VAR, ProcSpace
from repro.derivation.predicates import Family
from repro.lang.cfg import SCallClient


def _formal_visible(stm: SCallClient, callee: ProcSpace) -> Dict[str, str]:
    visible: Dict[str, str] = {}
    if stm.receiver is not None and not callee.is_static:
        visible["this"] = stm.receiver
    for pname, actual in zip(callee.params, stm.args):
        visible[pname] = actual
    return visible


class InterpretiveCallMaps:
    """``map_entry`` / ``map_return`` over one client's
    :class:`~repro.certifier.spaces.FactSpaces`, by interpretation."""

    def __init__(self, facts) -> None:
        self.abstraction = facts.abstraction
        self.shapes = facts.shapes
        self.statics = facts.statics
        self._family_mutable = facts._family_mutable
        self._formal_visible: Dict[str, str] = {}

    # -- value lookups --------------------------------------------------------------------

    def _caller_value(
        self, caller: ProcSpace, mask: int, family: str, args: Tuple[str, ...]
    ) -> bool:
        index = caller.boolprog.lookup(Instance(family, args))
        return index is not None and bool(mask >> index & 1)

    def _exit_value(
        self, callee: ProcSpace, mask: int, family: str, args: Tuple[str, ...]
    ) -> bool:
        index = callee.boolprog.lookup(Instance(family, args))
        return index is not None and bool(mask >> index & 1)

    def _caller_symmetric(
        self, caller: ProcSpace, mask: int, family: str, a: str, b: str
    ) -> bool:
        """Query a symmetric (identity/mutex-shaped) family in either
        argument order."""
        return self._caller_value(
            caller, mask, family, (a, b)
        ) or self._caller_value(caller, mask, family, (b, a))

    # -- entry-vector construction -----------------------------------------------------------

    def _beta(self, stm: SCallClient, callee: ProcSpace) -> Dict[str, str]:
        """Caller-visible name of each callee interface variable."""
        beta: Dict[str, str] = {}
        if stm.receiver is not None and not callee.is_static:
            beta["this"] = stm.receiver
        for pname, actual in zip(callee.params, stm.args):
            beta[pname] = actual
        for static in self.statics:
            beta[static] = static
        for ghost, anchored in callee.ghosts.items():
            if anchored in beta:
                beta[ghost] = beta[anchored]
        return beta

    def map_entry(
        self,
        caller: ProcSpace,
        caller_mask: int,
        stm: SCallClient,
        callee: ProcSpace,
    ) -> int:
        beta = self._beta(stm, callee)
        entry = 0
        for index, instance in enumerate(callee.boolprog.instances()):
            if self._entry_value(instance, beta, caller, caller_mask, callee):
                entry |= 1 << index
        return entry

    def _entry_value(
        self,
        instance: Instance,
        beta: Dict[str, str],
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
    ) -> bool:
        family = self.abstraction.family(instance.family)
        has_phantom = any(a in callee.phantoms for a in instance.args)
        if has_phantom:
            return self._phantom_entry_value(
                instance, family, beta, caller, caller_mask, callee
            )
        mapped: List[str] = []
        for arg in instance.args:
            visible = beta.get(arg)
            if visible is None:
                # a callee local (incl. ##ret): null at entry
                return (
                    len(set(instance.args)) <= 1
                    and self.abstraction.is_reflexive(family.name)
                )
            mapped.append(visible)
        return self._caller_value(
            caller, caller_mask, family.name, tuple(mapped)
        )

    def _phantom_entry_value(
        self,
        instance: Instance,
        family: Family,
        beta: Dict[str, str],
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
    ) -> bool:
        shapes = self.shapes
        args = instance.args
        if family.name in shapes.identity.values():
            return args[0] == args[1]
        if family.name in shapes.mutable_unary.values():
            return False  # a pre-existing iterator is valid at entry
        phantoms = [a for a in args if a in callee.phantoms]
        if len(phantoms) == len(args):
            return False
        phantom = phantoms[0]
        other = next(a for a in args if a not in callee.phantoms)
        other_visible = beta.get(other)
        if other_visible is None:
            return False  # phantom vs. callee local: null at entry
        anchor_ghost = callee.phantoms[phantom]
        anchor_visible = beta.get(anchor_ghost)
        if anchor_visible is None:
            return False
        anchor_sort = callee.variables[anchor_ghost]
        iter_sort = callee.variables[phantom]
        set_sort = shapes.collection_of.get(iter_sort)
        relation = shapes.relation.get((iter_sort, set_sort or ""))
        other_sort = callee.variables.get(other, "")
        if anchor_sort == set_sort:
            # phantom iterates the anchor collection itself
            if family.name == relation and other_sort == set_sort:
                identity_set = shapes.identity.get(set_sort or "")
                return identity_set is not None and (
                    self._caller_symmetric(
                        caller, caller_mask, identity_set,
                        anchor_visible, other_visible,
                    )
                    or anchor_visible == other_visible
                )
            if family.name == shapes.mutex.get(iter_sort):
                return relation is not None and self._caller_value(
                    caller, caller_mask, relation,
                    shapes.relation_args(
                        relation, other_visible, anchor_visible
                    ),
                )
            return False
        # phantom shares the anchor iterator's collection
        if family.name == relation and other_sort == set_sort:
            return relation is not None and self._caller_value(
                caller, caller_mask, relation,
                shapes.relation_args(
                    relation, anchor_visible, other_visible
                ),
            )
        if family.name == shapes.mutex.get(iter_sort):
            if other_sort != iter_sort:
                return False
            mutex = shapes.mutex[iter_sort]
            identity_iter = shapes.identity.get(iter_sort)
            return self._caller_symmetric(
                caller, caller_mask, mutex, anchor_visible, other_visible
            ) or (
                identity_iter is not None
                and (
                    self._caller_symmetric(
                        caller, caller_mask, identity_iter,
                        anchor_visible, other_visible,
                    )
                    or anchor_visible == other_visible
                )
            )
        return False

    # -- return-vector construction ------------------------------------------------------------

    def map_return(
        self,
        caller: ProcSpace,
        caller_mask: int,
        stm: SCallClient,
        callee: ProcSpace,
        exit_mask: int,
    ) -> int:
        self._formal_visible = _formal_visible(stm, callee)
        ghost_of: Dict[str, str] = {}
        beta = self._beta(stm, callee)
        for ghost, anchored in callee.ghosts.items():
            visible = beta.get(anchored)
            if visible is not None and visible not in ghost_of:
                ghost_of[visible] = ghost
        result_var = (
            stm.result if RET_VAR in callee.variables else None
        )
        out = 0
        for index, instance in enumerate(caller.boolprog.instances()):
            if self._return_value(
                instance, caller, caller_mask, callee, exit_mask, ghost_of,
                result_var,
            ):
                out |= 1 << index
        return out

    def _return_value(
        self,
        instance: Instance,
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
        exit_mask: int,
        ghost_of: Dict[str, str],
        result_var: Optional[str],
    ) -> bool:
        family = self.abstraction.family(instance.family)
        current = self._caller_value(
            caller, caller_mask, family.name, instance.args
        )
        callee_names: List[Optional[str]] = []
        changed: List[bool] = []
        local_positions: List[int] = []
        for pos, arg in enumerate(instance.args):
            if result_var is not None and arg == result_var:
                callee_names.append(RET_VAR)
                changed.append(True)
            elif arg in self.statics:
                callee_names.append(arg)
                changed.append(True)
            elif arg in ghost_of:
                callee_names.append(ghost_of[arg])
                changed.append(False)
            else:
                callee_names.append(None)
                changed.append(False)
                local_positions.append(pos)
        if not local_positions:
            return self._exit_value(
                callee, exit_mask, family.name,
                tuple(callee_names),  # type: ignore[arg-type]
            )
        mutable = self._family_mutable(family)
        if mutable:
            if family.arity != 1:
                return True  # outside the CMP class: stay sound
            return current or self._invalidated_via_interface(
                instance.args[0], caller, caller_mask, callee, exit_mask
            )
        if not any(changed):
            return current  # locals + actuals only: values frozen
        return self._origin_composition(
            instance, family, caller, caller_mask, callee, exit_mask,
            callee_names, changed,
        ) or self._fresh_object_composition(
            instance, family, caller, caller_mask, callee, exit_mask,
            callee_names, changed,
        )

    def _interface_ghosts(
        self, callee: ProcSpace, sort: str
    ) -> List[Tuple[str, str]]:
        return [
            (ghost, anchored)
            for ghost, anchored in callee.ghosts.items()
            if callee.variables[ghost] == sort
        ]

    def _origin_visible(self, anchored: str) -> Optional[str]:
        if anchored in self.statics:
            return anchored
        return self._formal_visible.get(anchored)

    def _invalidated_via_interface(
        self,
        local: str,
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
        exit_mask: int,
    ) -> bool:
        iter_sort = caller.variables.get(local)
        if iter_sort is None:
            return True
        stale = self.shapes.mutable_unary.get(iter_sort)
        set_sort = self.shapes.collection_of.get(iter_sort)
        relation = self.shapes.relation.get((iter_sort, set_sort or ""))
        mutex = self.shapes.mutex.get(iter_sort)
        identity_iter = self.shapes.identity.get(iter_sort)
        if stale is None:
            return True
        for phantom, anchor_ghost in callee.phantoms.items():
            if callee.variables[phantom] != iter_sort:
                continue
            if not self._exit_value(callee, exit_mask, stale, (phantom,)):
                continue
            visible = self._origin_visible(callee.ghosts[anchor_ghost])
            if visible is None:
                continue
            anchor_sort = callee.variables[anchor_ghost]
            if anchor_sort == set_sort and relation is not None:
                if self._caller_value(
                    caller, caller_mask, relation,
                    self.shapes.relation_args(relation, local, visible),
                ):
                    return True
            elif anchor_sort == iter_sort:
                if mutex is not None and self._caller_symmetric(
                    caller, caller_mask, mutex, local, visible
                ):
                    return True
                if identity_iter is not None and (
                    self._caller_symmetric(
                        caller, caller_mask, identity_iter, local, visible
                    )
                    or local == visible
                ):
                    return True
        # the local may *be* one of the passed iterators
        if identity_iter is not None:
            for ghost, anchored in self._interface_ghosts(callee, iter_sort):
                visible = self._origin_visible(anchored)
                if visible is None:
                    continue
                if (
                    self._caller_symmetric(
                        caller, caller_mask, identity_iter, local, visible
                    )
                    or local == visible
                ) and self._exit_value(callee, exit_mask, stale, (ghost,)):
                    return True
        return False

    def _origin_composition(
        self,
        instance: Instance,
        family: Family,
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
        exit_mask: int,
        callee_names: List[Optional[str]],
        changed: List[bool],
    ) -> bool:
        """Reconnect each changed (static / returned) position to an
        entry-time origin via the identity families."""
        identity = self.shapes.identity
        positions = [p for p, c in enumerate(changed) if c]
        pools = [
            self._interface_ghosts(callee, family.sorts[p])
            for p in positions
        ]
        for combo in itertools.product(*pools):
            caller_args = list(instance.args)
            visible_ok = True
            for (ghost, anchored), pos in zip(combo, positions):
                visible = self._origin_visible(anchored)
                if visible is None:
                    visible_ok = False
                    break
                caller_args[pos] = visible
            if not visible_ok:
                continue
            if not self._caller_value(
                caller, caller_mask, family.name, tuple(caller_args)
            ):
                continue
            linked = True
            for (ghost, _anchored), pos in zip(combo, positions):
                id_family = identity.get(family.sorts[pos])
                name = callee_names[pos]
                if id_family is None or name is None:
                    linked = False
                    break
                if not (
                    self._exit_value(
                        callee, exit_mask, id_family, (ghost, name)
                    )
                    or self._exit_value(
                        callee, exit_mask, id_family, (name, ghost)
                    )
                ):
                    linked = False
                    break
            if linked:
                return True
        return False

    def _fresh_object_composition(
        self,
        instance: Instance,
        family: Family,
        caller: ProcSpace,
        caller_mask: int,
        callee: ProcSpace,
        exit_mask: int,
        callee_names: List[Optional[str]],
        changed: List[bool],
    ) -> bool:
        """A changed position may hold a *callee-created* iterator over a
        pre-existing collection; relation/mutex facts can then hold with
        no identity link.  Handles the two CMP-class shapes."""
        shapes = self.shapes
        if sum(changed) != 1:
            return False
        pos = changed.index(True)
        other = 1 - pos if family.arity == 2 else None
        changed_name = callee_names[pos]
        if changed_name is None or other is None:
            return False
        if family.name in shapes.relation.values():
            iter_pos = 0 if family.sorts[0] in shapes.collection_of else 1
            if pos != iter_pos:
                return False  # collections are never callee-fresh *and*
                # related to a pre-existing iterator
            set_sort = family.sorts[1 - iter_pos]
            identity_set = shapes.identity.get(set_sort)
            if identity_set is None:
                return False
            local_set = instance.args[other]
            for ghost, anchored in self._interface_ghosts(callee, set_sort):
                visible = self._origin_visible(anchored)
                if visible is None:
                    continue
                same_at_call = (
                    visible == local_set
                    or self._caller_value(
                        caller, caller_mask, identity_set,
                        (visible, local_set),
                    )
                    or self._caller_value(
                        caller, caller_mask, identity_set,
                        (local_set, visible),
                    )
                )
                exit_args = (
                    (changed_name, ghost)
                    if iter_pos == 0
                    else (ghost, changed_name)
                )
                if same_at_call and self._exit_value(
                    callee, exit_mask, family.name, exit_args
                ):
                    return True
            return False
        if family.name in shapes.mutex.values():
            iter_sort = family.sorts[0]
            set_sort = shapes.collection_of.get(iter_sort)
            relation = shapes.relation.get((iter_sort, set_sort or ""))
            if relation is None:
                return False
            local = instance.args[other]
            for ghost, anchored in self._interface_ghosts(
                callee, set_sort or ""
            ):
                visible = self._origin_visible(anchored)
                if visible is None:
                    continue
                if self._caller_value(
                    caller, caller_mask, relation,
                    shapes.relation_args(relation, local, visible),
                ) and self._exit_value(
                    callee, exit_mask, relation,
                    shapes.relation_args(relation, changed_name, ghost),
                ):
                    return True
        return False
