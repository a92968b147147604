"""Program model: the class table and the lowered methods.

A :class:`Program` is what :func:`parse_program` (the frontend, in
:mod:`repro.lang.frontend`) returns: the class table built against a
component specification, and every method body lowered to a 3-address
:class:`~repro.lang.cfg.CFG` with the type of each of its variables.

Name resolution inside a method body follows Java's intuition:
local / parameter ▸ field of the enclosing class (implicit ``this.`` for
instance fields, ``Class.field`` for statics) ▸ a class name beginning a
static-field path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.easl.spec import ComponentSpec
from repro.lang.cfg import CFG

OPAQUE_TYPES = frozenset({"Object", "boolean", "void", "int", "String"})


class TypeError_(Exception):
    """Raised on Jlite type/name-resolution errors."""


@dataclass
class FieldInfo:
    name: str
    type: str
    is_static: bool
    owner: str

    @property
    def static_name(self) -> str:
        return f"{self.owner}.{self.name}"


@dataclass
class ClassInfo:
    name: str
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    methods: Dict[str, "MethodInfo"] = field(default_factory=dict)


@dataclass
class MethodInfo:
    qualified: str  # "Class.method"
    class_name: str
    name: str
    params: List[Tuple[str, str]]
    return_type: str
    is_static: bool
    is_constructor: bool
    cfg: Optional[CFG] = None
    #: every variable (param/local/temp/this) with its type
    variables: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    site_id: int
    line: int
    op_key: str
    method: str  # enclosing client method (qualified)


class Program:
    """A resolved Jlite program against a component specification; the
    frontend fills in its tables."""

    def __init__(self, spec: ComponentSpec) -> None:
        self.spec = spec
        self.classes: Dict[str, ClassInfo] = {}
        self.methods: Dict[str, MethodInfo] = {}
        self.statics: Dict[str, str] = {}  # "Class.field" -> type
        self.call_sites: Dict[int, CallSite] = {}
        self._site_counter = itertools.count()

    def _check_type(self, type_name: str, line: int) -> None:
        if (
            type_name not in OPAQUE_TYPES
            and not self.spec.is_component_type(type_name)
            and type_name not in self.classes
        ):
            raise TypeError_(f"unknown type {type_name} (line {line})")

    # -- queries -----------------------------------------------------------------

    @property
    def entry(self) -> MethodInfo:
        for minfo in self.methods.values():
            if minfo.name == "main" and minfo.is_static:
                return minfo
        raise TypeError_("program has no static main() method")

    def is_component_type(self, type_name: str) -> bool:
        return self.spec.is_component_type(type_name)

    def method(self, qualified: str) -> MethodInfo:
        return self.methods[qualified]

    def new_site(self, line: int, op_key: str, method: str) -> int:
        site_id = next(self._site_counter)
        self.call_sites[site_id] = CallSite(site_id, line, op_key, method)
        return site_id

    def component_vars(self, method: str) -> Dict[str, str]:
        """Component-typed variables visible in ``method``: its locals,
        params, temps, plus every component-typed static."""
        minfo = self.methods[method]
        found = {
            name: type_
            for name, type_ in minfo.variables.items()
            if self.is_component_type(type_)
        }
        for name, type_ in self.statics.items():
            if self.is_component_type(type_):
                found[name] = type_
        return found

    def is_shallow(self) -> bool:
        """SCMP check: no *instance* field (client-class field) has a
        component type, so component references live only in locals and
        statics (Section 4's restriction)."""
        for cinfo in self.classes.values():
            for finfo in cinfo.fields.values():
                if not finfo.is_static and self.is_component_type(
                    finfo.type
                ):
                    return False
        return True


# parse_program lives with the frontend, which builds Programs: it is
# imported here, once the model is defined, for every existing importer
from repro.lang.frontend import parse_program  # noqa: E402, F401
