"""Jlite — the client programming language.

The paper analyses Java clients of a specified component.  This repo's
stand-in is Jlite, a small Java-like language with classes, instance and
static fields, methods, constructors, conditionals and loops — rich enough
to express every benchmark shape the paper describes (including Fig. 1's
worklist build tool and Fig. 3's iterator-aliasing fragment), while keeping
the frontend first-party so the analyses exercise a realistic
parse → typecheck → CFG pipeline instead of a JVM.

* :mod:`repro.lang.frontend` — the frontend: one recursive descent from
  tokens straight to resolved, lowered methods, with no syntax tree.
* :mod:`repro.lang.types` — the program model: class table, methods,
  call sites.
* :mod:`repro.lang.cfg` — 3-address control-flow graphs; component
  interactions are :class:`~repro.lang.cfg.SCallComp` edges that
  downstream certifiers rewrite via the derived method abstractions.
* :mod:`repro.lang.callgraph` — the (monomorphic) client call graph.
"""

from repro.lang.types import Program, TypeError_, parse_program

__all__ = ["Program", "TypeError_", "parse_program"]
