"""A TVLA-style abstract interpreter for TVP programs (Section 5.5).

States are 3-valued logical structures
(:class:`~repro.logic.packed.PackedStructure`); canonical abstraction merges
individuals agreeing on all unary *abstraction predicates*, bounding the
universe at ``3^|A|`` as the paper notes.  Two analysis modes mirror the
paper's evaluation:

* **relational** — a set of 3-valued structures per program point
  (deduplicated up to canonical isomorphism), with the focus operation
  materializing individuals so pointer formulas evaluate definitely;
* **independent attribute** — a single structure per point that
  approximates all structures arising there (join merges canonically-
  named individuals and predicate values in the information order).

Section 7's empirically surprising finding — the relational engine has
*no precision advantage* over the independent-attribute engine on the
benchmark clients, thanks to the specialized component abstraction — is
reproduced by experiment E7.
"""

from repro.logic.packed import PackedStructure
from repro.tvla.engine import TvlaEngine, TvlaResult

__all__ = ["PackedStructure", "TvlaEngine", "TvlaResult"]
