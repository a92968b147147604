"""Synthetic SCMP clients for the complexity experiments (E4, E6, E16).

The generator emits deterministic pseudo-random straight-line/looped
clients with configurable numbers of collection variables, iterator
variables, and statements — sweeping ``B`` (component variables, hence
``B²`` boolean predicates) and ``E`` (CFG edges) to exhibit the
O(E·B²) behaviour of the Section 4.3 certifier.

The *scale families* (:data:`SCALE_FAMILIES`) target a statement count
instead of individual knobs — parse-clean Jlite from 10³ to 10⁶
statements per deterministic seed — each stressing a different axis of
the staged pipeline:

``deep-calls``
    one long call chain of small procedures (call-graph *depth*);
``wide-scc``
    one mutually-recursive ring with seeded chord calls (a single wide
    call-graph SCC: every summary feeds back into the tabulation);
``heap-chain``
    allocation loops threading iterators through heap fields (sized for
    the generic heap engines — not shallow, so not interproc-eligible);
``shared-library``
    a fixed library DAG of procedures plus many small seeded callers —
    the summary-database workload: clients generated with different
    ``client_seed`` share every library procedure, so a warm summary DB
    pays for each one exactly once.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional


def make_client(
    num_sets: int = 2,
    num_iters: int = 4,
    num_ops: int = 30,
    seed: int = 7,
    loop_every: int = 10,
    rng: Optional[random.Random] = None,
    tag: str = "",
) -> str:
    """A single-method SCMP client with the requested size.

    Randomness comes from ``rng`` when supplied (so callers embedding
    this generator in a larger seeded process control the stream);
    otherwise a fresh ``random.Random(seed)`` keeps the output
    deterministic per ``seed`` exactly as before.  ``tag`` is appended
    to every variable name, so clients built with different tags have
    disjoint variable (and hence predicate) universes.
    """
    rng = rng if rng is not None else random.Random(seed)
    lines: List[str] = ["class Main {", "  static void main() {"]
    sets = [f"s{i}{tag}" for i in range(num_sets)]
    iters = [f"i{i}{tag}" for i in range(num_iters)]
    for name in sets:
        lines.append(f"    Set {name} = new Set();")
    for name in iters:
        owner = rng.choice(sets)
        lines.append(f"    Iterator {name} = {owner}.iterator();")
    depth = 0
    for index in range(num_ops):
        if loop_every and index and index % loop_every == 0 and depth < 2:
            lines.append("    while (?) {")
            depth += 1
        kind = rng.randrange(6)
        if kind == 0:
            lines.append(f"    {rng.choice(sets)}.add(\"x\");")
        elif kind == 1:
            it = rng.choice(iters)
            lines.append(f"    if (?) {{ {it}.next(); }}")
        elif kind == 2:
            it, owner = rng.choice(iters), rng.choice(sets)
            lines.append(f"    {it} = {owner}.iterator();")
        elif kind == 3:
            a, b = rng.choice(iters), rng.choice(iters)
            if a != b:
                lines.append(f"    {a} = {b};")
        elif kind == 4:
            a, b = rng.choice(sets), rng.choice(sets)
            if a != b:
                lines.append(f"    {a} = {b};")
        else:
            it = rng.choice(iters)
            lines.append(f"    if (?) {{ {it}.remove(); }}")
    while depth:
        lines.append("    }")
        depth -= 1
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def make_heap_client(
    num_sets: int = 3,
    num_fields: int = 3,
    num_loops: int = 2,
    reads: int = 3,
) -> str:
    """A loop-heavy heap client sized for the packed-kernel bench (E13).

    Iterators are stored into ``Holder`` fields, so they survive as heap
    nodes in the specialized TVLA analysis (variable-bound iterators
    specialize away into nullary instance predicates and exercise only
    the scalar path).  Each ``while`` loop allocates a fresh holder and
    re-aims every field at a rotating owner set, which multiplies the
    relational engine's per-node structure sets — the state-kernel-bound
    workload the packed representation targets.  The trailing reads race
    a mutation, so the client carries real (definite and maybe) alarms
    whose equality the bench checks across representations.
    """
    fields = [f"it{k}" for k in range(num_fields)]
    lines = [
        "class Holder { "
        + " ".join(f"Iterator {f};" for f in fields)
        + " Holder() { } }",
        "class Main {",
        "  static void main() {",
    ]
    sets = [f"v{i}" for i in range(num_sets)]
    for name in sets:
        lines.append(f"    Set {name} = new Set();")
    lines.append("    Holder last = new Holder();")
    for loop in range(num_loops):
        lines.append("    while (?) {")
        lines.append(f"      Holder h{loop} = new Holder();")
        for k, field in enumerate(fields):
            owner = sets[(loop + k) % len(sets)]
            lines.append(f"      h{loop}.{field} = {owner}.iterator();")
        lines.append(f"      last = h{loop};")
        lines.append("    }")
    for k in range(reads):
        field = fields[k % len(fields)]
        lines.append(f"    Iterator j{k} = last.{field};")
        lines.append(f"    if (?) {{ j{k}.next(); }}")
    lines.append(f'    {sets[0]}.add("x");')
    for k in range(reads):
        lines.append(f"    if (?) {{ j{k}.next(); }}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def make_call_chain(depth: int, mutate_at_bottom: bool = True) -> str:
    """A chain of ``depth`` procedures ending in a collection mutation —
    sweeps procedure count for the interprocedural experiment (E6)."""
    lines = [
        "class Main {",
        "  static Set g;",
        "  static void main() {",
        "    g = new Set();",
        "    Iterator i = g.iterator();",
        "    p0();",
        "    i.next();",
        "  }",
    ]
    for level in range(depth):
        if level + 1 < depth:
            body = f"if (?) {{ p{level + 1}(); }}"
        elif mutate_at_bottom:
            body = 'if (?) { g.add("x"); }'
        else:
            body = "Iterator t = g.iterator();"
        lines.append(f"  static void p{level}() {{ {body} }}")
    lines.append("}")
    return "\n".join(lines)


# -- scale families (E16) ----------------------------------------------------
#
# Each family takes a target statement count and a seed and emits a
# parse-clean shallow (or, for heap-chain, heap-carrying) client whose
# `count_statements` lands within a few percent of the target.  Bodies
# keep the per-procedure fact space *small* (one component static, a
# couple of locals) so program size sweeps E, not B — the certifiers are
# O(E·B²), and the scale question is the E axis.


def count_statements(source: str) -> int:
    """The size metric the scale harness charts: emitted statements
    (every declaration, assignment, call, and component operation ends
    in exactly one ``;`` — braces and headers carry none)."""
    return source.count(";")


def _proc_ops(
    rng: random.Random, count: int, sets: List[str], indent: str = "    "
) -> List[str]:
    """``count`` seeded component operations over fresh local iterators."""
    lines: List[str] = []
    iters: List[str] = []
    for index in range(count):
        kind = rng.randrange(5) if iters else 0
        if kind == 0:
            name = f"t{len(iters)}"
            iters.append(name)
            lines.append(
                f"{indent}Iterator {name} = {rng.choice(sets)}.iterator();"
            )
        elif kind == 1:
            lines.append(f"{indent}if (?) {{ {rng.choice(iters)}.next(); }}")
        elif kind == 2:
            lines.append(
                f"{indent}{rng.choice(iters)} = "
                f"{rng.choice(sets)}.iterator();"
            )
        elif kind == 3:
            lines.append(
                f"{indent}if (?) {{ {rng.choice(iters)}.remove(); }}"
            )
        else:
            lines.append(f'{indent}{rng.choice(sets)}.add("x");')
    return lines


def make_deep_calls(target_stmts: int, seed: int = 0) -> str:
    """A deep chain of small procedures ending in a mutation.

    Sweeps call-graph depth: roughly ``target/9`` procedures of eight
    local operations each, every one calling the next under a branch, so
    the tabulation must thread one summary per level back to ``main``'s
    live iterator.
    """
    rng = random.Random(("deep-calls", seed).__repr__())
    per_proc = 9  # eight body statements + the forwarding call
    depth = max(1, (max(0, target_stmts - 5) + per_proc // 2) // per_proc)
    lines = [
        "class Main {",
        "  static Set g;",
        "  static void main() {",
        "    g = new Set();",
        "    Iterator i = g.iterator();",
        "    p0();",
        "    if (?) { i.next(); }",
        "  }",
    ]
    for level in range(depth):
        lines.append(f"  static void p{level}() {{")
        lines.extend(_proc_ops(rng, per_proc - 1, ["g"]))
        if level + 1 < depth:
            lines.append(f"    if (?) {{ p{level + 1}(); }}")
        else:
            lines.append('    if (?) { g.add("x"); }')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def make_wide_scc(target_stmts: int, seed: int = 0) -> str:
    """One wide mutually-recursive SCC with seeded chord calls.

    Every procedure calls its ring successor plus a random chord, so the
    whole call graph is a single strongly connected component: each
    summary update re-enters the tabulation worklist through its
    dependents, the stress case for summary convergence (and the case a
    persistent summary DB cannot pre-load — cycles fail the linear
    validity pass and are recomputed).
    """
    rng = random.Random(("wide-scc", seed).__repr__())
    per_proc = 8  # six body statements + ring call + chord call
    width = max(3, (max(0, target_stmts - 5) + per_proc // 2) // per_proc)
    lines = [
        "class Main {",
        "  static Set g;",
        "  static void main() {",
        "    g = new Set();",
        "    Iterator i = g.iterator();",
        "    p0();",
        "    if (?) { i.next(); }",
        "  }",
    ]
    for index in range(width):
        chord = rng.randrange(width)
        lines.append(f"  static void p{index}() {{")
        lines.extend(_proc_ops(rng, per_proc - 2, ["g"]))
        lines.append(f"    if (?) {{ p{(index + 1) % width}(); }}")
        lines.append(f"    if (?) {{ p{chord}(); }}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def make_heap_chain(target_stmts: int, seed: int = 0) -> str:
    """Heap-heavy allocation chains sized for the generic heap engines.

    Sequential allocation loops thread iterators through ``Holder``
    fields and link the holders into a list, then trailing reads race a
    mutation — the client is *not* shallow, so it exercises the TVLA and
    allocation-site pipelines rather than interproc.
    """
    rng = random.Random(("heap-chain", seed).__repr__())
    num_sets = 3
    per_loop = 6  # holder alloc + two field aims + link + rotate + add
    loops = max(1, (max(0, target_stmts - 12) + per_loop // 2) // per_loop)
    lines = [
        "class Holder { Iterator it0; Iterator it1; Holder tail; "
        "Holder() { } }",
        "class Main {",
        "  static void main() {",
    ]
    sets = [f"v{i}" for i in range(num_sets)]
    for name in sets:
        lines.append(f"    Set {name} = new Set();")
    lines.append("    Holder last = new Holder();")
    for loop in range(loops):
        a = rng.choice(sets)
        b = rng.choice(sets)
        lines.append("    while (?) {")
        lines.append(f"      Holder h{loop} = new Holder();")
        lines.append(f"      h{loop}.it0 = {a}.iterator();")
        lines.append(f"      h{loop}.it1 = {b}.iterator();")
        lines.append(f"      h{loop}.tail = last;")
        lines.append(f"      last = h{loop};")
        lines.append("    }")
        if loop % 4 == 3:
            lines.append(f'    {rng.choice(sets)}.add("x");')
    lines.append("    Iterator j0 = last.it0;")
    lines.append("    if (?) { j0.next(); }")
    lines.append(f'    {sets[0]}.add("x");')
    lines.append("    if (?) { j0.next(); }")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def make_shared_library(
    target_stmts: int,
    seed: int = 0,
    client_seed: Optional[int] = None,
) -> str:
    """A library DAG of procedures plus many small seeded callers.

    The library section (≈60% of the statements: procedures ``lib0…``
    forming a seeded acyclic call DAG over one shared static) depends
    only on ``seed``; the caller section (``c0…``, each running a couple
    of operations and calling into the library) additionally varies with
    ``client_seed``.  Two clients generated with the same ``seed`` and
    different ``client_seed`` therefore share every library procedure
    byte-for-byte — the workload where a persistent interprocedural
    summary DB pays for each library summary once across a whole batch.
    """
    if client_seed is None:
        client_seed = seed
    lib_rng = random.Random(("shared-library", seed).__repr__())
    client_rng = random.Random(
        ("shared-library-client", seed, client_seed).__repr__()
    )
    lib_budget = max(1, (target_stmts * 3) // 5)
    per_lib = 8  # six body statements + up to two DAG calls
    num_lib = max(1, (lib_budget + per_lib // 2) // per_lib)
    per_caller = 5  # three local statements + two library calls
    num_callers = max(
        1,
        (max(0, target_stmts - num_lib * per_lib - 3) + per_caller // 2)
        // per_caller,
    )
    lines = [
        "class Main {",
        "  static Set g;",
    ]
    # library: an acyclic call DAG (libK only calls libJ with J > K, so
    # summaries validate bottom-up with no cycles)
    lib_bodies: List[List[str]] = []
    for index in range(num_lib):
        body = [f"  static void lib{index}() {{"]
        callees = []
        if index + 1 < num_lib:
            callees.append(index + 1 + lib_rng.randrange(num_lib - index - 1))
            if lib_rng.random() < 0.5:
                callees.append(
                    index + 1 + lib_rng.randrange(num_lib - index - 1)
                )
        # the operation block sits inside a loop: the cold fixpoint must
        # iterate the body to saturation while the summary-DB warm path
        # replays the stored fixpoint in one linear pass — the gap the
        # warm/cold CI gate measures
        body.append("    while (?) {")
        body.extend(
            _proc_ops(
                lib_rng, per_lib - len(callees), ["g"], indent="      "
            )
        )
        body.append("    }")
        for callee in callees:
            body.append(f"    if (?) {{ lib{callee}(); }}")
        body.append("  }")
        lib_bodies.append(body)
    # callers: small seeded bodies over the same static, each entering
    # the library at a couple of seeded points.  Callers are threaded
    # into a handful of chains (caller k forwards to k+1) instead of all
    # being invoked from main: a single method with O(callers) call
    # sites would be re-analyzed on every summary wave and turn the
    # tabulation quadratic in client size
    groups = min(16, num_callers)
    caller_bodies: List[List[str]] = []
    for index in range(num_callers):
        body = [f"  static void c{index}() {{"]
        body.extend(_proc_ops(client_rng, per_caller - 2, ["g"]))
        body.append(
            f"    if (?) {{ lib{client_rng.randrange(num_lib)}(); }}"
        )
        successor = index + groups
        if successor < num_callers:
            body.append(f"    if (?) {{ c{successor}(); }}")
        else:
            body.append(
                f"    if (?) {{ lib{client_rng.randrange(num_lib)}(); }}"
            )
        body.append("  }")
        caller_bodies.append(body)
    lines.append("  static void main() {")
    lines.append("    g = new Set();")
    lines.append("    Iterator i = g.iterator();")
    for index in range(groups):
        lines.append(f"    c{index}();")
    lines.append("    if (?) { i.next(); }")
    lines.append("  }")
    for body in lib_bodies + caller_bodies:
        lines.extend(body)
    lines.append("}")
    return "\n".join(lines)


#: family name -> generator(target_stmts, seed, **kwargs)
SCALE_FAMILIES: Dict[str, Callable[..., str]] = {
    "deep-calls": make_deep_calls,
    "wide-scc": make_wide_scc,
    "heap-chain": make_heap_chain,
    "shared-library": make_shared_library,
}
