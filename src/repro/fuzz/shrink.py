"""Delta-debugging shrinker for failing fuzz programs.

Generated clients are line-structured (one statement or block delimiter
per line), so shrinking works on *balanced line regions*: any single
statement line, any brace-balanced block (removed whole), and any block
header/footer pair (the block is "unwrapped", keeping its body).  A
candidate edit is kept when the reduced source still parses and the
caller's predicate still holds — e.g. "engine X still misses an
oracle-failing site" or "fds and tvla still disagree".  The loop runs
largest-region-first to a fixpoint, which in practice turns a
30-statement reproducer into a handful of lines.

Shrunk reproducers are persisted with :func:`write_corpus_entry` as a
``.jl`` source plus a ``.json`` metadata record; the committed corpus in
``tests/corpus/`` is replayed by ``tests/test_corpus.py`` on every CI
run.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Tuple

from repro.lang.frontend import JliteParseError, check_syntax

Predicate = Callable[[str], bool]


def _still_interesting(source: str, predicate: Predicate) -> bool:
    """Parse-check then apply the caller's predicate, never raising."""
    try:
        check_syntax(source)
    except JliteParseError:
        return False
    try:
        return bool(predicate(source))
    except Exception:
        # a predicate crash on a reduced program is not "interesting
        # preserved" — reject the candidate
        return False


def _regions(lines: List[str]) -> List[Tuple[int, int]]:
    """All brace-balanced (start, end) line regions, innermost last."""
    regions: List[Tuple[int, int]] = []
    stack: List[int] = []
    for index, line in enumerate(lines):
        opens = line.count("{")
        closes = line.count("}")
        if opens and not closes:
            stack.append(index)
        elif closes and not opens and stack:
            regions.append((stack.pop(), index))
    return regions


def _candidates(lines: List[str]) -> List[List[int]]:
    """Deletion candidates: line-index sets, largest first.

    * whole blocks (header .. footer),
    * block unwraps (header + footer only, body kept),
    * single statement lines.
    """
    seen: set = set()
    out: List[List[int]] = []

    def add(indices: List[int]) -> None:
        key = tuple(indices)
        if indices and key not in seen:
            seen.add(key)
            out.append(indices)

    # malformed edits (dangling members, missing entry, unbalanced
    # braces) are rejected by the parse check in _still_interesting, so
    # candidates only need to be *plausible*: any balanced block may be
    # dropped whole (except the class body), and control blocks may be
    # unwrapped (header + footer removed, body kept)
    for start, end in sorted(
        _regions(lines), key=lambda r: r[1] - r[0], reverse=True
    ):
        header = lines[start].strip()
        if header.startswith("class "):
            continue
        add(list(range(start, end + 1)))  # drop the whole block
        if header.startswith(("if", "while", "for", "else")):
            add([start, end])  # unwrap: keep the body
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.endswith(";"):
            add([index])
    return out


def _delete(lines: List[str], indices: List[int]) -> str:
    doomed = set(indices)
    return "\n".join(
        line for i, line in enumerate(lines) if i not in doomed
    ) + "\n"


def shrink_source(
    source: str,
    predicate: Predicate,
    *,
    max_checks: int = 2_000,
) -> str:
    """Minimize ``source`` while ``predicate`` holds.

    ``predicate`` receives candidate source text and returns True when
    the interesting behaviour (a soundness miss, a crash, a specific
    disagreement) is still present.  The original source must satisfy
    the predicate; otherwise it is returned unchanged.
    """
    if not _still_interesting(source, predicate):
        return source
    current = source
    checks = 0
    changed = True
    while changed and checks < max_checks:
        changed = False
        lines = current.split("\n")
        for indices in _candidates(lines):
            if checks >= max_checks:
                break
            candidate = _delete(lines, indices)
            checks += 1
            if _still_interesting(candidate, predicate):
                current = candidate
                changed = True
                break  # re-derive candidates on the reduced program
    return current


# -- corpus persistence --------------------------------------------------------


def write_corpus_entry(
    corpus_dir: str,
    name: str,
    source: str,
    metadata: Dict[str, object],
) -> Tuple[str, str]:
    """Persist a shrunk reproducer as ``NAME.jl`` + ``NAME.json``.

    The metadata record must carry at least ``kind`` (``soundness`` /
    ``crash`` / ``disagreement`` / ``witness``) and ``spec``; the replay
    test (``tests/test_corpus.py``) asserts the soundness gate on every
    entry and pins per-engine alarm lines when ``expect_alarm_lines``
    is present.
    """
    os.makedirs(corpus_dir, exist_ok=True)
    source_path = os.path.join(corpus_dir, f"{name}.jl")
    meta_path = os.path.join(corpus_dir, f"{name}.json")
    with open(source_path, "w") as handle:
        handle.write(source)
    record = dict(metadata)
    record.setdefault("name", name)
    record["source_file"] = f"{name}.jl"
    with open(meta_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return source_path, meta_path


def load_corpus(corpus_dir: str) -> List[Dict[str, object]]:
    """Load every corpus entry (metadata + inlined source text)."""
    entries: List[Dict[str, object]] = []
    if not os.path.isdir(corpus_dir):
        return entries
    for filename in sorted(os.listdir(corpus_dir)):
        if not filename.endswith(".json"):
            continue
        meta_path = os.path.join(corpus_dir, filename)
        with open(meta_path) as handle:
            record = json.load(handle)
        source_file = record.get(
            "source_file", filename[: -len(".json")] + ".jl"
        )
        with open(os.path.join(corpus_dir, str(source_file))) as handle:
            record["source"] = handle.read()
        entries.append(record)
    return entries


def corpus_entry_name(seed: int, kind: str, existing: List[str]) -> str:
    """A stable, collision-free corpus entry name."""
    base = f"seed{seed:06d}_{kind}"
    name = base
    suffix = 1
    while name in existing:
        suffix += 1
        name = f"{base}_{suffix}"
    return name
