"""PC-stable skeleton discovery driven by any conditional-independence test.

Order-independent variant: at each level the adjacency sets are frozen before
any edge is touched, so removals within a level cannot influence which
conditioning sets other edges see.  Iteration order is deterministic
(lexicographic node pairs, sorted subsets), making results reproducible for
any deterministic CI test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations

from .errors import InputError, require_integer


@dataclass
class Skeleton:
    nodes: tuple[str, ...]
    edges: set[tuple[str, str]]  # sorted pairs
    separating_sets: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)


def pc_stable_skeleton(dataset, ci_test, max_level: int | None = None) -> Skeleton:
    """Level-wise edge removal over the complete graph on the dataset's variables.

    ``dataset`` is anything with a ``names`` attribute (or an iterable of
    names); it is handed through to ``ci_test(dataset, a, b, cond)`` verbatim.
    At level l, each remaining edge (A,B) is tested against all size-l subsets
    of the frozen adj(A)\\{B} and adj(B)\\{A} (duplicates tested once) and is
    removed on the first independence verdict, recording the separating set.
    ``max_level`` (default: no limit) is the largest conditioning-set size tested.
    """
    names = list(dataset.names) if hasattr(dataset, "names") else list(dataset)
    if len(names) < 2:
        raise InputError("need at least two variables")
    if len(set(names)) != len(names):
        raise InputError("variable names must be unique")
    if max_level is not None:
        require_integer("max_level", max_level)
        if max_level < 0:
            raise InputError(f"max_level must be >= 0, got {max_level}")
    nodes = tuple(sorted(names))

    adj: dict[str, set[str]] = {a: set(nodes) - {a} for a in nodes}
    sepsets: dict[tuple[str, str], tuple[str, ...]] = {}

    level = 0
    while max_level is None or level <= max_level:
        frozen = {a: sorted(adj[a]) for a in nodes}
        searched = False  # whether some edge had a size-l subset to test
        for a, b in combinations(nodes, 2):
            if b not in adj[a]:
                continue
            sides = ([v for v in frozen[a] if v != b], [v for v in frozen[b] if v != a])
            tested: set[tuple[str, ...]] = set()
            for cond in chain.from_iterable(combinations(side, level) for side in sides):
                searched = True
                if cond in tested:
                    continue
                tested.add(cond)
                if ci_test(dataset, a, b, cond):
                    adj[a].discard(b)
                    adj[b].discard(a)
                    sepsets[(a, b)] = cond
                    break
        if not searched:
            break
        level += 1

    edges = {(a, b) for a, b in combinations(nodes, 2) if b in adj[a]}
    return Skeleton(nodes=nodes, edges=edges, separating_sets=sepsets)


def precision_recall(found: set[tuple[str, str]], truth: set[tuple[str, str]]) -> tuple[float, float]:
    """Edge precision and recall of a recovered skeleton against the true one."""
    found = {tuple(sorted(e)) for e in found}
    truth = {tuple(sorted(e)) for e in truth}
    hit = len(found & truth)
    precision = hit / len(found) if found else 1.0
    recall = hit / len(truth) if truth else 1.0
    return precision, recall
