"""Exact, assumption-free d.i.m. search used as ground truth.

A branching search over the first undominated edge; the tests
cross-check it against a filter over all edge subsets
(`tests/shapes.py`).  No structural theory is used here on purpose; the
code must stay simple enough to be obviously correct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graph import Graph, DimCertificate, GraphInputError, edge_key

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Search aborted after exceeding the configured node budget."""


@dataclass
class OracleReport:
    exists: bool
    witness: DimCertificate | None = None


def _search(g: Graph, budget: int, collect: list | None):
    """Branch on a dominator for the first undominated edge.

    Every partial solution kept is an induced matching (pairwise edge
    distance at least 2), so no edge is ever dominated twice; a leaf with
    no undominated edge is therefore a d.i.m.  An edge is dominated when
    it meets a covered vertex, an end of a chosen edge, and each node
    resumes the scan for the first undominated edge after its parent's
    target, so a root-to-leaf path reads each edge about once.  Returns
    a witness edge set or None; fills `collect` with all solutions when
    given.  A budget below 1 raises GraphInputError.  The search recurses
    once per chosen edge, so one deeper than the interpreter's recursion
    limit raises BudgetExceeded too.  Its state is passed down to the
    module-level `_branch`, so no call leaves a reference cycle, and all
    of its memory is freed on return.
    """
    if budget < 1:
        raise GraphInputError(
            f"oracle budget must be at least 1, got {budget}")
    try:
        return _branch(g, budget, collect, [], set(), [0], 0)
    except RecursionError:
        raise BudgetExceeded("oracle search deeper than the recursion "
                             f"limit of {sys.getrecursionlimit()}") from None


def _branch(g: Graph, budget: int, collect: list | None,
            chosen: list, covered: set, nodes: list, start: int):
    """One node of `_search`: `chosen` holds the edges chosen on the path
    to it and `covered` their ends, `nodes[0]` counts the nodes visited,
    and the edges before `start` were dominated at the parent, and stay
    dominated, as `chosen` only grows along a path."""
    nodes[0] += 1
    if nodes[0] > budget:
        raise BudgetExceeded(f"oracle budget of {budget} nodes exceeded")
    edges = g.edges
    for i in range(start, len(edges)):
        u, v = edges[i]
        if u not in covered and v not in covered:
            break
    else:
        found = frozenset(chosen)
        if collect is None:
            return found
        collect.append(found)
        return None
    adj, adjset = g.adj, g.adjset
    cands = []
    for w in adj[u]:
        cands.append(edge_key(u, w))
    for w in adj[v]:
        f = edge_key(v, w)
        if f != (u, v):
            cands.append(f)
    for f in sorted(set(cands)):
        a, b = f
        # f meets or touches a chosen edge iff a covered vertex lies in
        # N(a) or N(b), which hold b and a
        if not (covered.isdisjoint(adjset[a])
                and covered.isdisjoint(adjset[b])):
            continue
        chosen.append(f)
        covered.update(f)
        hit = _branch(g, budget, collect, chosen, covered, nodes, i + 1)
        chosen.pop()
        # chosen edges are vertex-disjoint, so only f covered its ends
        covered.difference_update(f)
        if hit is not None:
            return hit
    return None


def brute_force_dim(g: Graph, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Exact d.i.m. existence, with the first d.i.m. found as witness."""
    hit = _search(g, budget, None)
    if hit is None:
        return OracleReport(False)
    return OracleReport(True, DimCertificate(hit))


def enumerate_dims(g: Graph, budget: int = DEFAULT_BUDGET) -> list[DimCertificate]:
    """All d.i.m.s of g in canonical sorted order.

    The branching search reaches each solution along exactly one path
    (the dominator of the first undominated edge is unique within a
    solution), so no dedup is needed.
    """
    acc: list[frozenset] = []
    _search(g, budget, acc)
    certs = [DimCertificate(s) for s in acc]
    certs.sort(key=lambda c: c.sorted_edges())
    return certs

