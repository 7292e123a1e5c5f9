"""Exact, assumption-free d.i.m. search used as ground truth.

Two independent implementations cross-check each other: a branching
search over the first undominated edge, and a filter over all edge
subsets.  No structural theory is used here on purpose; the code must
stay simple enough to be obviously correct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .graph import Graph, DimCertificate, edge_key, verify_dim

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Search aborted after exceeding the configured node budget."""


@dataclass
class OracleReport:
    exists: bool
    witness: DimCertificate | None = None
    count: int | None = None


def _search(g: Graph, budget: int, collect: list | None):
    """Branch on a dominator for the first undominated edge.

    Every partial solution kept is an induced matching (pairwise edge
    distance at least 2), so no edge is ever dominated twice; a leaf with
    no undominated edge is therefore a d.i.m.  Returns a witness edge set
    or None; fills `collect` with all solutions when given.  A budget
    below 1 raises ValueError.  The search recurses once per chosen
    edge, so one deeper than the interpreter's recursion limit raises
    BudgetExceeded too.
    """
    if budget < 1:
        raise ValueError(f"oracle budget must be at least 1, got {budget}")
    edges = g.edges
    nodes = 0

    def blocked(f: tuple[int, int], chosen: list[tuple[int, int]]) -> bool:
        a, b = f
        for (u, v) in chosen:
            if a == u or a == v or b == u or b == v:
                return True
            if g.has_edge(a, u) or g.has_edge(a, v) or \
                    g.has_edge(b, u) or g.has_edge(b, v):
                return True
        return False

    def dominated(e: tuple[int, int], chosen: list[tuple[int, int]]) -> bool:
        u, v = e
        for (a, b) in chosen:
            if u == a or u == b or v == a or v == b:
                return True
        return False

    def rec(chosen: list[tuple[int, int]]):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"oracle budget of {budget} nodes exceeded")
        target = None
        for e in edges:
            if not dominated(e, chosen):
                target = e
                break
        if target is None:
            found = frozenset(chosen)
            if collect is None:
                return found
            collect.append(found)
            return None
        u, v = target
        cands = []
        for w in g.adj[u]:
            cands.append(edge_key(u, w))
        for w in g.adj[v]:
            f = edge_key(v, w)
            if f != target:
                cands.append(f)
        for f in sorted(set(cands)):
            if blocked(f, chosen):
                continue
            chosen.append(f)
            hit = rec(chosen)
            chosen.pop()
            if hit is not None:
                return hit
        return None

    try:
        return rec([])
    except RecursionError:
        raise BudgetExceeded("oracle search deeper than the recursion "
                             f"limit of {sys.getrecursionlimit()}") from None


def brute_force_dim(g: Graph, budget: int = DEFAULT_BUDGET,
                    count: bool = False) -> OracleReport:
    """Exact d.i.m. existence (and optionally the number of solutions)."""
    if count:
        sols = enumerate_dims(g, budget=budget)
        witness = sols[0] if sols else None
        return OracleReport(bool(sols), witness, len(sols))
    hit = _search(g, budget, None)
    if hit is None:
        return OracleReport(False, None, None)
    return OracleReport(True, DimCertificate(hit), None)


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


def dims_by_subset_filter(g: Graph, max_edges: int = 18) -> list[DimCertificate]:
    """Second, dumber oracle: filter every subset of the edge list."""
    if g.m > max_edges:
        raise ValueError(f"subset filter limited to {max_edges} edges, graph has {g.m}")
    out = []
    for mask in range(1 << g.m):
        subset = [g.edges[i] for i in range(g.m) if mask >> i & 1]
        try:
            cert = DimCertificate(frozenset(subset))
        except ValueError:
            continue
        if verify_dim(g, cert):
            out.append(cert)
    out.sort(key=lambda c: c.sorted_edges())
    return out
