"""Dominating induced matching decision and construction.

A d.i.m. dominates every edge exactly once, so the exact search branches
on one of two constraints, in a strict hierarchy.  An edge vw must be
dominated: `solve` preprocesses and runs the covering node `_cover` on
each live component, which takes an undecided vertex v of least live
degree and its live neighbor w of least live degree, and branches on the
live edges at v or at w.  A covering child matches its edge and
propagates, which forces only what every d.i.m. through the edge holds,
then completes each connected part of the undecided vertices with the
mate search `constrained_subsolver`.  Each such part holds an unmated
black, which needs exactly one mate, so the mate search branches on the
mates of the one with the fewest candidates and never needs a covering
node of its own; a `none` is exact on every graph.  `solve(g, xy=...)`
gives the node of xy's component the one child xy.  Preprocessing
settles false twins (vertices with the same neighbors), so no two live
vertices are twins, and no two choices at a node are swapped by an
automorphism.  The mate search's nodes over one call of `solve` share a
budget; running over it answers `hypothesis-violated`.  Produced
certificates are always verified against the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (Graph, DimCertificate, GraphInputError,
                    connected_components, edge_key, verify_dim_report)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, assign,
                       preprocess, propagate)

FOUND, NONE, HYPOTHESIS_VIOLATED = "found", "none", "hypothesis-violated"

# the default node budget of the exact subsolver, per vertex of the graph
NODES_PER_VERTEX = 50


class HypothesisViolation(Exception):
    """The exact subsolver ran over its node budget: the call cannot be
    decided within it."""


@dataclass
class SolveStats:
    xy_tried: int = 0
    parts: int = 0              # undecided parts handed to the subsolver
    subsolver_nodes: int = 0    # nodes visited by constrained_subsolver


@dataclass
class SolveOutcome:
    status: str
    certificate: DimCertificate | None = None
    detail: str = ""
    stats: SolveStats = field(default_factory=SolveStats)


def constrained_subsolver(g: Graph, state: ColoringState, within,
                          stats: SolveStats | None = None,
                          budget: int | None = None) -> ColoringState | None:
    """Exact completion of the undecided part `within` of a propagated
    state, fail first: propagate, then branch on the mate of the unmated
    black with the fewest candidates (unknown neighbors), one child per
    candidate in id order.  Its mate must be one of them, and mating one
    whitens the others, so the children are exhaustive and disjoint:
    exact on every graph, exponential in the worst case, hence the budget.

    `within` is an undecided part as `_cover` hands it: a connected part
    of the undecided vertices (unknown, or an unmated black) of a
    propagated state colored through `assign`, holding an unmated black.
    With no black of `within` unmated the part is complete: an unknown
    vertex has no white neighbor (rule (a)) and no mated black neighbor,
    so unknowns with no unmated black beside them would form a whole
    component of `g`, which would hold the part's black too.  An unknown
    vertex of `within` with a neighbor at that leaf breaks this contract
    and raises ValueError.  The tree is walked on `state` itself, each
    child undoing the trail to its parent's mark: the call returns
    `state` completed, or None with `state` undone to its input (over
    the budget, the caller undoes).  `stats.subsolver_nodes` counts the
    nodes visited, and a count past `budget` raises HypothesisViolation."""
    if state.contradiction is not None:
        return None
    stats = SolveStats() if stats is None else stats
    scope = tuple(within)
    adj, color, mate = g.adj, state.color, state.mate
    root = state.mark()
    stack = [(root, -1)]        # (parent's mark, mate candidate)
    while stack:
        mark, v = stack.pop()
        if v >= 0:
            state.undo(mark)
            assign(state, v, BLACK)
        stats.subsolver_nodes += 1
        if budget is not None and stats.subsolver_nodes > budget:
            raise HypothesisViolation(
                f"exact search over its budget of {budget} nodes")
        if not propagate(g, state):
            continue
        cands = None
        for v in scope:
            if color[v] == BLACK and mate[v] < 0:
                options = [w for w in adj[v] if color[w] == UNKNOWN]
                if cands is None or len(options) < len(cands):
                    cands = options
                    if len(options) <= 2:   # propagate leaves no fewer
                        break
        if cands is not None:
            mark = state.mark()         # each child undoes to here
            stack += [(mark, w) for w in reversed(cands)]
            continue
        for v in scope:
            if color[v] == UNKNOWN and adj[v]:
                raise ValueError(
                    f"vertex {v} is unknown with no unmated black in its "
                    "part: the subsolver completes an undecided part of a "
                    "propagated state, colored through `assign`")
        return state
    state.undo(root)
    return None


def _undecided_parts(g: Graph, state: ColoringState, scope
                     ) -> list[tuple[int, ...]]:
    """The undecided vertices of `scope` (unknown, or an unmated black),
    split into the connected parts they induce, each in id order.  In a
    propagated state every live neighbor of an undecided vertex is
    undecided too (a white has left the working graph, and a mated black
    has whitened its other neighbors), so no constraint joins two parts,
    and each completes independently of the others."""
    color, mate = state.color, state.mate
    return connected_components(g, within=[
        v for v in scope if mate[v] < 0 and color[v] != WHITE])


def _covering_edges(g: Graph, state: ColoringState, scope
                    ) -> list[tuple[int, int]]:
    """The live edges at v or at w, for an undecided vertex v of `scope`
    of least positive live degree and its live neighbor w of least live
    degree, or [] when no undecided vertex has a live neighbor, which in
    a propagated state means that no black is unmated and no edge joins
    two unknowns.  The edge vw must be dominated, so every d.i.m.
    matches one of these edges.  v is the first in id order; the scan
    stops at live degree 1.  An unknown vertex of a propagated state has
    no white neighbor (rule (a)), so its live degree is its degree."""
    adj, color, mate = g.adj, state.color, state.mate
    v, least = -1, g.n
    for u in scope:
        c = color[u]
        if c == UNKNOWN:
            d = len(adj[u])
        elif c == BLACK and mate[u] < 0:
            d = sum(color[t] != WHITE for t in adj[u])
        else:
            continue
        if 0 < d < least:
            v, least = u, d
            if d == 1:
                break
    if v < 0:
        return []
    w = min((t for t in adj[v] if color[t] != WHITE),
            key=lambda t: (sum(color[x] != WHITE for x in adj[t]), t))
    return sorted({edge_key(a, t) for a in (v, w) for t in adj[a]
                   if color[t] != WHITE})


def _cover(g: Graph, state: ColoringState, scope, stats: SolveStats,
           budget: int | None, xy=None) -> bool:
    """Whether the undecided vertices of `scope`, a live component of a
    propagated state, complete: True at once when there is no covering
    edge (a live xy is then matched), else one child on `state` per
    covering edge, or only xy when given (live: `solve` rules out a
    white end).  A child colors both ends black, propagates, and
    completes each undecided part of `scope` with the subsolver, in id
    order up to one that fails.  Unknowns alone would form a whole
    component of `g`, as `constrained_subsolver` argues, but `scope` is
    connected and holds the matched ends, so each part holds an unmated
    black.  True at the first child that completes, which keeps its
    changes; the others are undone, so each edge is live when its child
    starts.  A child over `budget` does not end its siblings: when none
    completes, False if each failed, else HypothesisViolation."""
    edges = _covering_edges(g, state, scope)
    if not edges:
        return True
    over_budget, mark = "", state.mark()
    for (u, v) in edges if xy is None else [xy]:
        stats.xy_tried += 1
        assign(state, u, BLACK)
        assign(state, v, BLACK)
        try:
            if propagate(g, state):
                for part in _undecided_parts(g, state, scope):
                    stats.parts += 1
                    if constrained_subsolver(g, state, part, stats=stats,
                                             budget=budget) is None:
                        break
                else:
                    return True
        except HypothesisViolation as hv:
            over_budget = str(hv)
        state.undo(mark)
    if over_budget:
        raise HypothesisViolation(over_budget)
    return False


def solve(g: Graph, budget: int | None = None,
          xy: tuple[int, int] | None = None) -> SolveOutcome:
    """Decide whether the graph has a dominating induced matching and
    construct one when it does; given the edge `xy`, decide whether it
    has one that matches xy.

    A "found" answer is always certified against the input graph (and
    matches xy when given), and a "none" answer is exact on every graph.
    With `xy`, preprocessing runs first, the component of xy is solved
    with xy matched, and the other components are solved normally.  The
    exact subsolver may visit at most `budget` nodes over the whole call
    (NODES_PER_VERTEX per vertex by default); past that the answer is
    "hypothesis-violated".  Raises GraphInputError if xy is no edge.
    """
    stats = SolveStats()
    if xy is not None:
        u, v = xy
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise GraphInputError(f"xy ({u}, {v}) is not an edge")
        xy = edge_key(u, v)
    if g.m == 0:
        return SolveOutcome(FOUND, DimCertificate(), stats=stats)
    budget = NODES_PER_VERTEX * g.n if budget is None else budget
    state = preprocess(g, xy)
    if state.contradiction is not None:
        return SolveOutcome(NONE, detail=state.contradiction, stats=stats)
    if xy is not None and WHITE in (state.color[u], state.color[v]):
        return SolveOutcome(NONE, detail=f"preprocessing rules out {xy}",
                            stats=stats)
    over_budget = ""
    for comp in connected_components(g, state.live_mask()):
        try:
            if not _cover(g, state, comp, stats, budget,
                          xy if xy is not None and u in comp else None):
                return SolveOutcome(
                    NONE, detail="every candidate edge was exhausted",
                    stats=stats)
        except HypothesisViolation as hv:
            over_budget = str(hv)
    if over_budget:
        return SolveOutcome(HYPOTHESIS_VIOLATED, detail=over_budget,
                            stats=stats)
    cert = DimCertificate(frozenset(state.mate_pairs()))
    ok, why = verify_dim_report(g, cert)
    if ok and xy is not None and xy not in cert.edges:
        ok, why = False, f"{xy} is not matched"
    if not ok:
        raise AssertionError(f"internal error: certificate rejected: {why}")
    return SolveOutcome(FOUND, cert, stats=stats)
