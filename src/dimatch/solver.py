"""Dominating induced matching decision and construction.

Per component: global pattern reductions, then one branch per covering
edge.  For a live vertex v of least live degree and its live neighbor w
of least live degree, the edge vw must be dominated, so every solution
matches an edge at v or at w: at most deg(v) + deg(w) - 1 branches.
Each xy branch assumes xy matched and propagates: propagation only
forces what every d.i.m. through xy holds, on every graph.  The branch
then splits the undecided vertices into connected parts and completes
each with the exact fail-first subsolver, so a branch's None, and the
covering edges' `none`, are exact on every graph.  `solve(g, xy=...)`
runs the same driver with the one branch on xy in place of the covering
edges of xy's component.  Both searches skip a choice whose false twin
(a vertex with the same neighbors) already failed in its place: swapping
two unmated false twins of one color is an automorphism that fixes the
coloring, so only failing branches are skipped, and the first success
and its certificate are those of the full search.  The subsolver's
nodes over one call share a budget; running over it answers
`hypothesis-violated` (the CLI names an induced S_{1,1,5} as the witness
under --strict).  Produced certificates are always verified against the
original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (Graph, DimCertificate, connected_components, edge_key,
                    verify_dim_report)
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
    twin_skips: int = 0         # covering edges and mate candidates skipped


@dataclass
class SolveOutcome:
    status: str
    certificate: DimCertificate | None = None
    detail: str = ""
    stats: SolveStats = field(default_factory=SolveStats)


def _needs_nothing(g: Graph, state: ColoringState, comp) -> bool:
    """True when whitening the remaining unknowns completes the component:
    no unknown-unknown edge and no unmated black."""
    color, mate = state.color, state.mate
    for v in comp:
        if color[v] == BLACK and mate[v] < 0:
            return False
        if color[v] == UNKNOWN:
            for w in g.adj[v]:
                if w > v and color[w] == UNKNOWN:
                    return False
    return True


def constrained_subsolver(g: Graph, state: ColoringState, within=None,
                          stats: SolveStats | None = None,
                          budget: int | None = None) -> ColoringState | None:
    """Exact completion search, fail first: propagate, then branch on
    the mate of the unmated black with the fewest candidates (unknown
    neighbors), one child per candidate in id order.  Its mate
    must be one of them, so the children are exhaustive, and mating one
    whitens the others, so they are disjoint.  A candidate is popped only
    once its earlier siblings' subtrees failed, so one with the same
    neighbors as an earlier sibling, its false twin, is skipped.
    With no unmated black left, the first unknown vertex is branched,
    white first; with no unknown either, the state is complete.  Correct
    on every graph; exponential in the worst case, hence the budget.
    The tree is walked on `state` itself, each child undoing the trail to
    its parent's mark: the call returns `state` completed, or None with
    `state` undone to its input (over the budget, the caller undoes).
    `within` limits the completion to a set of vertices that no
    constraint ties to the rest, such as a component or an undecided
    part; `stats.subsolver_nodes` counts the nodes visited, and a count past
    `budget` raises HypothesisViolation."""
    if state.contradiction is not None:
        return None
    scope = tuple(within) if within is not None else tuple(range(g.n))
    adj, adjset, color, mate = g.adj, g.adjset, state.color, state.mate
    root = state.mark()
    # (parent's mark, vertex, color, tried): the mate candidates of one
    # parent share `tried`, the neighborhoods of those popped so far
    stack = [(root, -1, UNKNOWN, None)]
    while stack:
        mark, v, c, tried = stack.pop()
        if tried is not None:
            if adjset[v] in tried:      # a false twin's subtree failed
                if stats is not None:
                    stats.twin_skips += 1
                continue
            tried.add(adjset[v])
        if v >= 0:
            state.undo(mark)
            assign(state, v, c)
        if stats is not None:
            stats.subsolver_nodes += 1
            if budget is not None and stats.subsolver_nodes > budget:
                raise HypothesisViolation(
                    f"exact search over its budget of {budget} nodes")
        if not propagate(g, state):
            continue
        first_unknown, cands = -1, None
        for v in scope:
            c = color[v]
            if c == UNKNOWN:
                if first_unknown < 0:
                    first_unknown = v
            elif c == BLACK and mate[v] < 0:
                options = [w for w in adj[v] if color[w] == UNKNOWN]
                if cands is None or len(options) < len(cands):
                    cands = options
                    if len(options) <= 2:   # propagate leaves no fewer
                        break
        mark = state.mark()     # each child undoes the trail to here
        if cands is not None:
            tried = set()
            stack += [(mark, w, BLACK, tried) for w in reversed(cands)]
        elif first_unknown >= 0:        # white is tried first
            stack += [(mark, first_unknown, c, None) for c in (BLACK, WHITE)]
        else:
            return state
    state.undo(root)
    return None


# -- per-xy and per-component drivers --------------------------------------

def _undecided_parts(g: Graph, state: ColoringState, comp
                     ) -> list[list[int]]:
    """The undecided vertices of `comp` (unknown, or an unmated black),
    split into the connected parts they induce, each in id order.  In a
    propagated state every live neighbor of an undecided vertex is
    undecided too (a white has left the working graph, and a mated black
    has whitened its other neighbors), so no constraint joins two parts,
    and each completes independently of the others."""
    adj, color, mate = g.adj, state.color, state.mate
    undecided = [v for v in comp if mate[v] < 0 and color[v] != WHITE]
    if not undecided:
        return []
    label = dict.fromkeys(undecided, -1)    # -1 until v's part is known
    count = 0
    for s in undecided:
        if label[s] >= 0:
            continue
        label[s] = count
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if label.get(w) == -1:
                    label[w] = count
                    stack.append(w)
        count += 1
    parts: list[list[int]] = [[] for _ in range(count)]
    for v in undecided:
        parts[label[v]].append(v)
    return parts


def _solve_xy_branch(g: Graph, base: ColoringState, comp,
                     xy: tuple[int, int], stats: SolveStats,
                     budget: int | None = None) -> bool:
    """Whether a d.i.m. matches xy: propagation forces only what every
    such d.i.m. holds and the exact search completes each undecided part,
    so False is exact on every graph.  On True `base` holds one on `comp`;
    on False or HypothesisViolation the caller undoes the branch."""
    x, y = xy
    assign(base, x, BLACK)
    assign(base, y, BLACK)
    if not propagate(g, base):
        return False
    for part in _undecided_parts(g, base, comp):
        stats.parts += 1
        if constrained_subsolver(g, base, within=part, stats=stats,
                                 budget=budget) is None:
            return False
    return True


def _covering_edges(g: Graph, state: ColoringState, comp
                    ) -> list[tuple[int, int]]:
    """The live edges at v or at w, for a live vertex v of least live
    degree and its live neighbor w of least live degree.  The edge vw must
    be dominated, so every d.i.m. matches one of these edges.  v is the
    first of least live degree in id order; the scan stops at live degree
    1, which no vertex of a component with an edge undercuts."""
    adj, color = g.adj, state.color
    v, least = -1, g.n
    for u in comp:
        d = 0
        for t in adj[u]:
            if color[t] != WHITE:
                d += 1
        if d < least:
            v, least = u, d
            if d <= 1:
                break
    w = min((t for t in adj[v] if color[t] != WHITE),
            key=lambda t: (sum(color[x] != WHITE for x in adj[t]), t))
    return sorted({edge_key(a, t) for a in (v, w) for t in adj[a]
                   if color[t] != WHITE})


def _twin_class(g: Graph, state: ColoringState, v: int):
    """v's class under false-twin swaps: its neighborhood and color when
    unmated, else v itself.  Swapping two unmated false twins of one color
    is an automorphism of g that maps `state` onto itself."""
    return (g.adjset[v], state.color[v]) if state.mate[v] < 0 else v


def _solve_component(g: Graph, base: ColoringState, comp, stats: SolveStats,
                     budget: int, xy=None) -> tuple[str, str]:
    """(status, detail) of one live component: found when it needs
    nothing (a live xy is then already matched), else by one branch on
    `base` per edge of [xy] when given (live: `solve` rules out a white
    end), else of the covering edges: found at the first that finds a
    d.i.m. and keeps its changes (no other component shares a vertex with
    `comp`), none when each ended without one, hypothesis-violated when
    some ran over `budget`; others undone, so each edge is live when its
    branch starts.  An edge whose ends' twin classes match those of an
    edge that failed is skipped (the ends of an edge are adjacent, so
    never twins of each other); one over the budget is not recorded."""
    if _needs_nothing(g, base, comp):
        return FOUND, ""
    edges = [xy] if xy is not None else _covering_edges(g, base, comp)
    over_budget, mark, failed = "", base.mark(), set()
    for (u, v) in edges:
        key = frozenset((_twin_class(g, base, u), _twin_class(g, base, v)))
        if key in failed:
            stats.twin_skips += 1
            continue
        stats.xy_tried += 1
        try:
            if _solve_xy_branch(g, base, comp, (u, v), stats, budget):
                return FOUND, ""
            failed.add(key)
        except HypothesisViolation as hv:
            over_budget = str(hv)
        base.undo(mark)
    if over_budget:
        return HYPOTHESIS_VIOLATED, over_budget
    return NONE, "every candidate edge was exhausted"


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
    "hypothesis-violated".  Raises ValueError when xy is not an edge.
    """
    stats = SolveStats()
    if xy is not None:
        u, v = xy
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise ValueError(f"xy ({u}, {v}) is not an edge")
        xy = edge_key(u, v)
    if g.m == 0:
        return SolveOutcome(FOUND, DimCertificate(), stats=stats)
    budget = NODES_PER_VERTEX * g.n if budget is None else budget
    state = preprocess(g)
    if state.contradiction is not None:
        return SolveOutcome(NONE, detail=state.contradiction, stats=stats)
    if xy is not None and WHITE in (state.color[u], state.color[v]):
        return SolveOutcome(NONE, detail=f"preprocessing rules out {xy}",
                            stats=stats)
    over_budget = ""
    for comp in connected_components(g, state.live_mask()):
        status, detail = _solve_component(
            g, state, comp, stats, budget,
            xy if xy is not None and u in comp else None)
        if status == NONE:
            return SolveOutcome(NONE, detail=detail, stats=stats)
        if status == HYPOTHESIS_VIOLATED:
            over_budget = detail
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
