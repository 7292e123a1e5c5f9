"""Dominating induced matching decision and construction.

Per component: global pattern reductions, then one branch per covering
edge.  For a live vertex v of least live degree and its live neighbor w
of least live degree, the edge vw must be dominated, so every solution
matches an edge at v or at w: at most deg(v) + deg(w) - 1 branches.
Each xy branch assumes xy matched and settles: propagation only forces
what every d.i.m. through xy holds, on every graph.  The branch then
splits the undecided vertices into connected parts and completes each
with the exact fail-first subsolver, so a branch's None, and the
covering edges' `none`, are exact on every graph.  The subsolver's nodes
over one call share a budget; running over it answers
`hypothesis-violated`, and only then is the graph searched for an
induced S_{1,1,5} to name as the witness.  Produced certificates are
always verified against the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (Graph, DimCertificate, connected_components, edge_key,
                    verify_dim, verify_dim_report)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, assign,
                       preprocess, settle)
from . import patterns

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
    subsolver_nodes: int = 0    # nodes settled by constrained_subsolver


@dataclass
class SolveOutcome:
    status: str
    certificate: DimCertificate | None = None
    detail: str = ""
    witness: patterns.PatternWitness | None = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _comp_pairs(state: ColoringState, comp) -> set[tuple[int, int]]:
    mate = state.mate
    return {(v, mate[v]) for v in comp if v < mate[v]}


def _needs_nothing(g: Graph, state: ColoringState, comp) -> bool:
    """True when whitening the remaining unknowns completes the component:
    no live unknown-unknown edge and no live unmated black."""
    color, removed, mate = state.color, state.removed, state.mate
    for v in comp:
        if removed[v]:
            continue
        if color[v] == BLACK and mate[v] < 0:
            return False
        if color[v] == UNKNOWN:
            for w in g.adj[v]:
                if w > v and not removed[w] and color[w] == UNKNOWN:
                    return False
    return True


def constrained_subsolver(g: Graph, state: ColoringState, within=None,
                          stats: SolveStats | None = None,
                          budget: int | None = None) -> ColoringState | None:
    """Exact completion search, fail first: settle, then branch on the
    mate of the live unmated black with the fewest candidates (live
    unknown neighbors), one child per candidate in id order.  Its mate
    must be one of them, so the children are exhaustive, and mating one
    whitens the others, so they are disjoint.
    With no unmated black left, the first unknown vertex is branched,
    white first; with no unknown either, the state is complete.  Correct
    on every graph; exponential in the worst case, hence the budget.
    A child is cloned from its parent only when its turn comes, and the
    last sibling takes the parent itself, so the call consumes `state`.
    `within` limits the completion to a set of vertices that no
    constraint ties to the rest, such as a component or an undecided
    part; `stats.subsolver_nodes` counts the nodes settled, and a count past
    `budget` raises HypothesisViolation."""
    scope = tuple(within) if within is not None else tuple(range(g.n))
    adj = g.adj
    stack = [(state, -1, UNKNOWN, True)]    # (parent, vertex, color, last)
    while stack:
        st, v, c, last = stack.pop()
        if v >= 0:
            if not last:
                st = st.clone()
            assign(st, v, c)
        if stats is not None:
            stats.subsolver_nodes += 1
            if budget is not None and stats.subsolver_nodes > budget:
                raise HypothesisViolation(
                    f"exact search over its budget of {budget} nodes")
        if not settle(g, st):
            continue
        color, removed, mate = st.color, st.removed, st.mate
        first_unknown, cands = -1, None
        for v in scope:
            if removed[v]:
                continue
            c = color[v]
            if c == UNKNOWN:
                if first_unknown < 0:
                    first_unknown = v
            elif c == BLACK and mate[v] < 0:
                options = [w for w in adj[v]
                           if not removed[w] and color[w] == UNKNOWN]
                if cands is None or len(options) < len(cands):
                    cands = options
                    if len(options) <= 2:   # settle leaves no fewer than two
                        break
        if cands is not None:
            branches = [(w, BLACK) for w in reversed(cands)]
        elif first_unknown >= 0:        # white is tried first (popped last)
            branches = [(first_unknown, BLACK), (first_unknown, WHITE)]
        else:
            return st
        # the first pushed is popped last, after its siblings' subtrees
        stack += [(st, v, c, i == 0) for i, (v, c) in enumerate(branches)]
    return None


# -- per-xy and per-component drivers --------------------------------------

def _undecided_parts(g: Graph, state: ColoringState, comp
                     ) -> list[list[int]]:
    """The undecided vertices of `comp` (live, and unknown or an unmated
    black), split into the connected parts they induce, each in id order.
    In a settled state every live neighbor of an undecided vertex is
    undecided too (a white has left the working graph, and a mated black
    has whitened its other neighbors), so no constraint joins two parts,
    and each completes independently of the others."""
    adj, color, removed, mate = g.adj, state.color, state.removed, state.mate

    def undecided(v):
        return not removed[v] and mate[v] < 0 and color[v] != WHITE

    label: dict[int, int] = {}
    count = 0
    for s in comp:
        if s in label or not undecided(s):
            continue
        label[s] = count
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in label and undecided(w):
                    label[w] = count
                    stack.append(w)
        count += 1
    parts: list[list[int]] = [[] for _ in range(count)]
    for v in comp:
        if v in label:
            parts[label[v]].append(v)
    return parts


def _solve_with_xy_internal(g: Graph, base: ColoringState, comp,
                            xy: tuple[int, int], stats: SolveStats,
                            budget: int | None = None
                            ) -> set[tuple[int, int]] | None:
    """The pairs of `comp` in a d.i.m. that matches xy, or None when no
    d.i.m. does.  Propagation only forces what every such d.i.m. holds,
    and the exact search completes each undecided part, so None is exact
    on every graph."""
    x, y = xy
    state = base.clone()
    assign(state, x, BLACK)
    assign(state, y, BLACK)
    if not settle(g, state):
        return None
    for part in _undecided_parts(g, state, comp):
        stats.parts += 1
        state = constrained_subsolver(g, state, within=part, stats=stats,
                                      budget=budget)
        if state is None:
            return None
    return _comp_pairs(state, comp)


def _covering_edges(g: Graph, state: ColoringState, comp
                    ) -> list[tuple[int, int]]:
    """The live edges at v or at w, for a live vertex v of least live
    degree and its live neighbor w of least live degree.  The edge vw must
    be dominated, so every d.i.m. matches one of these edges.  v is the
    first of least live degree in id order; the scan stops at live degree
    1, which no vertex of a component with an edge undercuts."""
    adj, removed = g.adj, state.removed

    def live(u):
        return [t for t in adj[u] if not removed[t]]

    v, least = -1, g.n
    for u in comp:
        d = len(live(u))
        if d < least:
            v, least = u, d
            if d <= 1:
                break
    w = min(live(v), key=lambda t: (len(live(t)), t))
    return sorted({edge_key(a, t) for a in (v, w) for t in live(a)})


def _branch_on(g: Graph, base: ColoringState, comp, edges,
               stats: SolveStats, budget: int
               ) -> tuple[str, object]:
    """One xy branch per live, non-white edge of `edges`, in order.
    Returns (status, pairs-or-detail): found with the first branch's
    pairs, none when every branch ended without a d.i.m., and
    hypothesis-violated when none found one but some ran over `budget`."""
    removed, color = base.removed, base.color
    over_budget = ""
    for (u, v) in edges:
        if removed[u] or removed[v] or color[u] == WHITE or color[v] == WHITE:
            continue
        stats.xy_tried += 1
        try:
            pairs = _solve_with_xy_internal(g, base, comp, (u, v), stats,
                                            budget)
        except HypothesisViolation as hv:
            over_budget = str(hv)
            continue
        if pairs is not None:
            return FOUND, pairs
    if over_budget:
        return HYPOTHESIS_VIOLATED, over_budget
    return NONE, "every candidate edge was exhausted"


def _solve_component(g: Graph, base: ColoringState, comp, stats: SolveStats,
                     budget: int, xy=None) -> tuple[str, object]:
    """Returns (status, pairs-or-detail) for one live component, with the
    edge `xy` matched when it is given, else by its covering edges."""
    if xy is not None:
        edges = [xy]
    elif _needs_nothing(g, base, comp):
        return FOUND, _comp_pairs(base, comp)
    else:
        edges = _covering_edges(g, base, comp)
    return _branch_on(g, base, comp, edges, stats, budget)


def solve(g: Graph, budget: int | None = None) -> SolveOutcome:
    """Decide whether the graph has a dominating induced matching and
    construct one when it does.

    A "found" answer is always certified against the input graph, and a
    "none" answer is exact on every graph.  The exact subsolver may settle
    at most `budget` nodes over the whole call (NODES_PER_VERTEX per
    vertex by default); past that the answer is "hypothesis-violated",
    and only then is the graph searched for an induced S_{1,1,5} to name
    as the witness.
    """
    stats = SolveStats()
    if g.m == 0:
        return SolveOutcome(FOUND, DimCertificate(), stats=stats)
    budget = NODES_PER_VERTEX * g.n if budget is None else budget
    state = preprocess(g)
    if state.contradiction is not None:
        return SolveOutcome(NONE, detail=state.contradiction, stats=stats)
    pairs: set[tuple[int, int]] = set(state.mate_pairs())
    over_budget = ""
    for comp in connected_components(g, state.live_mask()):
        status, payload = _solve_component(g, state, comp, stats, budget)
        if status == NONE:
            return SolveOutcome(NONE, detail=str(payload), stats=stats)
        if status == HYPOTHESIS_VIOLATED:
            over_budget = str(payload)
            continue
        pairs |= payload
    if over_budget:
        return SolveOutcome(HYPOTHESIS_VIOLATED, detail=over_budget,
                            witness=patterns.find_induced(g, patterns.S115),
                            stats=stats)
    cert = DimCertificate(frozenset(pairs))
    ok, why = verify_dim_report(g, cert)
    if not ok:
        raise AssertionError(f"internal error: certificate rejected: {why}")
    return SolveOutcome(FOUND, cert, stats=stats)


def solve_with_xy(g: Graph, xy: tuple[int, int], budget: int | None = None
                  ) -> DimCertificate | None:
    """A full d.i.m. of the graph containing the edge xy, or None.

    Debugging entry point: preprocessing runs first, the component of xy
    is solved under the assumption that xy is matched, and the remaining
    components are solved normally, all as in `solve` and under the same
    budget.  None is exact on every graph.  Raises HypothesisViolation
    where `solve` would answer "hypothesis-violated": the exact subsolver
    ran over the budget.
    """
    u, v = edge_key(*xy)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    stats = SolveStats()
    budget = NODES_PER_VERTEX * g.n if budget is None else budget
    base = preprocess(g)
    if base.contradiction is not None:
        return None
    if base.mate[u] != v:
        if base.removed[u] or base.removed[v]:
            return None
        if base.color[u] == WHITE or base.color[v] == WHITE:
            return None
    pairs = set(base.mate_pairs())
    for comp in connected_components(g, base.live_mask()):
        status, got = _solve_component(g, base, comp, stats, budget,
                                       (u, v) if u in comp else None)
        if status == HYPOTHESIS_VIOLATED:
            raise HypothesisViolation(got)
        if status != FOUND:
            return None
        pairs |= got
    cert = DimCertificate(frozenset(pairs))
    if not verify_dim(g, cert) or (u, v) not in cert.edges:
        return None
    return cert
