"""Dominating induced matching decision and construction.

Per component: global pattern reductions, then one branch per covering
edge.  For a live vertex v of least live degree and its live neighbor w
of least live degree, the edge vw must be dominated, so every solution
matches an edge at v or at w: at most deg(v) + deg(w) - 1 branches.
Each xy branch builds the distance levels, normalizes them, and
dispatches on the shape of the far levels.  One engine, the fail-first
exact subsolver, picks the black of every third-level block; the only
other choices are the far-level triangles.  The covering edges' `none`
is complete on graphs with no induced S_{1,1,5}; that class check runs
once per call, and only before such a `none` would be returned.  With a
witness, or after a branch raised a hypothesis violation, the exact
subsolver decides the component from the preprocessed state, under a
node budget per call: `none` is exact on every graph, and
`hypothesis-violated` means only that the budget ran out.  Produced
certificates are always verified against the original graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cache

from .graph import (Graph, DimCertificate, connected_components, edge_key,
                    verify_dim, verify_dim_report)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, assign,
                       edge_reduction, preprocess, propagate, settle)
from .levels import Blocks, LevelDecomposition, decompose, normalize
from . import patterns

FOUND, NONE, HYPOTHESIS_VIOLATED = "found", "none", "hypothesis-violated"

# the default node budget of the exact subsolver, per vertex of the graph
NODES_PER_VERTEX = 50


class HypothesisViolation(Exception):
    """A guarantee of the target class failed, or the exact subsolver ran
    over its node budget: the polynomial machinery cannot decide this."""


@dataclass
class BranchPoint:
    kind: str           # "triangle"
    explored: int
    bound: int


@dataclass
class SolveStats:
    branch_points: list[BranchPoint] = field(default_factory=list)
    case_seconds: dict[str, float] = field(default_factory=dict)
    xy_tried: int = 0
    exact_calls: int = 0        # components handed to the exact search
    class_checks: int = 0       # 1 if the S_{1,1,5} class check ran
    subsolver_nodes: int = 0    # nodes settled by constrained_subsolver

    def record(self, kind: str, explored: int, bound: int) -> None:
        self.branch_points.append(BranchPoint(kind, explored, bound))

    def timed(self, case: str, seconds: float) -> None:
        self.case_seconds[case] = self.case_seconds.get(case, 0.0) + seconds


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


def _comp_complete(state: ColoringState, comp) -> bool:
    """Component-scoped completeness: nothing uncolored, every live black
    mated, no contradiction."""
    if state.contradiction is not None:
        return False
    color, removed, mate = state.color, state.removed, state.mate
    for v in comp:
        if removed[v]:
            continue
        if color[v] == UNKNOWN:
            return False
        if color[v] == BLACK and mate[v] < 0:
            return False
    return True


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
    unknown neighbors over non-excluded edges), one child per candidate
    in id order.  Its mate must be one of them, so the children are
    exhaustive, and mating one whitens the others, so they are disjoint.
    With no unmated black left, the first unknown vertex is branched,
    white first; with no unknown either, the state is complete.  Correct
    on every graph; exponential in the worst case, hence the budget.
    A child is cloned from its parent only when its turn comes, and the
    last sibling takes the parent itself, so the call consumes `state`.
    `within` limits the completion to one component's vertices;
    `stats.subsolver_nodes` counts the nodes settled, and a count past
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
                options = [w for w in adj[v] if not removed[w] and
                           color[w] == UNKNOWN and not st.is_excluded(v, w)]
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


# -- block machinery (shared by the empty-far-level and deep cases) -------

def _unresolved_blocks(decomp: LevelDecomposition, state: ColoringState
                       ) -> Blocks:
    """The blocks whose owner is unmated, with the unknown-unknown cross
    edges among them."""
    view = decomp.blocks(state)
    members = {u: ts for u, ts in view.members.items() if state.mate[u] < 0}
    owner = {t: u for t, u in view.owner.items() if u in members}
    color = state.color
    cross = [(t, w) for (t, w) in view.cross if t in owner and w in owner
             and color[t] == UNKNOWN and color[w] == UNKNOWN]
    return Blocks(members, owner, cross)


def _block_components(view: Blocks) -> list[list[int]]:
    owner = view.owner
    adj: dict[int, set[int]] = {u: set() for u in view.members}
    for (t, w) in view.cross:
        adj[owner[t]].add(owner[w])
        adj[owner[w]].add(owner[t])
    seen: set[int] = set()
    comps = []
    for u in sorted(view.members):
        if u in seen:
            continue
        comp = [u]
        seen.add(u)
        stack = [u]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        comps.append(sorted(comp))
    return comps


class _XyContext:
    """Per-xy working set shared by the case solvers."""

    def __init__(self, g: Graph, decomp, stats: SolveStats, comp,
                 triangles=(), budget: int | None = None):
        self.g = g
        self.decomp = decomp
        self.stats = stats
        self.comp = tuple(comp)
        self.triangles = tuple(triangles)
        self.budget = budget


def _triangle_unresolved(state, tri) -> bool:
    for v in tri:
        if state.removed[v]:
            continue
        if state.color[v] == UNKNOWN:
            return True
        if state.color[v] == BLACK and state.mate[v] < 0:
            return True
    return False


def _triangle_contacts(ctx, state, tri) -> list[int]:
    """Live unknown third-level neighbors of the triangle's unknowns."""
    lof = ctx.decomp.level_of
    color, removed = state.color, state.removed
    return [w for v in tri if not removed[v] and color[v] == UNKNOWN
            for w in ctx.g.adj[v]
            if not removed[w] and lof[w] == 3 and color[w] == UNKNOWN]


def _resolve_local_triangle(ctx, state, tri) -> bool:
    """Resolve an unresolved triangle with no unknown third-level
    attachments.  The only undetermined shape left after propagation is a
    black unmated member with two unknown in-triangle mates; those have
    no contacts outside the triangle, so the lower id is taken."""
    g = ctx.g
    for a in tri:
        if state.removed[a] or state.color[a] != BLACK or state.mate[a] >= 0:
            continue
        cands = [b for b in tri if b != a and not state.removed[b]
                 and state.color[b] == UNKNOWN and g.has_edge(a, b)
                 and not state.is_excluded(a, b)]
        if len(cands) >= 2:
            edge_reduction(g, state, a, min(cands))
            return True
    return False


def _solve_block_component(ctx, state, comp_blocks, blocks
                           ) -> ColoringState | None:
    """A block component, one block or several joined by cross edges: the
    exact subsolver completes its owners and unknown members.  A single
    block's candidates see only the owner (plus at most one edge inside
    the block), so the search settles the root plus at most one node per
    candidate.  Where the cross edges form a matching along a tree of
    blocks, its fail-first pick fixes every side of the chosen block but
    one, and the sides left open by different picks are disjoint, so the
    search settles at most one node per candidate, plus one.  Block
    cycles and cross paths of three have stayed within the same bound on
    every measured call, which is not proved; the call's node budget
    bounds them anyway."""
    verts = list(comp_blocks)
    for u in comp_blocks:
        verts.extend(t for t in blocks[u] if state.color[t] == UNKNOWN)
    return constrained_subsolver(ctx.g, state, within=verts,
                                 stats=ctx.stats, budget=ctx.budget)


def _triangle_edges(g, state, tri) -> list[tuple[int, int]]:
    """The edges of the triangle that may still be matched, in id order;
    every triangle holds exactly one matched edge."""
    removed, color = state.removed, state.color
    return sorted((p, q) for p in tri for q in tri
                  if p < q and g.has_edge(p, q)
                  and not removed[p] and not removed[q]
                  and color[p] != WHITE and color[q] != WHITE
                  and not state.is_excluded(p, q))


def _commit_forced(ctx, state: ColoringState):
    """Commit the sites that need no choice (block components completed
    by the exact subsolver, local triangle mates, isolated leftovers) in a
    loop; every block component of one block view that no triangle
    touches goes in a single sweep.  Returns (state, None) once the component
    is complete, (state, triangle) when a coupled or detached triangle
    must be branched on, and (None, None) on a contradiction."""
    g = ctx.g
    while True:
        if not settle(g, state):
            return None, None
        if _comp_complete(state, ctx.comp):
            return state, None

        acted = False
        for tri in ctx.triangles:
            if not _triangle_unresolved(state, tri):
                continue
            if _triangle_contacts(ctx, state, tri):
                continue
            if _resolve_local_triangle(ctx, state, tri):
                acted = True
                break
        if acted:
            continue

        view = _unresolved_blocks(ctx.decomp, state)
        if view.members:
            coupled = {view.owner[w] for tri in ctx.triangles
                       if _triangle_unresolved(state, tri)
                       for w in _triangle_contacts(ctx, state, tri)
                       if w in view.owner}
            eligible = [c for c in _block_components(view)
                        if not any(u in coupled for u in c)]
            if eligible:
                # components without contact are independent, and their
                # cross edges only disappear: commit all of them before
                # building the view again
                for comp in eligible:
                    state = _solve_block_component(ctx, state, comp,
                                                   view.members)
                    if state is None:
                        return None, None
                continue
            # every remaining block couples to an unresolved triangle
            for tri in ctx.triangles:
                if _triangle_unresolved(state, tri) \
                        and _triangle_contacts(ctx, state, tri):
                    return state, tri
            raise HypothesisViolation(
                "unresolved blocks without an attached triangle")

        # no unresolved blocks: whiten isolated leftovers, then resolve
        # any remaining detached triangles
        for v in ctx.comp:
            if state.removed[v] or state.color[v] != UNKNOWN:
                continue
            if all(state.removed[w] for w in g.adj[v]):
                assign(state, v, WHITE)
                acted = True
        if acted:
            continue
        for tri in ctx.triangles:
            if _triangle_unresolved(state, tri):
                return state, tri
        left = [v for v in ctx.comp
                if not state.removed[v] and state.color[v] == UNKNOWN]
        raise HypothesisViolation(
            f"unresolved vertices outside the block structure: {left[:8]}")


def _resolve_structures(ctx, state: ColoringState) -> ColoringState | None:
    """Drive the remaining unknown structure to a complete coloring.

    `_commit_forced` commits every site that needs no choice.  A triangle
    it leaves opens a site on one explicit stack, and the sites are
    searched depth first: each tries its matchable edges in id order, a
    child cloned from the site's state only when its turn comes, so no
    site recurses.  A site records its branch point when it closes."""
    g = ctx.g
    sites = []          # per open triangle: [its state, its edges, tried]
    while True:
        state, tri = _commit_forced(ctx, state)
        if tri is not None:
            sites.append([state, _triangle_edges(g, state, tri), 0])
        elif state is not None:
            for site in reversed(sites):
                ctx.stats.record("triangle", site[2], 3)
            return state
        while True:     # the next alternative of the innermost open site
            if not sites:
                return None
            base, edges, tried = sites[-1]
            if tried < len(edges):
                break
            ctx.stats.record("triangle", tried, 3)
            sites.pop()
        sites[-1][2] += 1
        state = base.clone()
        edge_reduction(g, state, *edges[tried])


# -- case solvers ----------------------------------------------------------

def _classify_far_levels(ctx, state) -> list[tuple[int, ...]]:
    """Reduce the live fourth/fifth-level structure and classify what is
    left.  Surviving components must be triangles; anything else breaks
    the structure theory for the target class."""
    g = ctx.g
    decomp = ctx.decomp
    lof = decomp.level_of

    while True:
        if not settle(g, state):
            return []
        acted = False
        verts = [v for v in decomp.level(4) if not state.removed[v]]
        verts += [v for v in decomp.level(5) if not state.removed[v]]
        vset = set(verts)
        # an isolated fifth-level vertex with two nonadjacent
        # fourth-level neighbors cannot be matched
        for z in verts:
            if lof[z] != 5 or state.color[z] != UNKNOWN:
                continue
            if any(lof[w] == 5 and not state.removed[w] for w in g.adj[z]):
                continue
            n4 = [w for w in g.adj[z]
                  if not state.removed[w] and lof[w] == 4]
            if any(not g.has_edge(a, b)
                   for i, a in enumerate(n4) for b in n4[i + 1:]):
                assign(state, z, WHITE)
                acted = True
        if acted:
            continue
        seen: set[int] = set()
        comps: list[list[int]] = []
        for s in sorted(vset):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                v = stack.pop()
                for w in g.adj[v]:
                    if w in vset and w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            comps.append(sorted(comp))
        triangles: list[tuple[int, ...]] = []
        for comp in comps:
            if len(comp) == 1:
                v = comp[0]
                if state.color[v] == UNKNOWN:
                    # near edges are excluded and no far neighbor is
                    # left, so the vertex cannot be matched
                    assign(state, v, WHITE)
                    acted = True
            elif len(comp) == 2:
                p, q = comp
                if state.mate[p] == q:
                    continue
                # either endpoint white would strand the other black
                edge_reduction(g, state, p, q)
                acted = True
            elif len(comp) == 3:
                a, b, c = comp
                if not (g.has_edge(a, b) and g.has_edge(a, c)
                        and g.has_edge(b, c)):
                    raise HypothesisViolation(
                        f"induced path of three in the far levels: {comp}")
                triangles.append(tuple(comp))
            else:
                raise HypothesisViolation(
                    f"far-level component with {len(comp)} vertices: "
                    f"{comp[:6]}")
        if acted:
            continue
        for t in triangles:
            if sum(1 for v in t if lof[v] == 5) == 3:
                raise HypothesisViolation(
                    f"triangle inside the fifth level: {t}")
        n4_only = [t for t in triangles
                   if sum(1 for v in t if lof[v] == 4) == 3]
        if len(n4_only) > 1:
            raise HypothesisViolation(
                "two triangles inside the fourth level: "
                f"{n4_only[0]} and {n4_only[1]}")
        return triangles


def _solve_n2_large(ctx, state) -> ColoringState | None:
    triangles = _classify_far_levels(ctx, state)
    if state.contradiction is not None:
        return None
    ctx.triangles = tuple(triangles)
    return _resolve_structures(ctx, state)


# -- per-xy and per-component drivers --------------------------------------

def _solve_with_xy_internal(g: Graph, base: ColoringState, comp,
                            xy: tuple[int, int], stats: SolveStats,
                            budget: int | None = None
                            ) -> set[tuple[int, int]] | None:
    x, y = xy
    state = base.clone()
    assign(state, x, BLACK)
    assign(state, y, BLACK)
    propagate(g, state)
    if state.contradiction is not None:
        return None
    decomp = decompose(g, state, xy)
    if decomp is None:
        return None
    if not normalize(g, state, decomp):
        return None
    ctx = _XyContext(g, decomp, stats, comp, budget=budget)
    if _comp_complete(state, ctx.comp):
        return _comp_pairs(state, comp)

    t0 = time.perf_counter()
    if not decomp.level(4):
        case = "n4-empty"
        final = _resolve_structures(ctx, state)
    elif decomp.n2_size <= 4:
        case = "n2-small"
        # one black per block fixes the near side and the fourth level;
        # the owners are the unmated blacks, so fail-first branching on
        # them makes that choice, and the search finishes the far levels
        final = constrained_subsolver(g, state, within=comp, stats=stats,
                                      budget=budget)
    else:
        case = "n2-large"
        if decomp.level(6):
            stats.timed(case, time.perf_counter() - t0)
            raise HypothesisViolation(
                "sixth distance level nonempty although the second "
                "level has five or more vertices")
        final = _solve_n2_large(ctx, state)
    stats.timed(case, time.perf_counter() - t0)

    if final is None:
        return None
    if not _comp_complete(final, ctx.comp):
        raise AssertionError("case solver returned an incomplete coloring")
    return _comp_pairs(final, comp)


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
               ) -> tuple[set[tuple[int, int]] | None, bool]:
    """One xy branch per live, non-white edge of `edges`, in order.
    Returns the first found pairs or None, and whether some branch raised
    a hypothesis violation."""
    removed, color = base.removed, base.color
    raised = False
    for (u, v) in edges:
        if removed[u] or removed[v] or color[u] == WHITE or color[v] == WHITE:
            continue
        stats.xy_tried += 1
        try:
            pairs = _solve_with_xy_internal(g, base, comp, (u, v), stats,
                                            budget)
        except HypothesisViolation:
            raised = True
            continue
        if pairs is not None:
            return pairs, raised
    return None, raised


def _class_check(g: Graph, stats: SolveStats):
    """The class check of one call: a function that searches g for an
    induced S_{1,1,5} on its first call, counts that in
    `stats.class_checks`, and returns the same result on every call."""
    @cache
    def s115():
        stats.class_checks = 1
        return patterns.find_induced(g, patterns.S115)
    return s115


def _solve_component(g: Graph, base: ColoringState, comp, stats: SolveStats,
                     s115, budget: int, xy=None) -> tuple[str, object]:
    """Returns (status, pairs-or-detail) for one live component, with the
    edge `xy` matched when it is given.  The covering edges (or xy) decide
    it inside the class, so their `none` stands when the class check
    `s115()` (searched once per call) finds no witness.  Otherwise, or
    after a hypothesis violation, the exact subsolver decides it from
    `base`, and only running over `budget` answers hypothesis-violated."""
    if xy is not None:
        edges = [xy]
    elif _needs_nothing(g, base, comp):
        return FOUND, _comp_pairs(base, comp)
    else:
        edges = _covering_edges(g, base, comp)
    pairs, raised = _branch_on(g, base, comp, edges, stats, budget)
    if pairs is not None:
        return FOUND, pairs
    if not raised and s115() is None:
        return NONE, "every candidate edge was exhausted"
    state = base.clone()
    if xy is not None:
        edge_reduction(g, state, *xy)
    stats.exact_calls += 1
    try:
        final = constrained_subsolver(g, state, within=comp, stats=stats,
                                      budget=budget)
    except HypothesisViolation as hv:
        return HYPOTHESIS_VIOLATED, str(hv)
    if final is None:
        return NONE, "the exact search found no completion"
    return FOUND, _comp_pairs(final, comp)


def solve(g: Graph, budget: int | None = None) -> SolveOutcome:
    """Decide whether the graph has a dominating induced matching and
    construct one when it does.

    A "found" answer is always certified against the input graph, and a
    "none" answer is exact on every graph.  The exact subsolver may settle
    at most `budget` nodes over the whole call (NODES_PER_VERTEX per
    vertex by default); past that the answer is "hypothesis-violated",
    with the graph's induced S_{1,1,5} as witness when it has one.
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
    s115 = _class_check(g, stats)
    for comp in connected_components(g, state.live_mask()):
        status, payload = _solve_component(g, state, comp, stats, s115,
                                           budget)
        if status == NONE:
            return SolveOutcome(NONE, detail=str(payload), stats=stats)
        if status == HYPOTHESIS_VIOLATED:
            over_budget = str(payload)
            continue
        pairs |= payload
    if over_budget:
        return SolveOutcome(HYPOTHESIS_VIOLATED, detail=over_budget,
                            witness=s115(), stats=stats)
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
    budget.  Raises HypothesisViolation where `solve` would answer
    "hypothesis-violated".
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
    s115 = _class_check(g, stats)
    for comp in connected_components(g, base.live_mask()):
        status, got = _solve_component(g, base, comp, stats, s115, budget,
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
