"""Dominating induced matching decision and construction.

Per component: global pattern reductions, then a trivial check for
solutions needing at most one more edge, then one branch per edge xy
lying in an induced path of three vertices (every solution with two or
more edges contains such an edge).  Each xy branch builds the distance
levels, normalizes them, and dispatches on the shape of the far levels.
Produced certificates are always verified against the original graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product

from .graph import (Graph, DimCertificate, connected_components, edge_key,
                    verify_dim, verify_dim_report)
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, ReductionLog,
                       assign, edge_reduction, preprocess, propagate, settle)
from .levels import LevelDecomposition, decompose, normalize
from .treedp import complete_on_subset
from . import patterns

FOUND, NONE, HYPOTHESIS_VIOLATED = "found", "none", "hypothesis-violated"


class HypothesisViolation(Exception):
    """A structural guarantee of the target graph class failed; the
    polynomial machinery cannot decide this branch."""


@dataclass
class BranchPoint:
    kind: str           # "tuple" | "triangle" | "cycle" | "p3-case"
    explored: int
    bound: int


@dataclass
class SolveStats:
    branch_points: list[BranchPoint] = field(default_factory=list)
    case_seconds: dict[str, float] = field(default_factory=dict)
    xy_tried: int = 0

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


def _comp_pairs(state: ColoringState, comp_set) -> set[tuple[int, int]]:
    return {(a, b) for (a, b) in state.mate_pairs() if a in comp_set}


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


def _in_live_p3(g: Graph, state: ColoringState, u: int, v: int) -> bool:
    rem = state.removed
    for w in g.adj[u]:
        if not rem[w] and w != v and not g.has_edge(w, v):
            return True
    for w in g.adj[v]:
        if not rem[w] and w != u and not g.has_edge(w, u):
            return True
    return False


def constrained_subsolver(g: Graph, state: ColoringState,
                          log: ReductionLog | None = None,
                          within=None) -> ColoringState | None:
    """Exact completion search: branch the first unknown vertex white or
    black, propagate, repeat.  Correct on every graph; exponential in the
    worst case, so callers keep the residuals small.  `within` limits the
    completion to one component's vertices."""
    if log is None:
        log = ReductionLog()
    scope = tuple(within) if within is not None else tuple(range(g.n))
    stack = [state]
    while stack:
        st = stack.pop()
        if not settle(g, st, log):
            continue
        if _comp_complete(st, scope):
            return st
        v = -1
        color, removed = st.color, st.removed
        for u in scope:
            if not removed[u] and color[u] == UNKNOWN:
                v = u
                break
        if v < 0:
            continue
        for c in (BLACK, WHITE):        # white is tried first (popped last)
            child = st.clone()
            assign(child, v, c)
            stack.append(child)
    return None


# -- block machinery (shared by the empty-far-level and deep cases) -------

def _unresolved_blocks(decomp: LevelDecomposition, state: ColoringState
                       ) -> dict[int, list[int]]:
    return {u: ts for u, ts in decomp.blocks(state).items()
            if state.mate[u] < 0}


def _cross_edges(g: Graph, state: ColoringState, decomp, owner
                 ) -> list[tuple[int, int]]:
    """Unknown-unknown third-level edges between distinct blocks."""
    out = []
    lof = decomp.level_of
    for t in sorted(owner):
        if state.color[t] != UNKNOWN:
            continue
        for w in g.adj[t]:
            if t < w and lof[w] == 3 and not state.removed[w] \
                    and state.color[w] == UNKNOWN and w in owner \
                    and owner[w] != owner[t]:
                out.append((t, w))
    return out


def _block_components(blocks, owner, cross) -> list[list[int]]:
    adj: dict[int, set[int]] = {u: set() for u in blocks}
    for (t, w) in cross:
        adj[owner[t]].add(owner[w])
        adj[owner[w]].add(owner[t])
    seen: set[int] = set()
    comps = []
    for u in sorted(blocks):
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


def _find_cross_p3(owner, cross):
    """An unknown vertex with unknown cross neighbors in two distinct
    blocks, or None."""
    nbrs: dict[int, list[int]] = {}
    for (t, w) in cross:
        nbrs.setdefault(t, []).append(w)
        nbrs.setdefault(w, []).append(t)
    for t_b in sorted(nbrs):
        seen_blocks: dict[int, int] = {}
        for w in sorted(nbrs[t_b]):
            o = owner[w]
            if o in seen_blocks:
                continue
            seen_blocks[o] = w
            if len(seen_blocks) == 2:
                a, c = sorted(seen_blocks.values())
                return (a, t_b, c)
    return None


def _find_block_cycle(blocks_in_comp, owner, cross):
    """First cycle in the block contact multigraph.  Returns one cycle
    block together with its two cycle vertices, or None.  Recursive DFS
    guarantees non-tree edges reach ancestors only."""
    bset = set(blocks_in_comp)
    edges = [(t, w) for (t, w) in cross
             if owner[t] in bset and owner[w] in bset]
    adj: dict[int, list[tuple[int, int, int, int]]] = {u: [] for u in bset}
    for i, (t, w) in enumerate(edges):
        adj[owner[t]].append((owner[w], i, t, w))   # (other, id, mine, far)
        adj[owner[w]].append((owner[t], i, w, t))
    entry_vertex: dict[int, int | None] = {}
    via_edge: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    onstack: set[int] = set()

    def dfs(u: int):
        for (b, ei, mine, far) in sorted(adj[u]):
            if ei == via_edge.get(u, -1):
                continue
            if b in entry_vertex:
                if b in onstack:
                    # cycle: back edge (u, b) plus the tree path b .. u
                    return (b, u, ei)
                continue
            entry_vertex[b] = far
            via_edge[b] = ei
            parent[b] = u
            onstack.add(b)
            got = dfs(b)
            if got is not None:
                return got
            onstack.discard(b)
        return None

    for start in sorted(bset):
        if start in entry_vertex:
            continue
        entry_vertex[start] = None
        via_edge[start] = -1
        parent[start] = None
        onstack.add(start)
        got = dfs(start)
        onstack.discard(start)
        if got is None:
            continue
        b, u, back_ei = got
        t, w = edges[back_ei]
        far = t if owner[t] == b else w          # back-edge endpoint in b
        # walk the tree path from u up to b; the last step enters b
        cur = u
        exit_b = None
        while cur != b:
            (p, q) = edges[via_edge[cur]]
            exit_b = p if owner[p] == parent[cur] else q
            cur = parent[cur]
        if exit_b is None or exit_b == far:
            return None
        return (b, min(far, exit_b), max(far, exit_b))
    return None


class _XyContext:
    """Per-xy working set shared by the case solvers."""

    def __init__(self, g: Graph, log: ReductionLog, decomp,
                 stats: SolveStats, comp, triangles=()):
        self.g = g
        self.log = log
        self.decomp = decomp
        self.stats = stats
        self.comp = tuple(comp)
        self.triangles = tuple(triangles)


def _triangle_unresolved(ctx, state, tri) -> bool:
    for v in tri:
        if state.removed[v]:
            continue
        if state.color[v] == UNKNOWN:
            return True
        if state.color[v] == BLACK and state.mate[v] < 0:
            return True
    return False


def _triangle_coupled(ctx, state, tri) -> bool:
    lof = ctx.decomp.level_of
    for v in tri:
        if state.removed[v] or state.color[v] != UNKNOWN:
            continue
        for w in ctx.g.adj[v]:
            if not state.removed[w] and lof[w] == 3 \
                    and state.color[w] == UNKNOWN:
                return True
    return False


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
            edge_reduction(g, state, ctx.log, a, min(cands), "triangle-mate")
            return True
    return False


def _apply_blacks(ctx, state, picks) -> ColoringState | None:
    """Clone the state and commit the given (owner, black) choices; a
    choice already realized by an earlier cascade is accepted as is."""
    child = state.clone()
    for (u, t) in picks:
        if child.contradiction is not None:
            return None
        if child.mate[t] == u:
            continue
        if child.removed[t] or child.color[t] != UNKNOWN:
            return None
        edge_reduction(ctx.g, child, ctx.log, u, t, "case-choice")
    if child.contradiction is not None:
        return None
    if not settle(ctx.g, child, ctx.log):
        return None
    return child


def _solve_trivial_block(ctx, state, u: int, ts: list[int]
                         ) -> ColoringState | None:
    """One block with no unknown couplings: its unknown members see only
    u (plus at most one internal edge partner), so the candidates are
    interchangeable; take them in id order, falling back on contradiction."""
    g = ctx.g
    cands = [t for t in ts if state.color[t] == UNKNOWN]
    tset = set(cands)
    intra = sorted((p, q) for p in cands for q in g.adj[p]
                   if p < q and q in tset)
    if intra:
        cands = sorted(set(intra[0]))
    for c in cands:
        child = _apply_blacks(ctx, state, ((u, c),))
        if child is not None:
            return child
    return None


def _solve_p3_component(ctx, state, owner, p3) -> ColoringState | None:
    """Enumerate the feasible colorings around a cross-block path of
    three: either the middle vertex is black and the outer blocks pick
    another black each, or the outer two are black and the middle block
    picks another black."""
    g = ctx.g
    t_a, t_b, t_c = p3
    if g.has_edge(t_a, t_c):
        # an all-excluded triangle inside the third level is infeasible
        return None
    u_a, u_b, u_c = owner[t_a], owner[t_b], owner[t_c]
    blocks = ctx.decomp.blocks(state)
    rest_a = [t for t in blocks[u_a] if t != t_a
              and state.color[t] == UNKNOWN]
    rest_c = [t for t in blocks[u_c] if t != t_c
              and state.color[t] == UNKNOWN]
    rest_b = [t for t in blocks[u_b] if t != t_b
              and state.color[t] == UNKNOWN]
    bound = len(rest_a) * len(rest_c) + len(rest_b)
    tried = 0
    result = None
    for ta2, tc2 in product(rest_a, rest_c):
        tried += 1
        child = _apply_blacks(ctx, state,
                              ((u_b, t_b), (u_a, ta2), (u_c, tc2)))
        if child is not None:
            result = _resolve_structures(ctx, child)
            if result is not None:
                break
    if result is None:
        for tb2 in rest_b:
            tried += 1
            child = _apply_blacks(ctx, state,
                                  ((u_a, t_a), (u_c, t_c), (u_b, tb2)))
            if child is not None:
                result = _resolve_structures(ctx, child)
                if result is not None:
                    break
    ctx.stats.record("p3-case", tried, bound)
    return result


def _solve_cycle_component(ctx, state, cyc) -> ColoringState | None:
    """A block on a contact cycle has its black among its two cycle
    vertices; each choice cascades around the cycle, giving two
    alternatives for the whole component."""
    u, v1, v2 = cyc
    tried = 0
    for pick in (v1, v2):
        tried += 1
        child = _apply_blacks(ctx, state, ((u, pick),))
        if child is not None:
            got = _resolve_structures(ctx, child)
            if got is not None:
                ctx.stats.record("cycle", tried, 2)
                return got
    ctx.stats.record("cycle", tried, 2)
    return None


def _solve_chordal_component(ctx, state, comp_blocks, blocks
                             ) -> ColoringState | None:
    verts = list(comp_blocks)
    for u in comp_blocks:
        verts.extend(t for t in blocks[u] if state.color[t] == UNKNOWN)
    try:
        got = complete_on_subset(ctx.g, state, verts)
    except ValueError as err:
        raise HypothesisViolation(f"chordal fallback rejected: {err}")
    if got is None:
        return None
    child = state.clone()
    for v in sorted(got):
        if child.color[v] == UNKNOWN:
            assign(child, v, got[v])
    if not settle(ctx.g, child, ctx.log):
        raise AssertionError("tree DP completion failed to propagate")
    return child


def _branch_triangle(ctx, state, tri) -> ColoringState | None:
    """Every triangle holds exactly one matched edge; try the three."""
    g = ctx.g
    tried = 0
    result = None
    pairs = sorted((p, q) for p in tri for q in tri
                   if p < q and g.has_edge(p, q))
    for (p, q) in pairs:
        if state.removed[p] or state.removed[q]:
            continue
        if state.color[p] == WHITE or state.color[q] == WHITE:
            continue
        if state.is_excluded(p, q):
            continue
        tried += 1
        child = state.clone()
        edge_reduction(g, child, ctx.log, p, q, "triangle-edge")
        if not settle(g, child, ctx.log):
            continue
        result = _resolve_structures(ctx, child)
        if result is not None:
            break
    ctx.stats.record("triangle", tried, 3)
    return result


def _resolve_structures(ctx, state: ColoringState) -> ColoringState | None:
    """Drive the remaining unknown structure to a complete coloring.

    Deterministic sites (trivial blocks, chordal pieces, local triangle
    mates, isolated leftovers) are committed in a loop; genuinely
    branching sites (cross path of three, block cycle, coupled triangle)
    recurse over their bounded alternatives.
    """
    g = ctx.g
    while True:
        if not settle(g, state, ctx.log):
            return None
        if _comp_complete(state, ctx.comp):
            return state

        acted = False
        for tri in ctx.triangles:
            if not _triangle_unresolved(ctx, state, tri):
                continue
            if _triangle_coupled(ctx, state, tri):
                continue
            if _resolve_local_triangle(ctx, state, tri):
                acted = True
                break
        if acted:
            continue

        blocks = _unresolved_blocks(ctx.decomp, state)
        owner: dict[int, int] = {}
        for u, ts in blocks.items():
            for t in ts:
                owner[t] = u
        if blocks:
            cross = _cross_edges(g, state, ctx.decomp, owner)
            comps = _block_components(blocks, owner, cross)
            coupled_blocks: set[int] = set()
            for tri in ctx.triangles:
                if not _triangle_unresolved(ctx, state, tri):
                    continue
                for v in tri:
                    if state.removed[v] or state.color[v] != UNKNOWN:
                        continue
                    for w in g.adj[v]:
                        if w in owner and not state.removed[w] \
                                and state.color[w] == UNKNOWN:
                            coupled_blocks.add(owner[w])
            eligible = [c for c in comps
                        if not any(u in coupled_blocks for u in c)]
            if eligible:
                comp = eligible[0]
                if len(comp) == 1:
                    u = comp[0]
                    got = _solve_trivial_block(ctx, state, u, blocks[u])
                    if got is None:
                        return None
                    state = got
                    continue
                comp_owner = {t: u for t, u in owner.items() if u in comp}
                comp_cross = [(t, w) for (t, w) in cross
                              if owner[t] in comp]
                p3 = _find_cross_p3(comp_owner, comp_cross)
                if p3 is not None:
                    return _solve_p3_component(ctx, state, comp_owner, p3)
                cyc = _find_block_cycle(comp, comp_owner, comp_cross)
                if cyc is not None:
                    return _solve_cycle_component(ctx, state, cyc)
                got = _solve_chordal_component(ctx, state, comp, blocks)
                if got is None:
                    return None
                state = got
                continue
            # every remaining block couples to an unresolved triangle
            for tri in ctx.triangles:
                if _triangle_unresolved(ctx, state, tri) \
                        and _triangle_coupled(ctx, state, tri):
                    return _branch_triangle(ctx, state, tri)
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
            if _triangle_unresolved(ctx, state, tri):
                return _branch_triangle(ctx, state, tri)
        left = [v for v in ctx.comp
                if not state.removed[v] and state.color[v] == UNKNOWN]
        raise HypothesisViolation(
            f"unresolved vertices outside the block structure: {left[:8]}")


# -- case solvers ----------------------------------------------------------

def _solve_n4_empty(ctx, state) -> ColoringState | None:
    return _resolve_structures(ctx, state)


def _solve_n2_small(ctx, state) -> ColoringState | None:
    """Far levels reached but at most four second-level singletons: one
    black per block, enumerated as a product, fixes the whole near side
    and the fourth level; the rest is finished by the exact subsolver."""
    g = ctx.g
    blocks = _unresolved_blocks(ctx.decomp, state)
    names = sorted(blocks)
    cand_lists = []
    for u in names:
        cands = [t for t in blocks[u] if state.color[t] == UNKNOWN]
        if not cands:
            return None
        cand_lists.append(cands)
    bound = 1
    for c in cand_lists:
        bound *= len(c)
    tried = 0
    result = None
    for tup in product(*cand_lists):
        tried += 1
        child = _apply_blacks(ctx, state, tuple(zip(names, tup)))
        if child is None:
            continue
        got = constrained_subsolver(g, child, ctx.log, within=ctx.comp)
        if got is not None:
            result = got
            break
    ctx.stats.record("tuple", tried, bound)
    return result


def _classify_far_levels(ctx, state) -> list[tuple[int, ...]]:
    """Reduce the live fourth/fifth-level structure and classify what is
    left.  Surviving components must be triangles; anything else breaks
    the structure theory for the target class."""
    g = ctx.g
    decomp = ctx.decomp
    lof = decomp.level_of

    while True:
        if not settle(g, state, ctx.log):
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
                edge_reduction(g, state, ctx.log, p, q, "isolated-far-pair")
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

def _solve_with_xy_internal(g: Graph, base: ColoringState, comp_set,
                            xy: tuple[int, int], stats: SolveStats
                            ) -> set[tuple[int, int]] | None:
    x, y = xy
    state = base.clone()
    log = ReductionLog()
    assign(state, x, BLACK)
    assign(state, y, BLACK)
    propagate(g, state)
    if state.contradiction is not None:
        return None
    decomp = decompose(g, state, log, xy)
    if decomp is None:
        return None
    if not normalize(g, state, log, decomp):
        return None
    ctx = _XyContext(g, log, decomp, stats, sorted(comp_set))
    if _comp_complete(state, ctx.comp):
        return _comp_pairs(state, comp_set)

    t0 = time.perf_counter()
    if not decomp.level(4):
        case = "n4-empty"
        final = _solve_n4_empty(ctx, state)
    elif decomp.n2_size <= 4:
        case = "n2-small"
        final = _solve_n2_small(ctx, state)
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
    return _comp_pairs(final, comp_set)


def _solve_component(g: Graph, base: ColoringState, comp,
                     stats: SolveStats) -> tuple[str, object]:
    """Returns (status, pairs-or-detail) for one live component."""
    comp_set = frozenset(comp)
    if _needs_nothing(g, base, comp):
        return FOUND, _comp_pairs(base, comp_set)

    pristine = not base.excluded and all(
        base.color[v] == UNKNOWN and not base.removed[v] for v in comp)
    comp_edges = [(u, v) for (u, v) in g.edges if u in comp_set]

    # solutions needing exactly one more edge
    if pristine:
        m_comp = len(comp_edges)
        for (u, v) in comp_edges:
            if g.degree(u) + g.degree(v) - 1 == m_comp:
                return FOUND, _comp_pairs(base, comp_set) | {(u, v)}
    else:
        scratch = ReductionLog()
        for (u, v) in comp_edges:
            if base.removed[u] or base.removed[v] or base.is_excluded(u, v):
                continue
            if base.color[u] == WHITE or base.color[v] == WHITE:
                continue
            child = base.clone()
            assign(child, u, BLACK)
            assign(child, v, BLACK)
            if not settle(g, child, scratch):
                continue
            if _needs_nothing(g, child, comp):
                return FOUND, _comp_pairs(child, comp_set)

    violations: list[str] = []
    for (u, v) in comp_edges:
        if base.removed[u] or base.removed[v]:
            continue
        if base.color[u] == WHITE or base.color[v] == WHITE:
            continue
        if not _in_live_p3(g, base, u, v):
            continue
        stats.xy_tried += 1
        try:
            pairs = _solve_with_xy_internal(g, base, comp_set, (u, v), stats)
        except HypothesisViolation as hv:
            violations.append(f"xy=({u},{v}): {hv}")
            continue
        if pairs is not None:
            return FOUND, pairs
    if violations:
        return HYPOTHESIS_VIOLATED, "; ".join(violations[:3])
    return NONE, "every candidate edge was exhausted"


def solve(g: Graph, strict_c4: bool = False,
          find_witness: bool = True) -> SolveOutcome:
    """Decide whether the graph has a dominating induced matching and
    construct one when it does.

    A "found" answer is always certified against the input graph.  A
    "none" answer is complete for the supported class (no induced
    S_{1,1,5}); on other inputs a structural failure surfaces as
    "hypothesis-violated" instead of a wrong answer.
    """
    stats = SolveStats()
    if g.m == 0:
        return SolveOutcome(FOUND, DimCertificate(), stats=stats)
    state, log = preprocess(g, strict_c4=strict_c4)
    if state.contradiction is not None:
        return SolveOutcome(NONE, detail=state.contradiction, stats=stats)
    pairs: set[tuple[int, int]] = set(state.mate_pairs())
    hv_details: list[str] = []
    for comp in connected_components(g, state.live_mask()):
        status, payload = _solve_component(g, state, comp, stats)
        if status == NONE:
            return SolveOutcome(NONE, detail=str(payload), stats=stats)
        if status == HYPOTHESIS_VIOLATED:
            hv_details.append(str(payload))
            continue
        pairs |= payload
    if hv_details:
        witness = None
        if find_witness and g.n <= 200:
            witness = patterns.find_induced(g, patterns.S115)
        return SolveOutcome(HYPOTHESIS_VIOLATED, detail="; ".join(hv_details),
                            witness=witness, stats=stats)
    cert = DimCertificate(frozenset(pairs))
    ok, why = verify_dim_report(g, cert)
    if not ok:
        raise AssertionError(f"internal error: certificate rejected: {why}")
    return SolveOutcome(FOUND, cert, stats=stats)


def solve_with_xy(g: Graph, xy: tuple[int, int],
                  strict_c4: bool = False) -> DimCertificate | None:
    """A full d.i.m. of the graph containing the edge xy, or None.

    Debugging entry point: preprocessing runs first, the component of xy
    is solved under the assumption that xy is matched, and the remaining
    components are solved normally.
    """
    u, v = edge_key(*xy)
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    stats = SolveStats()
    base, _ = preprocess(g, strict_c4=strict_c4)
    if base.contradiction is not None:
        return None
    if base.mate[u] != v:
        if base.removed[u] or base.removed[v]:
            return None
        if base.color[u] == WHITE or base.color[v] == WHITE:
            return None
        if not _in_live_p3(g, base, u, v):
            # without a path of three around xy, force xy; its component
            # then settles to the pair alone
            base = base.clone()
            assign(base, u, BLACK)
            assign(base, v, BLACK)
            if not settle(g, base, ReductionLog()):
                return None
    pairs = set(base.mate_pairs())
    for comp in connected_components(g, base.live_mask()):
        if u in comp:
            try:
                got = _solve_with_xy_internal(g, base, frozenset(comp),
                                              (u, v), stats)
            except HypothesisViolation:
                return None
        else:
            status, got = _solve_component(g, base, comp, stats)
            if status != FOUND:
                return None
        if got is None:
            return None
        pairs |= got
    cert = DimCertificate(frozenset(pairs))
    if not verify_dim(g, cert) or (u, v) not in cert.edges:
        return None
    return cert
