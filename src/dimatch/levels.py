"""Distance-level decomposition around a candidate matched edge.

With an edge xy assumed matched, the vertices split into BFS levels
N_0 = {x, y}, N_1, N_2, ...  The first level is white, the second black,
and no edge inside N_3 or between N_3 and N_4 can be matched, which
drives a cascade of forced reductions.  Levels are computed once; later
reductions remove vertices but never relabel the surviving ones.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph, distance_levels
from .coloring import (UNKNOWN, BLACK, WHITE, ColoringState, ReductionLog,
                       assign, edge_reduction, settle)


class LevelDecomposition:
    """Static BFS levels of xy plus live views of the derived structure.

    The second level splits into matched pairs (reduced away) and
    singletons u_1..u_k; T_i collects the private third-level neighbors
    of u_i (the mate of u_i lives there).
    """

    def __init__(self, g: Graph, xy: tuple[int, int],
                 levels: list[tuple[int, ...]]):
        self.g = g
        self.xy = xy
        self.levels = levels
        self.level_of = [-1] * g.n
        for i, lv in enumerate(levels):
            for v in lv:
                self.level_of[v] = i

    def level(self, i: int) -> tuple[int, ...]:
        return self.levels[i] if i < len(self.levels) else ()

    @property
    def n2_size(self) -> int:
        return len(self.level(2))

    # -- live views ------------------------------------------------------

    def live_level(self, state: ColoringState, i: int) -> list[int]:
        return [v for v in self.level(i) if not state.removed[v]]

    def m2_pairs(self, state: ColoringState) -> list[tuple[int, int]]:
        """Live matched-forced pairs inside the second level."""
        out = []
        lv2 = set(self.live_level(state, 2))
        for u in sorted(lv2):
            for w in self.g.adj[u]:
                if u < w and w in lv2:
                    out.append((u, w))
        return out

    def s2(self, state: ColoringState) -> list[int]:
        """Live second-level vertices with no live second-level neighbor."""
        lv2 = set(self.live_level(state, 2))
        return [u for u in sorted(lv2)
                if not any(w in lv2 for w in self.g.adj[u])]

    def block_owner(self, state: ColoringState, t: int) -> int | None:
        """The unique live second-level neighbor of t, or None."""
        own = None
        for w in self.g.adj[t]:
            if self.level_of[w] == 2 and not state.removed[w]:
                if own is not None:
                    return None
                own = w
        return own

    def blocks(self, state: ColoringState) -> dict[int, list[int]]:
        """Map u_i -> live T_i for every live singleton u_i."""
        out: dict[int, list[int]] = {u: [] for u in self.s2(state)}
        for t in self.live_level(state, 3):
            own = self.block_owner(state, t)
            if own is not None and own in out:
                out[own].append(t)
        return out


def decompose(g: Graph, state: ColoringState, log: ReductionLog,
              xy: tuple[int, int]) -> LevelDecomposition | None:
    """Compute levels for a mated black edge xy and install the matched-edge
    exclusions (all edges inside the third level, all edges between the
    third and fourth levels).  Returns None when the forced colors around
    xy already contradict."""
    levels = distance_levels(g, xy, state.live_mask())
    decomp = LevelDecomposition(g, xy, levels)
    lof = decomp.level_of
    for t in decomp.level(3):
        for w in g.adj[t]:
            if lof[w] == 3 or lof[w] == 4:
                state.exclude(t, w)
    # the first level must turn white, the second black; propagation
    # derives both from xy being a mated black pair
    if not settle(g, state, log):
        return None
    return decomp


def _bipartite_within(g: Graph, state: ColoringState,
                      verts: list[int]) -> bool:
    vset = set(verts)
    side: dict[int, int] = {}
    for s in verts:
        if s in side:
            continue
        side[s] = 0
        q = deque((s,))
        while q:
            v = q.popleft()
            for w in g.adj[v]:
                if w not in vset or state.removed[w]:
                    continue
                if w not in side:
                    side[w] = side[v] ^ 1
                    q.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def _reduce_second_level_pair(g, state, log, decomp) -> bool:
    for (u, w) in decomp.m2_pairs(state):
        if state.removed[u] or state.removed[w]:
            continue
        edge_reduction(g, state, log, u, w, "second-level-pair")
        return True
    return False


def _whiten_s3(g, state, log, decomp) -> bool:
    lof = decomp.level_of
    fired = False
    for t in decomp.live_level(state, 3):
        cnt = 0
        for w in g.adj[t]:
            if lof[w] == 2 and not state.removed[w]:
                cnt += 1
        if cnt == 1:
            continue
        c = state.color[t]
        if c == UNKNOWN:
            assign(state, t, WHITE)
            fired = True
        elif c == BLACK and state.mate[t] < 0:
            state.fail(f"third-level vertex {t} has {cnt} live "
                       "second-level neighbors but must be matched there")
            return True
    return fired


def _force_double_contact(g, state, log, decomp) -> bool:
    lof = decomp.level_of
    blocks = decomp.blocks(state)
    owner: dict[int, int] = {}
    for u, ts in blocks.items():
        for t in ts:
            owner[t] = u
    for t in sorted(owner):
        u = owner[t]
        per: dict[int, int] = {}
        hit = False
        for w in g.adj[t]:
            if lof[w] == 3 and not state.removed[w] and w in owner \
                    and owner[w] != u:
                o = owner[w]
                per[o] = per.get(o, 0) + 1
                if per[o] >= 2:
                    hit = True
                    break
        if not hit:
            continue
        if state.color[t] == WHITE:
            state.fail(f"vertex {t} sees two members of another block "
                       "and must be matched, but is white")
            return True
        if state.mate[t] < 0:
            edge_reduction(g, state, log, u, t, "double-contact")
            return True
    return False


def _force_small_blocks(g, state, log, decomp) -> bool:
    for u, ts in sorted(decomp.blocks(state).items()):
        if state.mate[u] >= 0:
            continue
        cands = [t for t in ts if state.color[t] != WHITE]
        if not cands:
            state.fail(f"vertex {u} has no matching candidate left")
            return True
        if len(cands) == 1:
            edge_reduction(g, state, log, u, cands[0], "singleton-block")
            return True
    return False


def _reduce_level34_triangle(g, state, log, decomp) -> bool:
    lof = decomp.level_of
    for b in decomp.live_level(state, 4):
        for c in g.adj[b]:
            if b < c and lof[c] == 4 and not state.removed[c]:
                if any(lof[a] == 3 and not state.removed[a]
                       for a in g.adjset[b] & g.adjset[c]):
                    edge_reduction(g, state, log, b, c, "level34-triangle")
                    return True
    return False


def _whiten_off_intra_edge(g, state, log, decomp) -> bool:
    # an edge inside a block is dominated through one of its endpoints
    # only, so every other block member is white
    fired = False
    for u, ts in sorted(decomp.blocks(state).items()):
        tset = set(ts)
        intra = [(p, q) for p in ts for q in g.adj[p] if p < q and q in tset]
        if not intra:
            continue
        allowed = set(intra[0])
        for e in intra[1:]:
            allowed &= set(e)
        if not allowed:
            state.fail(f"block of {u} has vertex-disjoint internal edges")
            return True
        for t in ts:
            if t not in allowed and state.color[t] == UNKNOWN:
                assign(state, t, WHITE)
                fired = True
    return fired


def _limit_cross_edges(g, state, log, decomp) -> bool:
    lof = decomp.level_of
    blocks = decomp.blocks(state)
    owner: dict[int, int] = {}
    for u, ts in blocks.items():
        for t in ts:
            owner[t] = u
    cross: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t in sorted(owner):
        u = owner[t]
        for w in g.adj[t]:
            if t < w and lof[w] == 3 and not state.removed[w] \
                    and w in owner and owner[w] != u:
                key = (min(u, owner[w]), max(u, owner[w]))
                cross.setdefault(key, []).append((t, w))
    fired = False
    for (ui, uj), es in sorted(cross.items()):
        if len(es) >= 3:
            state.fail(f"three cross edges between blocks {ui} and {uj}")
            return True
        if len(es) == 2:
            keep = set(es[0]) | set(es[1])
            for t in blocks[ui] + blocks[uj]:
                if t not in keep and state.color[t] == UNKNOWN:
                    assign(state, t, WHITE)
                    fired = True
    return fired


_NORMALIZE_RULES = (_reduce_second_level_pair, _whiten_s3,
                    _force_double_contact, _force_small_blocks,
                    _reduce_level34_triangle, _whiten_off_intra_edge,
                    _limit_cross_edges)


def normalize(g: Graph, state: ColoringState, log: ReductionLog,
              decomp: LevelDecomposition) -> bool:
    """Apply the level reductions to fixpoint.  False means no d.i.m.
    containing xy exists and the caller abandons this branch.

    Rule order per round: second-level pair reduction, whitening of
    third-level vertices without a unique live second-level neighbor,
    double-contact forcing, empty/singleton block handling, reduction of
    third/fourth-level triangles, whitening off block-internal edges,
    and cross-edge counting between block pairs (three edges kill the
    branch, two whiten the rest of both blocks).  Every rule is a sound
    forcing step, so the fixpoint is order-independent.
    """
    if not settle(g, state, log):
        return False
    while True:
        if state.contradiction is not None:
            return False
        fired = False
        for rule in _NORMALIZE_RULES:
            if rule(g, state, log, decomp):
                fired = True
                break
        if state.contradiction is not None:
            return False
        if not fired:
            break
        if not settle(g, state, log):
            return False

    if not _bipartite_within(g, state, decomp.live_level(state, 3)):
        state.fail("odd cycle inside the third level")
        return False
    return True
