"""Searches for the induced subgraphs the solver needs: K4, the diamond
and the butterfly for preprocessing, and S_{1,1,5} (three induced paths
of lengths 1, 1 and 5 glued at a center) for its class; and a generator
of random S_{1,1,5}-free graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphInputError, build_graph


@dataclass(frozen=True)
class PatternKind:
    """Tagged pattern; `params` holds (i, j, k) for the spider
    S_{i,j,k} and is empty otherwise."""

    tag: str                       # K4 | Diamond | Butterfly | S_ijk
    params: tuple[int, ...] = ()


K4 = PatternKind("K4")
DIAMOND = PatternKind("Diamond")
BUTTERFLY = PatternKind("Butterfly")
S115 = PatternKind("S_ijk", (1, 1, 5))

_WHITE = 2      # coloring.WHITE, which the scans below skip


@dataclass(frozen=True)
class PatternWitness:
    """An induced occurrence; vertices listed in the pattern's role order.

    Diamond: (v1, v2, v3, u) with mid-edge (v2, u).  Butterfly:
    (v1, v2, v3, v4, u) with peripheral edges (v1, v2) and (v3, v4).
    S_{1,1,5}: center, the two short legs, then the long leg
    center-outward.
    """

    kind: PatternKind
    vertices: tuple[int, ...]


def _find_k4(g: Graph) -> PatternWitness | None:
    adjset = g.adjset
    for u, v, common in g.wide_edges():
        for a, b in combinations(sorted(common), 2):
            if b in adjset[a]:
                return PatternWitness(K4, (u, v, a, b))
    return None


def diamonds(g: Graph, color):
    """Yield the induced diamonds of the live graph in scan order: edges
    (u, v) ascending, then pairs of their common neighbors.

    `color` holds one byte per vertex, read afresh at every step; the
    value 2 (white) marks a vertex outside the working graph, and every
    other value a live one.  Whitening vertices never creates an induced
    diamond, so after each witness the scan resumes at the same edge:
    the next witness is the first one a new scan would find.  A caller
    that whitens nothing in between gets the same witness again.  The
    scan reads the edges with two or more common neighbors in g, with
    those neighbors, from `g.wide_edges()`, and filters out the whites
    on each rescan: whitening only shrinks a common neighborhood, so no
    other edge is a mid-edge."""
    adjset = g.adjset
    for u, v, full in g.wide_edges():
        while color[u] != _WHITE and color[v] != _WHITE:
            common = sorted(w for w in full if color[w] != _WHITE)
            for a, b in combinations(common, 2):
                if b not in adjset[a]:
                    yield PatternWitness(DIAMOND, (a, u, b, v))
                    break               # rescan this edge
            else:
                break


def butterflies(g: Graph, color):
    """Yield the induced butterflies of the live graph in scan order:
    centers ascending, then pairs of edges inside the center's
    neighborhood.  Resumes at the center of the last witness, under the
    same contract as `diamonds`.  A center's four edges in a butterfly
    lie on its two triangles, so only `g.triangle_centers()`, the
    vertices on four or more triangle edges in g, are scanned."""
    adj, adjset = g.adj, g.adjset
    for u in g.triangle_centers():
        while color[u] != _WHITE:
            inner = sorted((a, b) for a in adj[u] if color[a] != _WHITE
                           for b in adjset[a] & adjset[u]
                           if a < b and color[b] != _WHITE)
            for (a, b), (c, d) in combinations(inner, 2):
                if len({a, b, c, d}) == 4 and not adjset[a] & {c, d} \
                        and not adjset[b] & {c, d}:
                    yield PatternWitness(BUTTERFLY, (a, b, c, d, u))
                    break               # rescan this center
            else:
                break


def _walks(adj, kept, w, j):
    """The first two neighbors x of w, in sorted order, such that a
    non-backtracking walk of j edges (2 <= j <= 4) starts w, x.  A walk
    v, w and j more edges exists iff one of them is not v.  Memoized per
    (w, j) in `kept[j]`, so O(m) in total; computed on demand."""
    memo = kept[j]
    got = memo.get(w)
    if got is None:
        got = []
        for x in adj[w]:
            # w, x and j - 1 more edges
            if (len(adj[x]) > 1 if j == 2
                    else any(y != w for y in _walks(adj, kept, x, j - 1))):
                got.append(x)
                if len(got) == 2:
                    break
        memo[w] = got
    return got


def _leg(adj, adjset, tip, blocked, left):
    """The first induced continuation of `left` vertices from tip, in
    sorted order, or None; `blocked` holds the path, the neighbors of
    every path vertex but the tip, and whatever else the leg must
    avoid."""
    cand = adjset[tip] - blocked
    if not cand:
        return None
    if left == 1:
        return [min(cand)]
    nxt = blocked | adjset[tip]
    failed = set()                  # neighborhoods of the failed children
    for w in adj[tip]:
        if w in cand and (not failed or adj[w] not in failed):
            rest = _leg(adj, adjset, w, nxt, left - 1)
            if rest is not None:
                return [w, *rest]
            failed.add(adj[w])
    return None


def _find_s115(g: Graph) -> PatternWitness | None:
    """Induced S_{1,1,5}: centers ascending, then nonadjacent pairs a < b
    of the center's neighbors, then the first 5-leg in sorted order that
    avoids the closed neighborhoods of a and b.  This is the
    lexicographically first (center, a, b, leg) witness.

    An induced 5-leg is a non-backtracking walk of 5 edges, so a center
    that starts no such walk is skipped (`_walks`) before its legs are
    searched.  The leg search (`_leg`) builds the union of the blocked
    set and the tip's neighbors only at a tip that has a candidate,
    which most tips of dense or hub-like graphs lack.

    Swapping two false twins (vertices with the same neighbors) is an
    automorphism, so the search skips what a twin already refuted: a
    center whose twin of smaller id was searched, and a leg child whose
    twin failed from the same tip (both lie in the child's blocked set,
    which the swap therefore fixes).  Only choices that would fail are
    skipped, so the witness is unchanged; on K_{k,k} the search is O(m).
    A twin class is keyed by its sorted neighbor tuple `adj[v]`.  Memory
    is O(n + m), and all of it is freed on return: the helpers are
    module-level functions, so no call leaves a reference cycle."""
    adj, adjset = g.adj, g.adjset
    searched = set()                # neighborhoods of the centers searched
    kept: dict[int, dict[int, list[int]]] = {2: {}, 3: {}, 4: {}}
    for u in range(g.n):
        # an induced 5-leg is a walk u, x and 4 more edges; a center with
        # no 5-leg at all has none that avoids a and b
        if len(adj[u]) < 3 or adj[u] in searched or not any(
                y != u for x in adj[u] for y in _walks(adj, kept, x, 4)):
            continue
        searched.add(adj[u])
        if _leg(adj, adjset, u, {u}, 5) is None:
            continue
        for a, b in combinations(adj[u], 2):
            if b in adjset[a]:
                continue
            rest = _leg(adj, adjset, u, {u, a, b} | adjset[a] | adjset[b], 5)
            if rest is not None:
                return PatternWitness(S115, (u, a, b, *rest))
    return None


def find_induced(g: Graph, kind: PatternKind) -> PatternWitness | None:
    """Witness of an induced K4 or S_{1,1,5} in g, or None if g has none;
    other kinds raise ValueError.  Diamonds and butterflies are found
    by the resumable scans `diamonds` and `butterflies`."""
    if kind == K4:
        return _find_k4(g)
    if kind == S115:
        return _find_s115(g)
    raise ValueError(f"unsupported pattern {kind}")


def random_s115_free(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample repaired until it contains no induced S_{1,1,5}.

    Repair deletes the witness vertex of maximum degree (ties broken by
    smallest id) and compacts ids, so the result may have fewer than n
    vertices.  Deterministic under a fixed seed.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphInputError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    g = build_graph(n, pairs)
    while True:
        if g.n < 8:
            return g
        w = find_induced(g, S115)
        if w is None:
            return g
        victim = max(w.vertices, key=lambda v: (g.degree(v), -v))
        keep = [v for v in range(g.n) if v != victim]
        remap = {v: i for i, v in enumerate(keep)}
        g = build_graph(len(keep), [(remap[u], remap[v]) for (u, v) in g.edges
                                    if u != victim and v != victim])
