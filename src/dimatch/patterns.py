"""Detection and construction of the small induced subgraphs the solver
cares about: K4, diamond, butterfly, paths, cycles, and spiders S_{i,j,k}
(three induced paths of lengths i, j, k glued at a center; S_{1,1,1} is
the claw).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from .graph import Graph, build_graph


@dataclass(frozen=True)
class PatternKind:
    """Tagged pattern family. `params` holds (i,j,k) for spiders and (k,)
    for paths/cycles; empty otherwise."""

    tag: str                       # K4 | Diamond | Butterfly | Claw | S_ijk | P_k | C_k
    params: tuple[int, ...] = ()

    def __post_init__(self):
        t, p = self.tag, self.params
        if t == "S_ijk":
            if len(p) != 3 or any(x < 0 for x in p):
                raise ValueError(f"spider needs three indices >= 0, got {p}")
        elif t == "P_k":
            if len(p) != 1 or p[0] < 2:
                raise ValueError(f"path needs k >= 2, got {p}")
        elif t == "C_k":
            if len(p) != 1 or p[0] < 3:
                raise ValueError(f"cycle needs k >= 3, got {p}")
        elif t not in ("K4", "Diamond", "Butterfly", "Claw"):
            raise ValueError(f"unknown pattern tag {t!r}")


K4 = PatternKind("K4")
DIAMOND = PatternKind("Diamond")
BUTTERFLY = PatternKind("Butterfly")
CLAW = PatternKind("Claw")


def spider(i: int, j: int, k: int) -> PatternKind:
    return PatternKind("S_ijk", (i, j, k))


def path(k: int) -> PatternKind:
    return PatternKind("P_k", (k,))


def cycle(k: int) -> PatternKind:
    return PatternKind("C_k", (k,))


S115 = spider(1, 1, 5)


@dataclass(frozen=True)
class PatternWitness:
    """An induced occurrence; vertices listed in the pattern's role order.

    Diamond: (v1, v2, v3, u) with mid-edge (v2, u).  Butterfly:
    (v1, v2, v3, v4, u) with peripheral edges (v1, v2) and (v3, v4).
    Spiders: center first, then the legs center-outward, shortest leg
    first.  Paths and cycles: in path/cycle order.
    """

    kind: PatternKind
    vertices: tuple[int, ...]


def make_named(kind: PatternKind) -> Graph:
    """Construct the canonical graph of a pattern, ids in role order."""
    t, p = kind.tag, kind.params
    if t == "K4":
        return build_graph(4, list(combinations(range(4), 2)))
    if t == "Diamond":
        # P3 (0,1,2) plus 3 joined to all of it; mid-edge (1, 3)
        return build_graph(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    if t == "Butterfly":
        # peripheral edges (0,1) and (2,3); 4 joined to all
        return build_graph(5, [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    if t == "Claw":
        return build_graph(4, [(0, 1), (0, 2), (0, 3)])
    if t == "P_k":
        k = p[0]
        return build_graph(k, [(i, i + 1) for i in range(k - 1)])
    if t == "C_k":
        k = p[0]
        return build_graph(k, [(i, (i + 1) % k) for i in range(k)])
    # spider: center 0, legs numbered consecutively
    i, j, k = p
    pairs = []
    nxt = 1
    for leg in (i, j, k):
        prev = 0
        for _ in range(leg):
            pairs.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(1 + i + j + k, pairs)


def _removed_mask(g: Graph, alive) -> bytes:
    if alive is None:
        return bytes(g.n)
    return bytes(0 if a else 1 for a in alive)


def _alive_vertices(g: Graph, alive) -> list[int]:
    if alive is None:
        return list(range(g.n))
    return [v for v in range(g.n) if alive[v]]


def _find_k4(g: Graph, alive) -> PatternWitness | None:
    ok = (lambda v: True) if alive is None else (lambda v: bool(alive[v]))
    for (u, v) in g.edges:
        if not (ok(u) and ok(v)):
            continue
        common = [w for w in g.adjset[u] & g.adjset[v] if ok(w)]
        for a, b in combinations(sorted(common), 2):
            if g.has_edge(a, b):
                return PatternWitness(K4, (u, v, a, b))
    return None


def diamonds(g: Graph, removed):
    """Yield the induced diamonds of the live graph in scan order: edges
    (u, v) ascending, then pairs of their common neighbors.

    `removed` is a byte mask (nonzero for vertices outside the working
    graph) read afresh at every step.  Removing vertices never creates an
    induced diamond, so after each witness the scan resumes at the same
    edge: the next witness is the first one a new scan would find.  A
    caller that removes nothing in between gets the same witness again.
    """
    adjset = g.adjset
    for (u, v) in g.edges:
        while not (removed[u] or removed[v]):
            common = sorted(w for w in adjset[u] & adjset[v] if not removed[w])
            for a, b in combinations(common, 2):
                if b not in adjset[a]:
                    yield PatternWitness(DIAMOND, (a, u, b, v))
                    break               # rescan this edge
            else:
                break


def butterflies(g: Graph, removed):
    """Yield the induced butterflies of the live graph in scan order:
    centers ascending, then pairs of edges inside the center's
    neighborhood.  Resumes at the center of the last witness, under the
    same contract as `diamonds`."""
    adj, adjset = g.adj, g.adjset
    for u in range(g.n):
        while not removed[u]:
            inner = sorted((a, b) for a in adj[u] if not removed[a]
                           for b in adjset[a] & adjset[u]
                           if a < b and not removed[b])
            for (a, b), (c, d) in combinations(inner, 2):
                if len({a, b, c, d}) == 4 and not adjset[a] & {c, d} \
                        and not adjset[b] & {c, d}:
                    yield PatternWitness(BUTTERFLY, (a, b, c, d, u))
                    break               # rescan this center
            else:
                break


def _find_spider(g: Graph, kind: PatternKind, alive) -> PatternWitness | None:
    """Induced spider search: pick a center with three independent
    neighbors, then extend each leg as an induced path avoiding the rest
    of the spider.  Polynomial for fixed leg lengths."""
    params = kind.params
    order = sorted(range(3), key=lambda t: params[t])
    li, lj, lk = (params[t] for t in order)
    if li == 0:
        # a spider with a zero leg is a path; split it at the center
        got = _find_induced_path(g, 1 + lj + lk, alive)
        if got is None:
            return None
        seq = got.vertices
        legs_sorted = [list(seq[lj::-1][:li + 1]),
                       list(seq[lj::-1][: lj + 1]),
                       list(seq[lj:])]
        legs = [None, None, None]
        for t, oidx in enumerate(order):
            legs[oidx] = legs_sorted[t]
        flat = [seq[lj]]
        for leg in legs:
            flat.extend(leg[1:])
        return PatternWitness(kind, tuple(flat))
    verts = _alive_vertices(g, alive)
    ok = (lambda v: True) if alive is None else (lambda v: bool(alive[v]))

    def grow(legs: list[list[int]], targets: tuple[int, ...], used: set[int]):
        for idx, need in enumerate(targets):
            if len(legs[idx]) <= need:
                break
        else:
            return legs
        tip = legs[idx][-1]
        body = used - {tip}
        for w in sorted(g.adj[tip]):
            if not ok(w) or w in used:
                continue
            if any(g.has_edge(w, x) for x in body):
                continue
            legs[idx].append(w)
            used.add(w)
            got = grow(legs, targets, used)
            if got is not None:
                return got
            used.discard(w)
            legs[idx].pop()
        return None

    for u in verts:
        nbrs = sorted(w for w in g.adj[u] if ok(w))
        if len(nbrs) < 3:
            continue
        for a, b, c in permutations(nbrs, 3):
            # skip permutations that only swap equal-length legs
            if li == lj and a > b:
                continue
            if lj == lk and b > c:
                continue
            if g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c):
                continue
            legs_sorted = [[u, a], [u, b], [u, c]]
            used = {u, a, b, c}
            got = grow(legs_sorted, (li, lj, lk), used)
            if got is not None:
                legs = [None, None, None]
                for t, oidx in enumerate(order):
                    legs[oidx] = got[t]
                flat = [u]
                for leg in legs:
                    flat.extend(leg[1:])
                return PatternWitness(kind, tuple(flat))
    return None


def _find_induced_path(g: Graph, k: int, alive) -> PatternWitness | None:
    verts = _alive_vertices(g, alive)
    ok = (lambda v: True) if alive is None else (lambda v: bool(alive[v]))

    def extend(seq: list[int], used: set[int]):
        if len(seq) == k:
            return tuple(seq)
        tip = seq[-1]
        body = used - {tip}
        for w in sorted(g.adj[tip]):
            if not ok(w) or w in used:
                continue
            if any(g.has_edge(w, x) for x in body):
                continue
            seq.append(w)
            used.add(w)
            got = extend(seq, used)
            if got is not None:
                return got
            used.discard(w)
            seq.pop()
        return None

    for s in verts:
        got = extend([s], {s})
        if got is not None:
            return PatternWitness(path(k), got)
    return None


def _find_induced_cycle(g: Graph, k: int, alive) -> PatternWitness | None:
    verts = _alive_vertices(g, alive)
    ok = (lambda v: True) if alive is None else (lambda v: bool(alive[v]))

    def extend(seq: list[int], used: set[int]):
        pos = len(seq)
        if pos == k:
            return tuple(seq)
        tip = seq[-1]
        interior = seq[1:-1]
        for w in sorted(g.adj[tip]):
            # canonical form: the cycle starts at its minimum vertex
            if not ok(w) or w in used or w < seq[0]:
                continue
            if any(g.has_edge(w, x) for x in interior):
                continue
            closes = g.has_edge(w, seq[0])
            if pos == k - 1:
                if not closes:
                    continue
            elif pos >= 2 and closes:
                continue
            seq.append(w)
            used.add(w)
            got = extend(seq, used)
            if got is not None:
                return got
            used.discard(w)
            seq.pop()
        return None

    for s in verts:
        got = extend([s], {s})
        if got is not None:
            return PatternWitness(cycle(k), got)
    return None


def find_induced(g: Graph, kind: PatternKind, alive=None) -> PatternWitness | None:
    """Witness of an induced occurrence of `kind`, or None if kind-free.

    `alive` optionally masks the search to a vertex subset.
    """
    t = kind.tag
    if t == "K4":
        return _find_k4(g, alive)
    if t == "Diamond":
        return next(diamonds(g, _removed_mask(g, alive)), None)
    if t == "Butterfly":
        return next(butterflies(g, _removed_mask(g, alive)), None)
    if t == "Claw":
        w = _find_spider(g, spider(1, 1, 1), alive)
        return PatternWitness(CLAW, w.vertices) if w else None
    if t == "S_ijk":
        return _find_spider(g, kind, alive)
    if t == "P_k":
        return _find_induced_path(g, kind.params[0], alive)
    if t == "C_k":
        return _find_induced_cycle(g, kind.params[0], alive)
    raise ValueError(f"unsupported pattern {kind}")


def check_witness(g: Graph, w: PatternWitness) -> bool:
    """Re-check that the listed vertices induce exactly the named pattern."""
    model = make_named(w.kind)
    vs = w.vertices
    if len(vs) != model.n or len(set(vs)) != model.n:
        return False
    for i in range(model.n):
        for j in range(i + 1, model.n):
            if model.has_edge(i, j) != g.has_edge(vs[i], vs[j]):
                return False
    return True


def random_s115_free(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample repaired until it contains no induced S_{1,1,5}.

    Repair deletes the witness vertex of maximum degree (ties broken by
    smallest id) and compacts ids, so the result may have fewer than n
    vertices.  Deterministic under a fixed seed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
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
