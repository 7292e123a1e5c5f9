import random
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from dimatch import build_graph
from dimatch.patterns import (BUTTERFLY, DIAMOND, K4, S115, PatternWitness,
                              butterflies, diamonds, find_induced,
                              random_s115_free)
from shapes import CLAW, check_witness, cycle, make_named, path, spider
from test_coloring import _pattern_union

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from spans import _kind_label  # noqa: E402

SEARCHED = [K4, DIAMOND, BUTTERFLY, S115]


def _first(g, kind):
    """The first witness of a searched pattern in g: `find_induced` for
    K4 and S115, the scan over an all-live coloring for the diamond and
    the butterfly."""
    scan = {DIAMOND: diamonds, BUTTERFLY: butterflies}.get(kind)
    if scan is None:
        return find_induced(g, kind)
    return next(scan(g, bytes(g.n)), None)


def test_make_named_sizes():
    assert make_named(path(3)).m == 2
    claw = make_named(spider(1, 1, 1))
    assert claw.n == 4 and claw.m == 3
    s = make_named(S115)
    assert s.n == 8 and s.m == 7


def test_find_diamond_in_itself():
    g = make_named(DIAMOND)
    w = next(diamonds(g, bytes(g.n)), None)
    assert w is not None and check_witness(g, w)
    # mid-edge sits in canonical position (v2, u)
    assert g.has_edge(w.vertices[1], w.vertices[3])


def test_s115_identity():
    g = make_named(S115)
    w = find_induced(g, S115)
    assert w is not None and w.vertices[0] == 0 and check_witness(g, w)


def test_p7_has_no_s115():
    assert find_induced(make_named(path(7)), S115) is None


def test_p8_contains_s107_not_s115():
    g = make_named(path(8))
    assert find_induced(g, S115) is None
    # split at vertex 1, P8 is the spider S_{0,1,6}
    assert check_witness(g, PatternWitness(spider(0, 1, 6),
                                           (1, 0, 2, 3, 4, 5, 6, 7)))


def test_bigger_spider_not_inside_smaller():
    assert find_induced(make_named(spider(1, 1, 4)), S115) is None
    assert find_induced(make_named(S115), spider(1, 1, 5)) is not None


def test_butterfly_and_k4_detection():
    b = make_named(BUTTERFLY)
    w = next(butterflies(b, bytes(b.n)), None)
    assert w is not None and check_witness(b, w)
    assert b.has_edge(w.vertices[0], w.vertices[1])
    assert b.has_edge(w.vertices[2], w.vertices[3])
    k = make_named(K4)
    assert find_induced(k, K4) is not None
    assert find_induced(b, K4) is None


def test_span_labels_of_the_searched_kinds():
    # the benchmark's patterns.k4_s and patterns.s115_s read the spans
    # find_induced[K4] and find_induced[S115], labeled from these kinds
    assert _kind_label(K4) == "K4"
    assert _kind_label(S115) == "S115"


def test_only_the_four_solver_patterns_are_searched():
    # K4 and S115 by `find_induced`; the diamond and the butterfly only
    # by their scans
    g = make_named(cycle(7))
    for kind in (DIAMOND, BUTTERFLY, CLAW, path(5), cycle(7),
                 spider(1, 1, 4), spider(2, 2, 5)):
        with pytest.raises(ValueError):
            find_induced(g, kind)


def _has_s115_brute(g):
    """Order-free reference: some 8 vertices induce a tree with degrees
    (3, 2, 2, 2, 2, 1, 1, 1) whose degree-3 vertex has two leaf
    neighbors."""
    for vs in combinations(range(g.n), 8):
        inside = set(vs)
        deg = {v: len(g.adjset[v] & inside) for v in vs}
        if sorted(deg.values()) != [1, 1, 1, 2, 2, 2, 2, 3]:
            continue
        # 7 edges on 8 vertices: a tree iff connected
        seen, stack = {vs[0]}, [vs[0]]
        while stack:
            for w in g.adjset[stack.pop()] & inside:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < 8:
            continue
        center = next(v for v in vs if deg[v] == 3)
        if sum(deg[w] == 1 for w in g.adjset[center] & inside) == 2:
            return True
    return False


def test_s115_search_matches_brute_force_on_small_graphs():
    rng = random.Random(115)
    found = 0
    for _ in range(1500):
        n = rng.randint(8, 11)
        p = rng.uniform(0.15, 0.35)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < p])
        w = find_induced(g, S115)
        assert (w is not None) == _has_s115_brute(g), g.edges
        if w is not None:
            found += 1
            assert check_witness(g, w)
    assert found > 80


def test_s115_search_is_fast_on_complete_bipartite():
    # every center and every leg child of K_{k,k} is a false twin of the
    # first one searched, so the search does O(m) work; without the twin
    # skips K_{160,160} takes about 20 s
    k = 160
    g = build_graph(2 * k, [(i, k + j) for i in range(k) for j in range(k)])
    start = time.perf_counter()
    assert find_induced(g, S115) is None
    assert time.perf_counter() - start < 1.0


def _first_s115_brute(g):
    """Lexicographic reference: centers ascending, nonadjacent pairs
    a < b of the center's neighbors, then every walk of five distinct
    vertices from the center in lexicographic order; the first tuple that
    `check_witness` accepts.  A walk is cut where its new vertex borders
    a chosen vertex other than the tip: `check_witness` rejects every
    extension of it."""
    def walks(tip, used, left):
        if left == 0:
            yield []
            return
        for w in g.adj[tip]:
            if w not in used and not g.adjset[w] & (used - {tip}):
                for rest in walks(w, used | {w}, left - 1):
                    yield [w, *rest]

    for u in range(g.n):
        for a, b in combinations(g.adj[u], 2):
            if g.has_edge(a, b):
                continue
            for leg in walks(u, {u, a, b}, 5):
                w = PatternWitness(S115, (u, a, b, *leg))
                if check_witness(g, w):
                    return w.vertices
    return None


def test_s115_witness_is_the_lexicographically_first():
    rng = random.Random(1151)
    found = 0
    for _ in range(300):
        n = rng.randint(8, 11)
        p = rng.uniform(0.15, 0.35)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < p])
        w = find_induced(g, S115)
        assert (w and w.vertices) == _first_s115_brute(g), g.edges
        found += w is not None
    assert found > 20


def test_s115_found_under_every_relabeling():
    # the walk prefilter must keep the one center of the spider itself;
    # a twin 9 of the second leg vertex and a second end 8 give the
    # spider's leg two choices at two places, and vertex 6 another center
    s = make_named(S115)
    fork = build_graph(10, list(s.edges) + [(3, 9), (5, 9), (6, 8)])
    rng = random.Random(8)
    for base in (s, fork):
        for _ in range(200):
            perm = rng.sample(range(base.n), base.n)
            g = build_graph(base.n, [(perm[u], perm[v])
                                     for u, v in base.edges])
            w = find_induced(g, S115)
            assert w is not None and w.vertices == _first_s115_brute(g)
            assert base is fork or w.vertices[0] == perm[0]


def test_s115_search_is_fast_on_a_hub():
    # edge (0, 1), 2 on 0, k singletons on 2 with 2 or 3 leaves each: no
    # vertex starts a non-backtracking walk of five edges
    k, rng = 1000, random.Random(3)
    pairs, nxt = [(0, 1), (0, 2)], 3 + k
    for u in range(3, 3 + k):
        pairs.append((2, u))
        for _ in range(rng.choice((2, 3))):
            pairs.append((u, nxt))
            nxt += 1
    g = build_graph(nxt, pairs)
    start = time.perf_counter()
    assert find_induced(g, S115) is None
    assert time.perf_counter() - start < 5.0


def _first_by_subsets(g, kind, live):
    """Order-free reference for the K4, diamond and butterfly scans: every
    4- or 5-subset of live vertices that induces the pattern, keyed by the
    documented scan order, and the witness of the least key.  K4 (u, v,
    a, b) and diamond (a, u, b, v) scan edges (u, v) ascending, then pairs
    a < b of common neighbors; the butterfly (a, b, c, d, u) scans centers
    u ascending, then pairs of edges (a, b) < (c, d) in its neighborhood."""
    best = None
    for vs in combinations(live, 5 if kind == BUTTERFLY else 4):
        inside = set(vs)
        deg = {v: len(g.adjset[v] & inside) for v in vs}
        shape = sorted(deg.values())
        if kind == K4 and shape == [3, 3, 3, 3]:
            key = wit = vs
        elif kind == DIAMOND and shape == [2, 2, 3, 3]:
            (a, b), (u, v) = (sorted(x for x in vs if deg[x] == d)
                              for d in (2, 3))
            key, wit = (u, v, a, b), (a, u, b, v)
        elif kind == BUTTERFLY and shape == [2, 2, 2, 2, 4]:
            u = next(x for x in vs if deg[x] == 4)
            (a, b), (c, d) = sorted((x, y) for x, y in combinations(vs, 2)
                                    if u not in (x, y) and g.has_edge(x, y))
            key, wit = (u, a, b, c, d), (a, b, c, d, u)
        else:
            continue
        if best is None or key < best[0]:
            best = (key, wit)
    return best and best[1]


def _triangle_shapes(rng):
    """Graphs on at most 16 vertices, relabeled at random, where the
    triangle index decides: a butterfly whose center has degree 4 and
    random edges among its other vertices, K_{k,k} (4 <= k <= 8) plus 1-3
    chords, a star on 4-12 leaves carrying one or two triangles, and 1-4
    disjoint diamonds, where every edge lies on a triangle and no vertex
    has degree above 3."""
    kind = rng.choice(("butterfly", "kkk", "star", "diamonds"))
    if kind == "butterfly":
        n = rng.randint(5, 9)               # center 4
        edges = list(make_named(BUTTERFLY).edges)
        edges += [(u, v) for u, v in combinations(range(n), 2)
                  if 4 not in (u, v) and (u, v) not in edges
                  and rng.random() < 0.2]
    elif kind == "kkk":
        k = rng.randint(4, 8)
        n, edges = 2 * k, [(a, k + b) for a in range(k) for b in range(k)]
        edges += rng.sample(list(combinations(range(k), 2)) + list(
            combinations(range(k, n), 2)), rng.randint(1, 3))
    elif kind == "star":
        n = rng.randint(5, 13)
        edges = [(0, v) for v in range(1, n)]
        edges += rng.sample([(1, 2), (3, 4), (2, 3)], rng.randint(1, 2))
    else:
        k = rng.randint(1, 4)
        n, edges = 4 * k, [(4 * i + u, 4 * i + v) for i in range(k)
                           for u, v in make_named(DIAMOND).edges]
    label = rng.sample(range(n), n)
    return build_graph(n, {tuple(sorted((label[u], label[v])))
                           for u, v in edges})


def test_guarded_scans_return_the_first_witness_of_every_subset():
    # the scans read only the edges with two or more common neighbors and
    # the vertices on four or more triangle edges; on small graphs,
    # pattern unions, shapes where these filters decide and random
    # colorings they must still return the first witness
    rng = random.Random(414)
    graphs = []
    for _ in range(400):
        n, p = rng.randint(4, 9), rng.uniform(0.2, 0.8)
        graphs.append(build_graph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if rng.random() < p]))
    unions = [g for g in (_pattern_union(rng) for _ in range(150))
              if g.n <= 16]
    graphs += unions
    graphs += [_triangle_shapes(rng) for _ in range(120)]
    thin_edges = low_centers = few_triangles = 0
    hits = {K4: 0, DIAMOND: 0, BUTTERFLY: 0}
    for g in graphs:
        thin_edges += sum(len(g.adjset[u] & g.adjset[v]) < 2
                          for u, v in g.edges)
        low_centers += sum(g.degree(v) < 4 for v in range(g.n))
        # vertices of degree 4 or more on fewer than four triangle edges
        few_triangles += sum(sum(bool(g.adjset[u] & g.adjset[v])
                                 for v in g.adj[u]) < 4 <= g.degree(u)
                             for u in range(g.n))
        for kind in hits:
            w = _first(g, kind)
            assert (w and w.vertices) == _first_by_subsets(
                g, kind, range(g.n)), (kind, g.edges)
            hits[kind] += w is not None
        # color bytes: 2 (white) is outside the working graph, and an
        # unknown (0) or a black (1) vertex is live
        color = bytearray(2 if rng.random() < 0.2 else rng.randrange(2)
                          for _ in range(g.n))
        live = [v for v in range(g.n) if color[v] != 2]
        for kind, scan in ((DIAMOND, diamonds), (BUTTERFLY, butterflies)):
            w = next(scan(g, color), None)
            assert (w and w.vertices) == _first_by_subsets(g, kind, live)
    assert len(unions) > 40 and thin_edges > 1000 and low_centers > 1000
    assert few_triangles > 200
    assert 40 < min(hits.values()) <= max(hits.values()) < len(graphs) - 40


def test_witnesses_check_out_on_random_graphs():
    rng = random.Random(17)
    hits = 0
    for _ in range(150):
        n = rng.randint(4, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        g = build_graph(n, pairs)
        for kind in SEARCHED:
            w = _first(g, kind)
            if w is not None:
                hits += 1
                assert check_witness(g, w)
    assert hits > 100


def test_generator_outputs_are_clean():
    for seed in range(12):
        g = random_s115_free(16, 0.2, 42 + seed)
        assert find_induced(g, S115) is None


def test_generator_small_graphs_unchanged():
    g = random_s115_free(7, 0.5, 9)
    assert g.n == 7
    assert random_s115_free(0, 0.5, 1).n == 0


def test_generator_deterministic():
    a = random_s115_free(14, 0.3, 77)
    b = random_s115_free(14, 0.3, 77)
    assert a.n == b.n and a.edges == b.edges


def test_every_named_graph_detected_as_itself():
    for kind in SEARCHED:
        g = make_named(kind)
        w = _first(g, kind)
        assert w is not None, kind
        assert check_witness(g, w), kind


def _twin_rich(rng):
    """A graph with many false twins, relabeled at random: a blow-up of a
    small graph, random or S_{1,1,5} plus a few edges (1-3 copies of each
    vertex, copies of adjacent vertices joined), K_{k,k} minus up to
    three edges with a path hung off one vertex, or a sparse graph with
    several pendant leaves on one vertex."""
    kind = rng.choice(("blow-up", "kkk", "leaves"))
    if kind == "blow-up":
        b, p = rng.randint(4, 7), rng.uniform(0.25, 0.6)
        base = [(u, v) for u in range(b) for v in range(u + 1, b)
                if rng.random() < p]
        if rng.random() < 0.5:
            b, base = 8, list(make_named(S115).edges)
            for _ in range(rng.randint(0, 2)):
                u, v = sorted(rng.sample(range(b), 2))
                if (u, v) not in base:
                    base.append((u, v))
        copies, n = [], 0
        for _ in range(b):
            size = rng.randint(1, 3)
            copies.append(range(n, n + size))
            n += size
        edges = [(x, y) for u, v in base for x in copies[u] for y in copies[v]]
    elif kind == "kkk":
        k = rng.randint(2, 4)
        n, edges = 2 * k, [(i, k + j) for i in range(k) for j in range(k)]
        for e in rng.sample(edges, rng.randint(0, 3)):
            edges.remove(e)
        tip = rng.randrange(n)
        for _ in range(rng.randint(0, 5)):
            edges.append((tip, n))
            tip, n = n, n + 1
    else:
        n = rng.randint(8, 14)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 2.5 / n]
        hub = rng.randrange(n)
        for _ in range(rng.randint(2, 4)):
            edges.append((hub, n))
            n += 1
    perm = rng.sample(range(n), n)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_twin_skips_keep_the_first_witness():
    # a center or leg child whose false twin already failed is
    # skipped; that must never change the witness or miss one
    rng = random.Random(1152)
    found = twins = 0
    for _ in range(600):
        g = _twin_rich(rng)
        twins += len(set(g.adj)) < g.n
        w = find_induced(g, S115)
        assert (w and w.vertices) == _first_s115_brute(g), g.edges
        found += w is not None
    assert twins > 500 and 100 < found < 500
